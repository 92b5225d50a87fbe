module Rat = Pp_util.Rat

type t = { coeffs : Rat.t array; const : Rat.t }

let make coeffs const = { coeffs = Array.copy coeffs; const }
let of_int_coeffs coeffs const =
  { coeffs = Array.map Rat.of_int coeffs; const = Rat.of_int const }

let const ~dim c = { coeffs = Array.make dim Rat.zero; const = c }

let var ~dim k =
  let coeffs = Array.make dim Rat.zero in
  coeffs.(k) <- Rat.one;
  { coeffs; const = Rat.zero }

let dim t = Array.length t.coeffs

let add a b =
  assert (dim a = dim b);
  { coeffs = Array.init (dim a) (fun i -> Rat.add a.coeffs.(i) b.coeffs.(i));
    const = Rat.add a.const b.const }

let neg a = { coeffs = Array.map Rat.neg a.coeffs; const = Rat.neg a.const }
let sub a b = add a (neg b)

let scale k a =
  { coeffs = Array.map (Rat.mul k) a.coeffs; const = Rat.mul k a.const }

let eval_rat t x =
  let acc = ref t.const in
  Array.iteri (fun i c -> acc := Rat.add !acc (Rat.mul c x.(i))) t.coeffs;
  !acc

let eval t x = eval_rat t (Array.map Rat.of_int x)

(* Integer form: [t(x) = (sum_k icoef_k x_k + iconst) / iden], where
   [iden > 0] is the lcm of the denominators and
   [icoef_k = num_k * (iden / den_k)], evaluated in checked native ints.
   Only the first [dim t] coordinates of [x] are read.  On
   [Rat.Overflow], [compare_int] / [floor_int] / [ceil_int] redo that one
   evaluation with [eval]. *)
let common_den t =
  let d = ref t.const.den in
  for k = 0 to Array.length t.coeffs - 1 do
    let c = t.coeffs.(k) in
    if c.den <> 1 then d := Rat.lcm !d c.den
  done;
  !d

let[@inline] scaled_coeff den (c : Rat.t) =
  if den = 1 then c.num else Rat.int_mul c.num (den / c.den)

(* [den * t(x)], given [den = common_den t] *)
let scaled_eval t den x =
  let acc = ref (scaled_coeff den t.const) in
  for k = 0 to Array.length t.coeffs - 1 do
    acc := Rat.int_add !acc (Rat.int_mul (scaled_coeff den t.coeffs.(k)) x.(k))
  done;
  !acc

let compare_int t x v =
  match
    let den = common_den t in
    Int.compare (scaled_eval t den x) (Rat.int_mul v den)
  with
  | c -> c
  | exception Rat.Overflow ->
      let e = eval t x in
      if Rat.is_integer e then Int.compare e.num v
      else if Rat.floor e >= v then 1
      else -1

let floor_int t x =
  match
    let den = common_den t in
    let s = scaled_eval t den x in
    if s mod den < 0 then (s / den) - 1 else s / den
  with
  | f -> f
  | exception Rat.Overflow -> Rat.floor (eval t x)

let ceil_int t x =
  match
    let den = common_den t in
    let s = scaled_eval t den x in
    if s mod den > 0 then (s / den) + 1 else s / den
  with
  | c -> c
  | exception Rat.Overflow -> Rat.ceil (eval t x)

let equal a b =
  dim a = dim b
  && Rat.equal a.const b.const
  && Array.for_all2 Rat.equal a.coeffs b.coeffs

let is_constant t = Array.for_all Rat.is_zero t.coeffs

let substitute e k by =
  assert (dim e = dim by);
  let c = e.coeffs.(k) in
  if Rat.is_zero c then e
  else begin
    let e' = { e with coeffs = Array.copy e.coeffs } in
    e'.coeffs.(k) <- Rat.zero;
    add e' (scale c by)
  end

let extend e n =
  assert (n >= dim e);
  let coeffs = Array.make n Rat.zero in
  Array.blit e.coeffs 0 coeffs 0 (dim e);
  { e with coeffs }

let default_name k = "i" ^ string_of_int k

let pp ?names fmt t =
  let name k =
    match names with Some ns when k < Array.length ns -> ns.(k) | _ -> default_name k
  in
  let printed = ref false in
  Array.iteri
    (fun k c ->
      if not (Rat.is_zero c) then begin
        if !printed then
          if Rat.sign c > 0 then Format.fprintf fmt " + "
          else Format.fprintf fmt " - "
        else if Rat.sign c < 0 then Format.fprintf fmt "-";
        let a = Rat.abs c in
        if Rat.equal a Rat.one then Format.fprintf fmt "%s" (name k)
        else Format.fprintf fmt "%a%s" Rat.pp a (name k);
        printed := true
      end)
    t.coeffs;
  if not !printed then Rat.pp fmt t.const
  else if not (Rat.is_zero t.const) then
    if Rat.sign t.const > 0 then Format.fprintf fmt " + %a" Rat.pp t.const
    else Format.fprintf fmt " - %a" Rat.pp (Rat.abs t.const)

let to_string ?names t = Format.asprintf "%a" (pp ?names) t
