module Rat = Pp_util.Rat

type piece = { dom : Polyhedron.t; out : Affine.t array }
type t = { in_dim : int; out_dim : int; pieces : piece list }

let make ~in_dim ~out_dim pieces =
  List.iter
    (fun p ->
      assert (Polyhedron.dim p.dom = in_dim);
      assert (Array.length p.out = out_dim);
      Array.iter (fun e -> assert (Affine.dim e = in_dim)) p.out)
    pieces;
  { in_dim; out_dim; pieces }

let in_dim t = t.in_dim
let out_dim t = t.out_dim
let pieces t = t.pieces
let is_empty t = t.pieces = []

let apply t x =
  let rec go = function
    | [] -> None
    | p :: rest ->
        if Polyhedron.mem p.dom x then
          Some (Array.map (fun e -> Affine.eval e x) p.out)
        else go rest
  in
  go t.pieces

let apply_int t x =
  match apply t x with
  | None -> None
  | Some v ->
      if Array.for_all Rat.is_integer v then Some (Array.map Rat.to_int_exn v)
      else None

let domain t = Pset.of_polyhedra t.in_dim (List.map (fun p -> p.dom) t.pieces)

let union a b =
  assert (a.in_dim = b.in_dim && a.out_dim = b.out_dim);
  { a with pieces = a.pieces @ b.pieces }

let restrict_domain t q =
  let pieces =
    List.filter_map
      (fun p ->
        let d = Polyhedron.intersect p.dom q in
        if Polyhedron.is_empty d then None else Some { p with dom = d })
      t.pieces
  in
  { t with pieces }

let distance_exprs p =
  let n = Polyhedron.dim p.dom in
  Array.init (Array.length p.out) (fun k ->
      Affine.sub (Affine.var ~dim:n k) p.out.(k))

let distance p =
  let exprs = distance_exprs p in
  let ok = ref true in
  let d =
    Array.map
      (fun e ->
        if Affine.is_constant e && Rat.is_integer e.Affine.const then
          Rat.to_int_exn e.Affine.const
        else begin
          ok := false;
          0
        end)
      exprs
  in
  if !ok then Some d else None

let pp ?in_names ?out_names fmt t =
  let out_name k =
    match out_names with
    | Some ns when k < Array.length ns -> ns.(k)
    | _ -> "o" ^ string_of_int k
  in
  List.iteri
    (fun i p ->
      if i > 0 then Format.fprintf fmt ";@ ";
      Format.fprintf fmt "%a -> {"
        (Polyhedron.pp ?names:in_names)
        p.dom;
      Array.iteri
        (fun k e ->
          if k > 0 then Format.fprintf fmt ", ";
          Format.fprintf fmt "%s' = %a" (out_name k) (Affine.pp ?names:in_names) e)
        p.out;
      Format.fprintf fmt "}")
    t.pieces

let to_string ?in_names ?out_names t =
  Format.asprintf "%a" (pp ?in_names ?out_names) t
