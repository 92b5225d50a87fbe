module Rat = Pp_util.Rat

type t = { dim : int; cons : Constr.t list }

let make dim cons =
  List.iter (fun c -> assert (Constr.dim c = dim)) cons;
  { dim; cons }

let universe dim = { dim; cons = [] }
let empty dim = { dim; cons = [ Constr.make Ge (Array.make dim 0) (-1) ] }
let dim t = t.dim
let constraints t = t.cons
let mem t x = List.for_all (fun c -> Constr.sat c x) t.cons

(* Keep only the strongest constraint per (kind, coefficient vector), and
   drop tautologies.  Detects directly contradictory constant constraints. *)
let simplify t =
  let tbl = Hashtbl.create 16 in
  let contradiction = ref false in
  let keep = ref [] in
  List.iter
    (fun (c : Constr.t) ->
      if Pp_util.Vecint.is_zero c.v then begin
        match c.kind with
        | Constr.Eq -> if c.c <> 0 then contradiction := true
        | Constr.Ge -> if c.c < 0 then contradiction := true
      end
      else begin
        let key = (c.kind, Array.to_list c.v) in
        match Hashtbl.find_opt tbl key with
        | None ->
            Hashtbl.add tbl key c;
            keep := c :: !keep
        | Some (prev : Constr.t) -> (
            match c.kind with
            | Constr.Ge ->
                (* v.x + c >= 0 is stronger when c is smaller *)
                if c.c < prev.c then Hashtbl.replace tbl key c
            | Constr.Eq -> if c.c <> prev.c then contradiction := true)
      end)
    t.cons;
  if !contradiction then empty t.dim
  else
    { t with
      cons =
        List.rev_map
          (fun c -> Hashtbl.find tbl (c.Constr.kind, Array.to_list c.Constr.v))
          !keep }

let add_constraint t c =
  assert (Constr.dim c = t.dim);
  simplify { t with cons = c :: t.cons }

let intersect a b =
  assert (a.dim = b.dim);
  simplify { dim = a.dim; cons = a.cons @ b.cons }

(* Split equalities into two inequalities for elimination purposes. *)
let to_inequalities cons =
  List.concat_map
    (fun (c : Constr.t) ->
      match c.kind with
      | Constr.Ge -> [ c ]
      | Constr.Eq ->
          [ Constr.make Ge c.v c.c;
            Constr.make Ge (Array.map (fun x -> -x) c.v) (-c.c) ])
    cons

(* Fourier-Motzkin elimination of a single dimension from inequalities. *)
let fm_eliminate_one dimension cons k =
  let lower = ref [] and upper = ref [] and rest = ref [] in
  List.iter
    (fun (c : Constr.t) ->
      let a = c.v.(k) in
      if a > 0 then lower := c :: !lower
      else if a < 0 then upper := c :: !upper
      else rest := c :: !rest)
    cons;
  let combined = ref [] in
  List.iter
    (fun (lo : Constr.t) ->
      List.iter
        (fun (up : Constr.t) ->
          (* lo: a*x_k + e >= 0, a > 0; up: -b*x_k + f >= 0, b > 0
             combine: b*e + a*f >= 0 *)
          let a = lo.v.(k) and b = -up.v.(k) in
          let v =
            Array.init dimension (fun i ->
                if i = k then 0 else (b * lo.v.(i)) + (a * up.v.(i)))
          in
          let c = (b * lo.c) + (a * up.c) in
          combined := Constr.make Ge v c :: !combined)
        !upper)
    !lower;
  !rest @ !combined

let eliminate t ks =
  let cons = ref (to_inequalities t.cons) in
  List.iter (fun k -> cons := fm_eliminate_one t.dim !cons k) ks;
  simplify { t with cons = !cons }

let drop_dims t ks =
  let p = eliminate t ks in
  let keep =
    List.filter (fun i -> not (List.mem i ks)) (List.init t.dim Fun.id)
  in
  let keep = Array.of_list keep in
  let ndim = Array.length keep in
  let remap (c : Constr.t) =
    Constr.make c.kind (Array.map (fun i -> c.v.(i)) keep) c.c
  in
  make ndim (List.map remap p.cons)

(* The one engine switch: Fourier-Motzkin answers emptiness and bounds
   up to this many dimensions; above it the constraint count blows up
   and the exact rational simplex below answers instead. *)
let fm_dim_limit = 4

type optimum = Opt of Rat.t | Unbounded | Infeasible

(* Dictionary-based primal simplex (Chvatal).  Variables are indexed
   globally; [basis.(i)] is the variable defined by row [i]:

     basis.(i) = bval.(i) - sum_j a.(i).(j) * nonbasis.(j)
     z         = obj0     + sum_j obj.(j)   * nonbasis.(j)

   All variables are >= 0.  Bland's smallest-index rule guarantees
   termination. *)
type dict = {
  mutable basis : int array;
  mutable nonbasis : int array;
  a : Rat.t array array;  (* m x n *)
  bval : Rat.t array;  (* m *)
  obj : Rat.t array;  (* n *)
  mutable obj0 : Rat.t;
}

let pivot d ~row ~col =
  let m = Array.length d.bval and n = Array.length d.obj in
  let piv = d.a.(row).(col) in
  assert (not (Rat.is_zero piv));
  (* solve row for the entering variable *)
  let inv = Rat.inv piv in
  d.bval.(row) <- Rat.mul d.bval.(row) inv;
  for j = 0 to n - 1 do
    d.a.(row).(j) <- Rat.mul d.a.(row).(j) inv
  done;
  (* the leaving variable takes the entering variable's column slot *)
  let leaving = d.basis.(row) and entering = d.nonbasis.(col) in
  d.a.(row).(col) <- inv;
  (* substitute into the other rows *)
  for i = 0 to m - 1 do
    if i <> row then begin
      let f = d.a.(i).(col) in
      if not (Rat.is_zero f) then begin
        d.bval.(i) <- Rat.sub d.bval.(i) (Rat.mul f d.bval.(row));
        for j = 0 to n - 1 do
          if j <> col then
            d.a.(i).(j) <- Rat.sub d.a.(i).(j) (Rat.mul f d.a.(row).(j))
        done;
        d.a.(i).(col) <- Rat.neg (Rat.mul f d.a.(row).(col))
      end
    end
  done;
  (* and into the objective *)
  let f = d.obj.(col) in
  if not (Rat.is_zero f) then begin
    d.obj0 <- Rat.add d.obj0 (Rat.mul f d.bval.(row));
    for j = 0 to n - 1 do
      if j <> col then
        d.obj.(j) <- Rat.sub d.obj.(j) (Rat.mul f d.a.(row).(j))
    done;
    d.obj.(col) <- Rat.neg (Rat.mul f d.a.(row).(col))
  end;
  d.basis.(row) <- entering;
  d.nonbasis.(col) <- leaving

(* One phase of the simplex on a feasible dictionary. *)
let optimize d =
  let m = Array.length d.bval and n = Array.length d.obj in
  let rec step () =
    (* Bland: entering = smallest-id nonbasic with positive reduced cost *)
    let enter = ref (-1) in
    for j = n - 1 downto 0 do
      if Rat.sign d.obj.(j) > 0 then
        if !enter = -1 || d.nonbasis.(j) < d.nonbasis.(!enter) then enter := j
    done;
    if !enter = -1 then `Optimal
    else begin
      let col = !enter in
      (* leaving: min ratio bval/a over rows with positive coefficient *)
      let leave = ref (-1) in
      let best = ref Rat.zero in
      for i = 0 to m - 1 do
        let coef = d.a.(i).(col) in
        if Rat.sign coef > 0 then begin
          let ratio = Rat.div d.bval.(i) coef in
          let better =
            !leave = -1
            || Rat.compare ratio !best < 0
            || (Rat.equal ratio !best && d.basis.(i) < d.basis.(!leave))
          in
          if better then begin
            leave := i;
            best := ratio
          end
        end
      done;
      if !leave = -1 then `Unbounded
      else begin
        pivot d ~row:!leave ~col;
        step ()
      end
    end
  in
  step ()

(* Build the nonneg-variable system from a polyhedron and an objective:
   every free dimension x_k becomes u_k - w_k with u, w >= 0. *)
let build p (objective : Affine.t) =
  let dim = p.dim in
  assert (Affine.dim objective = dim);
  let cons =
    List.concat_map
      (fun (c : Constr.t) ->
        (* v.x + cst >= 0  <=>  -v.x <= cst ; equalities give both rows *)
        match c.Constr.kind with
        | Constr.Ge -> [ (Array.map (fun x -> -x) c.Constr.v, c.Constr.c) ]
        | Constr.Eq ->
            [ (Array.map (fun x -> -x) c.Constr.v, c.Constr.c);
              (Array.copy c.Constr.v, -c.Constr.c) ])
      p.cons
  in
  let m = List.length cons in
  let n = 2 * dim in
  let a = Array.make_matrix m n Rat.zero in
  let bval = Array.make m Rat.zero in
  List.iteri
    (fun i (row, rhs) ->
      bval.(i) <- Rat.of_int rhs;
      Array.iteri
        (fun k v ->
          a.(i).(k) <- Rat.of_int v;
          a.(i).(dim + k) <- Rat.of_int (-v))
        row)
    cons;
  let obj = Array.make n Rat.zero in
  Array.iteri
    (fun k c ->
      obj.(k) <- c;
      obj.(dim + k) <- Rat.neg c)
    objective.Affine.coeffs;
  (* variable ids: 0..n-1 = structural, n..n+m-1 = slacks *)
  { basis = Array.init m (fun i -> n + i);
    nonbasis = Array.init n (fun j -> j);
    a;
    bval;
    obj;
    obj0 = objective.Affine.const }

(* Phase 1: make the dictionary feasible with an auxiliary variable. *)
let make_feasible d =
  let m = Array.length d.bval and n = Array.length d.obj in
  let worst = ref (-1) in
  for i = 0 to m - 1 do
    if
      Rat.sign d.bval.(i) < 0
      && (!worst = -1 || Rat.compare d.bval.(i) d.bval.(!worst) < 0)
    then worst := i
  done;
  if !worst = -1 then true (* already feasible *)
  else begin
    (* auxiliary dictionary: add x0 (id max_int) with column -1
       everywhere; objective becomes -x0 *)
    let aux_col = n in
    let a' = Array.map (fun row -> Array.append row [| Rat.minus_one |]) d.a in
    let obj' = Array.append (Array.map (fun _ -> Rat.zero) d.obj) [| Rat.minus_one |] in
    let d' =
      { basis = Array.copy d.basis;
        nonbasis = Array.append (Array.copy d.nonbasis) [| max_int |];
        a = a';
        bval = Array.copy d.bval;
        obj = obj';
        obj0 = Rat.zero }
    in
    pivot d' ~row:!worst ~col:aux_col;
    (match optimize d' with `Optimal | `Unbounded -> ());
    if not (Rat.is_zero d'.obj0) then false (* optimum of -x0 below 0 *)
    else begin
      (* if x0 is still basic (degenerate), pivot it out *)
      (match
         Array.to_seq d'.basis
         |> Seq.mapi (fun i v -> (i, v))
         |> Seq.find (fun (_, v) -> v = max_int)
       with
      | Some (row, _) ->
          let col = ref (-1) in
          Array.iteri
            (fun j _ ->
              if !col = -1 && d'.nonbasis.(j) <> max_int
                 && not (Rat.is_zero d'.a.(row).(j))
              then col := j)
            d'.nonbasis;
          if !col >= 0 then pivot d' ~row ~col:!col
      | None -> ());
      (* copy back, dropping x0's column *)
      let keep = ref [] in
      Array.iteri
        (fun j v -> if v <> max_int then keep := (j, v) :: !keep)
        d'.nonbasis;
      let keep = Array.of_list (List.rev !keep) in
      Array.iteri (fun jj (j, v) ->
          d.nonbasis.(jj) <- v;
          Array.iteri (fun i _ -> d.a.(i).(jj) <- d'.a.(i).(j)) d.bval)
        keep;
      Array.blit d'.basis 0 d.basis 0 (Array.length d.basis);
      Array.blit d'.bval 0 d.bval 0 (Array.length d.bval);
      (* the objective is now stale: callers rebuild it over the new
         nonbasis with [set_objective] *)
      true
    end
  end

(* Express an objective (over variable ids) in the current dictionary. *)
let set_objective d (coef_of_var : int -> Rat.t) const =
  let m = Array.length d.bval and n = Array.length d.obj in
  Array.fill d.obj 0 n Rat.zero;
  d.obj0 <- const;
  (* nonbasic structural variables contribute directly *)
  Array.iteri
    (fun j v ->
      let c = coef_of_var v in
      if not (Rat.is_zero c) then d.obj.(j) <- Rat.add d.obj.(j) c)
    d.nonbasis;
  (* basic ones substitute their row *)
  for i = 0 to m - 1 do
    let c = coef_of_var d.basis.(i) in
    if not (Rat.is_zero c) then begin
      d.obj0 <- Rat.add d.obj0 (Rat.mul c d.bval.(i));
      for j = 0 to n - 1 do
        d.obj.(j) <- Rat.sub d.obj.(j) (Rat.mul c d.a.(i).(j))
      done
    end
  done

let maximize p objective =
  let dim = p.dim in
  let d = build p objective in
  if not (make_feasible d) then Infeasible
  else begin
    let coef_of_var v =
      if v < dim then objective.Affine.coeffs.(v)
      else if v < 2 * dim then Rat.neg objective.Affine.coeffs.(v - dim)
      else Rat.zero
    in
    set_objective d coef_of_var objective.Affine.const;
    match optimize d with `Optimal -> Opt d.obj0 | `Unbounded -> Unbounded
  end

let minimize p objective =
  match maximize p (Affine.neg objective) with
  | Opt v -> Opt (Rat.neg v)
  | (Unbounded | Infeasible) as r -> r

let feasible p =
  match maximize p (Affine.const ~dim:p.dim Rat.zero) with
  | Opt _ | Unbounded -> true
  | Infeasible -> false

let is_empty t =
  let p = simplify t in
  if p.cons = [] then false
  else if p.dim > fm_dim_limit then not (feasible p)
  else
    let q = eliminate p (List.init p.dim Fun.id) in
    (* after eliminating everything, only constant constraints remain and
       simplify collapses contradictions into the canonical empty set *)
    List.exists
      (fun (c : Constr.t) -> Pp_util.Vecint.is_zero c.v && c.c < 0)
      q.cons

let is_universe t = (simplify t).cons = []

(* FM-based exact optimisation, affordable in low dimension. *)
let fm_bounds t (a : Affine.t) =
  assert (Affine.dim a = t.dim);
  let n = t.dim + 1 in
  let ext (c : Constr.t) =
    let v = Array.make n 0 in
    Array.blit c.v 0 v 0 t.dim;
    Constr.make c.kind v c.c
  in
  let obj =
    (* t - expr = 0 where t is dim index t.dim *)
    let e = Affine.extend a n in
    let tvar = Affine.var ~dim:n t.dim in
    Constr.of_affine Eq (Affine.sub tvar e)
  in
  let p = make n (obj :: List.map ext t.cons) in
  let q = eliminate p (List.init t.dim Fun.id) in
  let lo = ref None and hi = ref None in
  List.iter
    (fun (c : Constr.t) ->
      let coef = c.v.(t.dim) in
      let push_lo b = match !lo with None -> lo := Some b | Some x -> lo := Some (Rat.max x b) in
      let push_hi b = match !hi with None -> hi := Some b | Some x -> hi := Some (Rat.min x b) in
      if coef > 0 then
        (* coef*t + c >= 0  =>  t >= -c/coef *)
        push_lo (Rat.make (-c.c) coef)
      else if coef < 0 then push_hi (Rat.make (-c.c) coef)
      else ();
      if c.kind = Constr.Eq && coef <> 0 then begin
        push_lo (Rat.make (-c.c) coef);
        push_hi (Rat.make (-c.c) coef)
      end)
    q.cons;
  (!lo, !hi)

let lp_bounds t a =
  let side = function Opt v -> Some v | Unbounded | Infeasible -> None in
  match minimize t a with
  | Infeasible -> (None, None)
  | lo -> (side lo, side (maximize t a))

let bounds t (a : Affine.t) =
  if Affine.is_constant a then (Some a.Affine.const, Some a.Affine.const)
  else if t.dim <= fm_dim_limit then fm_bounds t a
  else lp_bounds t a

let dim_bounds t k = bounds t (Affine.var ~dim:t.dim k)

let entails t (c : Constr.t) =
  if is_empty t then true
  else
    let lo, hi = bounds t (Constr.affine c) in
    match c.kind with
    | Constr.Ge -> ( match lo with Some l -> Rat.sign l >= 0 | None -> false)
    | Constr.Eq -> (
        match (lo, hi) with
        | Some l, Some h -> Rat.is_zero l && Rat.is_zero h
        | _ -> false)

let is_subset a b =
  assert (a.dim = b.dim);
  is_empty a || List.for_all (entails a) b.cons

let equal_set a b = is_subset a b && is_subset b a

(* Substitute x_k := value in all constraints. *)
let fix_dim t k value =
  let fix (c : Constr.t) =
    let v = Array.copy c.v in
    let add = v.(k) * value in
    v.(k) <- 0;
    Constr.make c.kind v (c.c + add)
  in
  simplify { t with cons = List.map fix t.cons }

let sample t =
  let rec go t k acc =
    if k >= t.dim then if mem t (Array.of_list (List.rev acc)) then Some (Array.of_list (List.rev acc)) else None
    else
      match dim_bounds t k with
      | Some lo, Some hi ->
          let lo = Rat.ceil lo and hi = Rat.floor hi in
          let rec try_value v =
            if v > hi then None
            else
              match go (fix_dim t k v) (k + 1) (v :: acc) with
              | Some pt -> Some pt
              | None -> try_value (v + 1)
          in
          try_value lo
      | _ ->
          (* unbounded dimension: try 0 then small values around it *)
          let rec try_values = function
            | [] -> None
            | v :: rest -> (
                match go (fix_dim t k v) (k + 1) (v :: acc) with
                | Some pt -> Some pt
                | None -> try_values rest)
          in
          try_values [ 0; 1; -1; 2; -2 ]
  in
  if is_empty t then None else go t 0 []

let integer_points ?(max_points = 1_000_000) t =
  let out = ref [] in
  let n = ref 0 in
  let rec go t k acc =
    if k >= t.dim then begin
      incr n;
      if !n > max_points then failwith "Polyhedron.integer_points: too many points";
      out := Array.of_list (List.rev acc) :: !out
    end
    else
      match dim_bounds t k with
      | Some lo, Some hi ->
          let lo = Rat.ceil lo and hi = Rat.floor hi in
          for v = lo to hi do
            let t' = fix_dim t k v in
            if not (is_empty t') then go t' (k + 1) (v :: acc)
          done
      | _ -> failwith "Polyhedron.integer_points: unbounded polyhedron"
  in
  if not (is_empty t) then go t 0 [];
  List.rev !out

let count ?max_points t = List.length (integer_points ?max_points t)

let translate t v =
  assert (Array.length v = t.dim);
  let shift (c : Constr.t) =
    (* c holds on x iff shifted holds on x + v: v.(x+v)+c >= 0 becomes
       coeffs unchanged, constant c - coeffs.v *)
    Constr.make c.kind c.v (c.c - Pp_util.Vecint.dot c.v v)
  in
  { t with cons = List.map shift t.cons }

let pp ?names fmt t =
  if t.cons = [] then Format.fprintf fmt "{ universe(%d) }" t.dim
  else begin
    Format.fprintf fmt "{ ";
    List.iteri
      (fun i c ->
        if i > 0 then Format.fprintf fmt " and ";
        Constr.pp ?names fmt c)
      t.cons;
    Format.fprintf fmt " }"
  end

let to_string ?names t = Format.asprintf "%a" (pp ?names) t
