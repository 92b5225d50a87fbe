module Rat = Pp_util.Rat

let box_of_bounds lo hi =
  let dim = Array.length lo in
  let cons = ref [] in
  for k = 0 to dim - 1 do
    let up = Array.make dim 0 and dn = Array.make dim 0 in
    up.(k) <- 1;
    dn.(k) <- -1;
    cons := Constr.make Ge up (-lo.(k)) :: Constr.make Ge dn hi.(k) :: !cons
  done;
  Polyhedron.make dim !cons

let box_of_points = function
  | [] -> invalid_arg "Hull.box_of_points: empty"
  | p0 :: rest ->
      let lo = Array.copy p0 and hi = Array.copy p0 in
      List.iter
        (fun p ->
          Array.iteri
            (fun k v ->
              if v < lo.(k) then lo.(k) <- v;
              if v > hi.(k) then hi.(k) <- v)
            p)
        rest;
      box_of_bounds lo hi

let box_of_polyhedra dim ps =
  let cons = ref [] in
  for k = 0 to dim - 1 do
    let lo =
      List.fold_left
        (fun acc p ->
          match (acc, fst (Polyhedron.dim_bounds p k)) with
          | Some a, Some b -> Some (Rat.min a b)
          | _ -> None)
        (match ps with
        | [] -> None
        | p :: _ -> fst (Polyhedron.dim_bounds p k))
        (match ps with [] -> [] | _ :: r -> r)
    in
    let hi =
      List.fold_left
        (fun acc p ->
          match (acc, snd (Polyhedron.dim_bounds p k)) with
          | Some a, Some b -> Some (Rat.max a b)
          | _ -> None)
        (match ps with
        | [] -> None
        | p :: _ -> snd (Polyhedron.dim_bounds p k))
        (match ps with [] -> [] | _ :: r -> r)
    in
    let up = Array.make dim 0 and dn = Array.make dim 0 in
    up.(k) <- 1;
    dn.(k) <- -1;
    (match lo with
    | Some l -> cons := Constr.make Ge up (-Rat.ceil l) :: !cons
    | None -> ());
    match hi with
    | Some h -> cons := Constr.make Ge dn (Rat.floor h) :: !cons
    | None -> ()
  done;
  Polyhedron.make dim !cons

let widen_union s =
  if Pset.is_empty s then s
  else
    Pset.singleton (box_of_polyhedra (Pset.dim s) (Pset.disjuncts s))
