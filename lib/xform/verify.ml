(* The differential verifier.

   Three independent oracles over a transformed program:

   - [observable_equiv]: run original and transformed in the MiniVM and
     compare the final memory images cell by cell (integers exactly,
     floats up to a relative tolerance, since reassociation of
     reductions is part of what the schedule claims is allowed).

   - [dynamic_legality]: on the *re-profiled* transformed program,
     re-fold the DDG and check that every exact dependence piece is
     lexicographically non-negative under the new loop order — i.e. no
     dependence was reversed.  This is stronger than per-dimension
     direction vectors: the check is per piece and polyhedral
     (emptiness of dom /\ {src_j = dst_j | j < d} /\ {src_d > dst_d}),
     so correlations between dimensions that the direction-vector
     abstraction loses cannot cause false alarms.

   - profitability is checked by the driver: the stride-0/1 profile of
     the transformed nest must move the way [Sched.Transform]
     predicted. *)

module A = Minisl.Affine
module P = Minisl.Polyhedron
module C = Minisl.Constr
module Rat = Pp_util.Rat

(* ------------------------------------------------------------------ *)
(* Observable equivalence                                              *)
(* ------------------------------------------------------------------ *)

type cell_diff = {
  cd_where : string;  (* "array[index]" or a raw address *)
  cd_orig : Vm.Event.value option;
  cd_xform : Vm.Event.value option;
}

type equiv = {
  eq_ok : bool;
  eq_cells : int;  (* addresses compared *)
  eq_n_diffs : int;
  eq_diffs : cell_diff list;  (* first few, for reporting *)
  eq_max_rel_err : float;  (* over float cells *)
}

let value_eq ~eps a b =
  match (a, b) with
  | Vm.Event.I x, Vm.Event.I y -> if x = y then Ok 0.0 else Error ()
  | Vm.Event.F x, Vm.Event.F y ->
      if x = y then Ok 0.0
      else
        let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
        let rel = Float.abs (x -. y) /. scale in
        if rel <= eps then Ok rel else Error ()
  | Vm.Event.I _, Vm.Event.F _ | Vm.Event.F _, Vm.Event.I _ -> Error ()

let describe_addr (prog : Vm.Prog.t) addr =
  match
    List.find_opt
      (fun (_, base, size) -> addr >= base && addr < base + size)
      prog.Vm.Prog.globals
  with
  | Some (name, base, _) -> Printf.sprintf "%s[%d]" name (addr - base)
  | None -> Printf.sprintf "@%d" addr

let observable_equiv ?(eps = 1e-9) ?max_steps (orig : Vm.Prog.t)
    (xform : Vm.Prog.t) =
  let _, mem_o = Vm.Interp.run_dump ?max_steps orig in
  let _, mem_x = Vm.Interp.run_dump ?max_steps xform in
  (* every address either run touched; untouched cells read as I 0 *)
  let addrs = Hashtbl.create (Hashtbl.length mem_o) in
  Hashtbl.iter (fun a _ -> Hashtbl.replace addrs a ()) mem_o;
  Hashtbl.iter (fun a _ -> Hashtbl.replace addrs a ()) mem_x;
  let cells = ref 0 in
  let n_diffs = ref 0 in
  let diffs = ref [] in
  let max_rel = ref 0.0 in
  Hashtbl.iter
    (fun addr () ->
      incr cells;
      let vo =
        match Hashtbl.find_opt mem_o addr with
        | Some v -> v
        | None -> Vm.Event.I 0
      in
      let vx =
        match Hashtbl.find_opt mem_x addr with
        | Some v -> v
        | None -> Vm.Event.I 0
      in
      match value_eq ~eps vo vx with
      | Ok rel -> if rel > !max_rel then max_rel := rel
      | Error () ->
          incr n_diffs;
          if List.length !diffs < 8 then
            diffs :=
              { cd_where = describe_addr orig addr;
                cd_orig = Some vo;
                cd_xform = Some vx }
              :: !diffs)
    addrs;
  { eq_ok = !n_diffs = 0;
    eq_cells = !cells;
    eq_n_diffs = !n_diffs;
    eq_diffs = List.rev !diffs;
    eq_max_rel_err = !max_rel }

let pp_value fmt = function
  | Some (Vm.Event.I n) -> Format.fprintf fmt "%d" n
  | Some (Vm.Event.F x) -> Format.fprintf fmt "%.17g" x
  | None -> Format.pp_print_string fmt "_"

let pp_equiv fmt e =
  if e.eq_ok then
    Format.fprintf fmt
      "equivalent: %d memory cells match (max float rel.err %.2e)" e.eq_cells
      e.eq_max_rel_err
  else begin
    Format.fprintf fmt "NOT equivalent: %d of %d cells differ" e.eq_n_diffs
      e.eq_cells;
    List.iter
      (fun d ->
        Format.fprintf fmt "@\n  %s: %a vs %a" d.cd_where pp_value d.cd_orig
          pp_value d.cd_xform)
      e.eq_diffs
  end

(* ------------------------------------------------------------------ *)
(* Dynamic legality of the re-folded DDG                               *)
(* ------------------------------------------------------------------ *)

type violation = {
  vl_dep : Ddg.Depprof.dep_key;
  vl_dim : int;  (* 1-based dimension carrying the reversal *)
}

type legality = {
  dl_ok : bool;
  dl_deps : int;  (* dependences examined *)
  dl_pieces : int;  (* exact pieces checked polyhedrally *)
  dl_approx : int;  (* pieces skipped as approximate (warning, not failure) *)
  dl_violations : violation list;
}

(* Does the (exact) piece contain a point whose source iteration comes
   lexicographically *after* its destination on the first [common]
   dims?  The domain ranges over destination coordinates; labels give
   the source coordinates as affine functions of them. *)
let piece_reversed_dim (p : Fold.piece) common =
  let n = P.dim p.Fold.dom in
  let exception Approx in
  try
    let rec go d poly =
      if d >= common then None
      else
        match if d < Array.length p.Fold.labels then p.Fold.labels.(d) else None with
        | None -> raise Approx
        | Some src_d ->
            let dst_d = A.var ~dim:n d in
            (* src_d - dst_d - 1 >= 0 : the source runs after the dest *)
            let viol =
              P.add_constraint poly
                (C.of_affine C.Ge
                   (A.sub (A.sub src_d dst_d) (A.const ~dim:n Rat.one)))
            in
            if not (P.is_empty viol) then Some (d + 1)
            else
              (* continue under src_d = dst_d *)
              go (d + 1)
                (P.add_constraint poly
                   (C.of_affine C.Eq (A.sub src_d dst_d)))
    in
    Ok (go 0 p.Fold.dom)
  with Approx -> Error `Approx

(* Check every dependence of a (re-)analysis: under the program's loop
   order, no exact piece may contain a reversed pair.  Approximate
   pieces (missing labels, over-approximated domains) are counted and
   skipped — they cannot *witness* a reversal. *)
let dynamic_legality (t : Sched.Depanalysis.t) =
  let deps = ref 0 in
  let pieces = ref 0 in
  let approx = ref 0 in
  let violations = ref [] in
  List.iter
    (fun (d : Sched.Depanalysis.dep_ext) ->
      if d.common > 0 then begin
        incr deps;
        List.iter
          (fun (p : Fold.piece) ->
            if not p.Fold.exact then incr approx
            else
              match piece_reversed_dim p d.common with
              | Error `Approx -> incr approx
              | Ok None -> incr pieces
              | Ok (Some dim) ->
                  incr pieces;
                  violations :=
                    { vl_dep = d.di.Ddg.Depprof.dk; vl_dim = dim }
                    :: !violations)
          d.di.Ddg.Depprof.d_pieces
      end)
    t.Sched.Depanalysis.deps;
  { dl_ok = !violations = [];
    dl_deps = !deps;
    dl_pieces = !pieces;
    dl_approx = !approx;
    dl_violations = List.rev !violations }

let pp_legality fmt l =
  if l.dl_ok then
    Format.fprintf fmt
      "legal: %d dependences, %d exact pieces lexicographically non-negative%s"
      l.dl_deps l.dl_pieces
      (if l.dl_approx > 0 then
         Printf.sprintf " (%d approximate pieces skipped)" l.dl_approx
       else "")
  else
    Format.fprintf fmt "ILLEGAL: %d reversed dependence piece(s), first at dim %d"
      (List.length l.dl_violations)
      (match l.dl_violations with v :: _ -> v.vl_dim | [] -> 0)
