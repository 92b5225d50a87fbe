module AC = Affine_class
module L = Cfg.Loopnest
module Dp = Ddg.Depprof
module Dir = Sched.Depanalysis
module P = Minisl.Polyhedron
module Cs = Minisl.Constr
module Af = Minisl.Affine
module Rat = Pp_util.Rat

type reason = R_nonaffine | R_loop | R_cond | R_call | R_range | R_header

let reason_code = function
  | R_nonaffine -> "nonaffine"
  | R_loop -> "loop"
  | R_cond -> "cond"
  | R_call -> "call"
  | R_range -> "range"
  | R_header -> "header"

type resolved = {
  r_sid : Vm.Isa.Sid.t;
  r_store : bool;
  r_fid : int;
  r_region : int;
  r_base : int;
  r_coefs : int array;
  r_bounds : (int * int array) array;
  r_dims : (int * int) array;
  r_sched : int array;
  r_lo : int;
  r_hi : int;
  r_spec : (int * int * int) option;
}

type spec_decision = Spec_always of int | Spec_off

type pair_dep = {
  pd_src : Vm.Isa.Sid.t;
  pd_dst : Vm.Isa.Sid.t;
  pd_kind : Dp.dep_kind;
  pd_common : int;
  pd_possible : bool;
  pd_dirs : Dir.dir array;
  pd_dists : int option array;
  pd_rel : Minisl.Pmap.t option;
}

type t = {
  prog : Vm.Prog.t;
  pta : Points_to.t;
  resolved : (Vm.Isa.Sid.t, resolved) Hashtbl.t;
  unresolved : (Vm.Isa.Sid.t * bool * reason) list;
  prunable : bool array;
  pruned : (Vm.Isa.Sid.t, unit) Hashtbl.t;
  pairs : pair_dep list Lazy.t;
  plan : Dp.static_plan;
  n_accesses : int;
  speculated : ((int * int) * spec_decision) list;
  skip_spec : (Vm.Isa.Sid.t, int * int * int) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Per-function static facts                                           *)
(* ------------------------------------------------------------------ *)

(* dominator bitsets (iterative dataflow over the static CFG) *)
let dominators graph n =
  let words = (n + 62) / 63 in
  let full = Array.make words (-1) in
  let only b =
    let a = Array.make words 0 in
    a.(b / 63) <- 1 lsl (b mod 63);
    a
  in
  let dom = Array.init n (fun b -> if b = 0 then only 0 else Array.copy full) in
  let rpo = Cfg.Digraph.reverse_postorder graph ~root:0 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> 0 && b >= 0 && b < n then begin
          let acc = Array.copy full in
          let seen = ref false in
          List.iter
            (fun p ->
              if p >= 0 && p < n then begin
                seen := true;
                Array.iteri (fun w x -> acc.(w) <- acc.(w) land x) dom.(p)
              end)
            (Cfg.Digraph.preds graph b);
          if not !seen then Array.fill acc 0 words 0;
          let me = only b in
          Array.iteri (fun w x -> acc.(w) <- acc.(w) lor x) me;
          if acc <> dom.(b) then begin
            dom.(b) <- acc;
            changed := true
          end
        end)
      rpo
  done;
  dom

type finfo = {
  fi_fid : int;
  fi_func : Vm.Prog.func;
  fi_fr : AC.func_result;
  fi_graph : Cfg.Digraph.t;
  fi_forest : L.t;
  fi_reach : bool array;
  fi_rpo : int list;
  fi_dom : int array array;
  fi_li : (int, AC.loop_info * L.loop) Hashtbl.t;
  fi_acc : (int, AC.access list) Hashtbl.t;  (* bid -> accesses, idx order *)
  fi_exits : int list;
}

(* [a] dominates [b] *)
let dominates fi a b =
  let n = Array.length fi.fi_dom in
  a >= 0 && a < n && b >= 0 && b < n
  && fi.fi_dom.(b).(a / 63) land (1 lsl (a mod 63)) <> 0

let make_finfo prog frs fid =
  let func = (prog : Vm.Prog.t).funcs.(fid) in
  let fr = frs.(fid) in
  let graph = Insn.static_cfg func in
  let n = Array.length func.blocks in
  let fi_li = Hashtbl.create 8 in
  List.iter
    (fun (li : AC.loop_info) ->
      match L.loop_of_header fr.AC.fr_forest li.AC.li_header with
      | Some l when l.L.loop_id = li.AC.li_id ->
          Hashtbl.replace fi_li li.AC.li_id (li, l)
      | _ -> ())
    fr.AC.fr_loops;
  let fi_acc = Hashtbl.create 16 in
  List.iter
    (fun (a : AC.access) ->
      let bid = Vm.Isa.Sid.bid a.AC.acc_sid in
      Hashtbl.replace fi_acc bid
        (Option.value ~default:[] (Hashtbl.find_opt fi_acc bid) @ [ a ]))
    fr.AC.fr_accesses;
  let fi_exits = ref [] in
  Array.iter
    (fun (b : Vm.Prog.block) ->
      match b.term with
      | Vm.Isa.Ret _ | Vm.Isa.Halt -> fi_exits := b.bid :: !fi_exits
      | _ -> ())
    func.blocks;
  { fi_fid = fid;
    fi_func = func;
    fi_fr = fr;
    fi_graph = graph;
    fi_forest = fr.AC.fr_forest;
    fi_reach = Verify.reachable_blocks func;
    fi_rpo = Cfg.Digraph.reverse_postorder graph ~root:0;
    fi_dom = dominators graph n;
    fi_li;
    fi_acc;
    fi_exits = List.rev !fi_exits }

(* ------------------------------------------------------------------ *)
(* Address expansion over the chain's iteration space                  *)
(* ------------------------------------------------------------------ *)

(* One chain dimension: a modelable loop whose body-execution count is
   an affine function of the enclosing chain coordinates,
   [max 0 (dm_base + dm_coefs . outer)] ([dm_coefs] has one entry per
   strictly-outer dimension; constant-trip boxes have all-zero
   coefficients). *)
type dim = {
  dm_fid : int;
  dm_loop_id : int;
  dm_li : AC.loop_info;
  dm_base : int;
  dm_coefs : int array;
}

let counter_of (li : AC.loop_info) r =
  List.find_map
    (fun (r', entry, step) -> if r' = r then Some (entry, step) else None)
    li.AC.li_counters

(* Expand an affine-class linear expression into [base + coefs . coords]
   over the chain dimensions [dims] (outer first).  Symbols are either
   counters of enclosing chain loops (entry + k*step, entries expanded
   recursively against strictly-outer context) or counters of loops
   already completed at [bid] (header dominates, block outside the
   region): constant [entry + trip*step]. *)
let rec expand fi (l : AC.lin) dims ~bid ~fuel =
  if fuel <= 0 then None
  else begin
    let nd = List.length dims in
    let coefs = Array.make nd 0 in
    let base = ref l.AC.lbase in
    let add_scaled c (b2, c2) =
      base := !base + (c * b2);
      Array.iteri (fun i v -> coefs.(i) <- coefs.(i) + (c * v)) c2
    in
    let dim_index loop_id =
      let rec go i = function
        | [] -> None
        | d :: rest ->
            if d.dm_fid = fi.fi_fid && d.dm_loop_id = loop_id then Some (i, d)
            else go (i + 1) rest
      in
      go 0 dims
    in
    let ok =
      List.for_all
        (fun (sym, c) ->
          match sym with
          | AC.Par _ -> false
          | AC.Ind { loop; ind_reg } -> (
              match dim_index loop with
              | Some (j, d) -> (
                  match counter_of d.dm_li ind_reg with
                  | Some (Some entry, step) -> (
                      match
                        expand fi entry dims
                          ~bid:d.dm_li.AC.li_header ~fuel:(fuel - 1)
                      with
                      | Some bc ->
                          add_scaled c bc;
                          coefs.(j) <- coefs.(j) + (c * step);
                          true
                      | None -> false)
                  | _ -> false)
              | None -> (
                  (* a loop completed before [bid]? the counter then
                     holds its final header-entry value *)
                  match Hashtbl.find_opt fi.fi_li loop with
                  | Some (li, lp) when
                      (not (L.loop_contains lp bid))
                      && dominates fi li.AC.li_header bid -> (
                      match (li.AC.li_trip, counter_of li ind_reg) with
                      | Some trip, Some (Some entry, step) -> (
                          match
                            expand fi entry dims ~bid:li.AC.li_header
                              ~fuel:(fuel - 1)
                          with
                          | Some (b2, c2) ->
                              add_scaled c (b2 + (trip * step), c2);
                              true
                          | None -> false)
                      | _ -> false)
                  | _ -> false)))
        l.AC.lterms
    in
    if ok then Some (!base, coefs) else None
  end

(* ------------------------------------------------------------------ *)
(* Chain construction                                                  *)
(* ------------------------------------------------------------------ *)

type builder = {
  b_prog : Vm.Prog.t;
  b_fis : finfo option array;
  b_frs : AC.func_result array;
  b_pta : Points_to.t;
  b_sites : int array;  (* live static call sites per callee *)
  b_live : bool array;
  b_resolved : (Vm.Isa.Sid.t, resolved) Hashtbl.t;
  b_reason : (Vm.Isa.Sid.t, reason) Hashtbl.t;
  b_speculate : bool;
  b_directions : ((int * int) * spec_decision) list;
      (* (fid, guard) -> decision override, from witness refinement *)
  b_spec_used : (int * int, spec_decision) Hashtbl.t;
      (* decisions materialised during the walk (defaults included) *)
  b_skipspec : (Vm.Isa.Sid.t, int * int * int) Hashtbl.t;
      (* accesses excluded as speculatively never-executed:
         sid -> (fid, guard, block) *)
}

let finfo b fid =
  match b.b_fis.(fid) with
  | Some fi -> fi
  | None ->
      let fi = make_finfo b.b_prog b.b_frs fid in
      b.b_fis.(fid) <- Some fi;
      fi

let set_reason b sid r =
  if not (Hashtbl.mem b.b_reason sid) then Hashtbl.replace b.b_reason sid r

(* mark every access of [fid] (and its transitive callees with memory
   accesses) as unresolvable at this call position *)
let rec taint_func b fid reason ~seen =
  if not (Hashtbl.mem seen fid) then begin
    Hashtbl.replace seen fid ();
    let fi = finfo b fid in
    List.iter
      (fun (a : AC.access) -> set_reason b a.AC.acc_sid reason)
      fi.fi_fr.AC.fr_accesses;
    List.iter
      (fun (cs : AC.call_site) ->
        if
          cs.AC.cs_callee >= 0
          && cs.AC.cs_callee < Array.length b.b_prog.funcs
          && Points_to.func_touched b.b_pta cs.AC.cs_callee <> 0
        then taint_func b cs.AC.cs_callee reason ~seen)
      fi.fi_fr.AC.fr_calls
  end

let taint b fid reason = taint_func b fid reason ~seen:(Hashtbl.create 4)

let taint_block b fi bid reason =
  (match Hashtbl.find_opt fi.fi_acc bid with
  | Some accs -> List.iter (fun (a : AC.access) -> set_reason b a.AC.acc_sid reason) accs
  | None -> ());
  match fi.fi_func.blocks.(bid).term with
  | Vm.Isa.Call { callee; _ }
    when callee >= 0
         && callee < Array.length b.b_prog.funcs
         && Points_to.func_touched b.b_pta callee <> 0 ->
      taint b callee R_call
  | _ -> ()

let unit_vec n i = Array.init n (fun k -> if k = i then 1 else 0)

let bounds_of dims =
  Array.of_list (List.map (fun d -> (d.dm_base, d.dm_coefs)) dims)

(* Iteration-domain constraint rows for [bounds] occupying variable
   positions [offset .. offset + nd - 1] of an [n]-variable polyhedron:
   [x_i >= 0] and [x_i <= trip_i - 1] with
   [trip_i = base_i + coefs_i . (x_offset, .., x_{offset+i-1})] —
   non-rectangular (triangular, trapezoidal) domains are exactly these
   rows with non-zero outer coefficients.  Where the affine trip is <= 0
   the rows are contradictory, matching the runtime clamp at 0. *)
let domain_rows n ~offset (bounds : (int * int array) array) =
  let rows = ref [] in
  Array.iteri
    (fun i (base, coefs) ->
      rows := Cs.make Cs.Ge (unit_vec n (offset + i)) 0 :: !rows;
      let v = Array.make n 0 in
      v.(offset + i) <- -1;
      Array.iteri (fun k c -> v.(offset + k) <- v.(offset + k) + c) coefs;
      rows := Cs.make Cs.Ge v (base - 1) :: !rows)
    bounds;
  !rows

(* exact inclusive address range of [base + coefs . x] over the
   iteration domain, by rational LP (floor/ceil keeps the integer hull
   inside) *)
let addr_range bounds base coefs =
  let nd = Array.length bounds in
  if nd = 0 then Some (base, base)
  else
    let dom = P.make nd (domain_rows nd ~offset:0 bounds) in
    let obj = Af.of_int_coeffs coefs 0 in
    match (P.minimize dom obj, P.maximize dom obj) with
    | P.Opt mn, P.Opt mx ->
        Some (base + Rat.floor mn, base + Rat.ceil mx)
    | P.Infeasible, _ | _, P.Infeasible ->
        (* empty iteration domain: the access never executes *)
        Some (base, base)
    | _ -> None

let resolve_access b fi dims ~bid ?spec (a : AC.access) out =
  match a.AC.acc_addr with
  | AC.Lin l -> (
      match expand fi l dims ~bid ~fuel:16 with
      | Some (base, coefs) -> (
          let bounds = bounds_of dims in
          match addr_range bounds base coefs with
          | None -> set_reason b a.AC.acc_sid R_range
          | Some (lo, hi) ->
              let region = Points_to.region_of_addr b.b_pta lo in
              let in_region =
                match Points_to.region_range b.b_pta region with
                | Some (rbase, rsize) -> lo >= rbase && hi < rbase + rsize
                | None -> false
              in
              if in_region then begin
                Hashtbl.replace b.b_resolved a.AC.acc_sid
                  { r_sid = a.AC.acc_sid;
                    r_store = a.AC.acc_store;
                    r_fid = fi.fi_fid;
                    r_region = region;
                    r_base = base;
                    r_coefs = coefs;
                    r_bounds = bounds;
                    r_dims =
                      Array.of_list
                        (List.map
                           (fun d -> (d.dm_fid, d.dm_li.AC.li_header))
                           dims);
                    r_sched = [||];  (* filled by the post-construction walk *)
                    r_lo = lo;
                    r_hi = hi;
                    r_spec = spec };
                out :=
                  Dp.Sacc
                    { Dp.sa_sid = a.AC.acc_sid;
                      sa_store = a.AC.acc_store;
                      sa_base = base;
                      sa_coefs = coefs }
                  :: !out
              end
              else set_reason b a.AC.acc_sid R_range)
      | None -> set_reason b a.AC.acc_sid R_nonaffine)
  | AC.Loaded | AC.Mixed | AC.Opaque -> set_reason b a.AC.acc_sid R_nonaffine

(* every static-CFG successor of a non-header member stays in the loop *)
let exits_only_from_header fi (lp : L.loop) =
  List.for_all
    (fun m ->
      m = lp.L.header
      || List.for_all
           (fun s -> List.mem s lp.L.members)
           (Cfg.Digraph.succs fi.fi_graph m))
    lp.L.members

(* Speculation candidate: [bid] is conditionally executed only because
   of a single data-dependent branch in a triangle/diamond shape — its
   unique predecessor [g] is always executed, branches to [bid] and at
   most one other simple block, and both arms rejoin at [bid]'s unique
   successor.  Returns [(guard, then_succ, else_succ, join)]. *)
let spec_candidate b fi ~always bid =
  if not b.b_speculate then None
  else
    match fi.fi_func.blocks.(bid).term with
    | Vm.Isa.Jump join -> (
        match Cfg.Digraph.preds fi.fi_graph bid with
        | [ g ] when always g -> (
            match fi.fi_func.blocks.(g).term with
            | Vm.Isa.Br (_, bt, be) when bt <> be && (bid = bt || bid = be) ->
                let other = if bid = bt then be else bt in
                let other_ok =
                  other = join
                  || (Cfg.Digraph.preds fi.fi_graph other = [ g ]
                     &&
                     match fi.fi_func.blocks.(other).term with
                     | Vm.Isa.Jump j -> j = join
                     | _ -> false)
                in
                if other_ok then Some (g, bt, be, join) else None
            | _ -> None)
        | _ -> None)
    | _ -> None

(* One decision per guard, shared by both arms and stable across the
   walk: an explicit [directions] override wins, otherwise speculate
   that the first arm carrying accesses always executes. *)
let spec_decision b fi (guard, bt, be, join) =
  let key = (fi.fi_fid, guard) in
  match Hashtbl.find_opt b.b_spec_used key with
  | Some d -> d
  | None ->
      let d =
        match List.assoc_opt key b.b_directions with
        | Some d -> d
        | None -> (
            let sides = List.filter (fun s -> s <> join) [ bt; be ] in
            let with_acc =
              List.filter (fun s -> Hashtbl.mem fi.fi_acc s) sides
            in
            match (with_acc, sides) with
            | s :: _, _ | [], s :: _ -> Spec_always s
            | [], [] -> Spec_off)
      in
      Hashtbl.replace b.b_spec_used key d;
      d

let rec emit_func b fid dims out ~visiting =
  let fi = finfo b fid in
  emit_region b fi dims out ~parent:None ~visiting

and emit_region b fi dims out ~parent ~visiting =
  let anchors =
    match parent with
    | None -> fi.fi_exits
    | Some (_, latch) -> [ latch ]
  in
  let always bid =
    anchors <> [] && List.for_all (fun a -> dominates fi bid a) anchors
  in
  let parent_id = Option.map (fun ((l : L.loop), _) -> l.L.loop_id) parent in
  List.iter
    (fun bid ->
      if bid >= 0 && bid < Array.length fi.fi_reach && fi.fi_reach.(bid) then begin
        let as_child_header =
          match L.loop_of_header fi.fi_forest bid with
          | Some lc when lc.L.parent_id = parent_id -> Some lc
          | _ -> None
        in
        match as_child_header with
        | Some lc -> emit_loop b fi dims out ~always ~visiting lc
        | None ->
            let inn =
              Option.map
                (fun (l : L.loop) -> l.L.loop_id)
                (L.innermost_containing fi.fi_forest bid)
            in
            if inn = parent_id then begin
              let is_parent_header =
                match parent with
                | Some ((l : L.loop), _) -> bid = l.L.header
                | None -> false
              in
              if is_parent_header then
                match Hashtbl.find_opt fi.fi_acc bid with
                | Some accs ->
                    List.iter
                      (fun (a : AC.access) ->
                        set_reason b a.AC.acc_sid R_header)
                      accs
                | None -> ()
              else if always bid then begin
                (match Hashtbl.find_opt fi.fi_acc bid with
                | Some accs ->
                    List.iter
                      (fun a -> resolve_access b fi dims ~bid a out)
                      accs
                | None -> ());
                match fi.fi_func.blocks.(bid).term with
                | Vm.Isa.Call { callee; _ }
                  when callee >= 0 && callee < Array.length b.b_prog.funcs ->
                    emit_call b callee dims out ~visiting
                | _ -> ()
              end
              else begin
                match spec_candidate b fi ~always bid with
                | Some ((guard, _, _, _) as cand) -> (
                    match spec_decision b fi cand with
                    | Spec_always t when t = bid -> (
                        match Hashtbl.find_opt fi.fi_acc bid with
                        | Some accs ->
                            List.iter
                              (fun a ->
                                resolve_access b fi dims ~bid
                                  ~spec:(fi.fi_fid, guard, bid) a out)
                              accs
                        | None -> ())
                    | Spec_always _ -> (
                        (* the arm speculated never to execute: exclude
                           its accesses under an [Expect_skip] witness *)
                        match Hashtbl.find_opt fi.fi_acc bid with
                        | Some accs ->
                            List.iter
                              (fun (a : AC.access) ->
                                set_reason b a.AC.acc_sid R_cond;
                                Hashtbl.replace b.b_skipspec a.AC.acc_sid
                                  (fi.fi_fid, guard, bid))
                              accs
                        | None -> ())
                    | Spec_off -> taint_block b fi bid R_cond)
                | None -> taint_block b fi bid R_cond
              end
            end
      end)
    fi.fi_rpo

and emit_call b callee dims out ~visiting =
  if Points_to.func_touched b.b_pta callee <> 0 then
    if List.mem callee visiting then taint b callee R_call
    else if b.b_sites.(callee) = 1 then
      emit_func b callee dims out ~visiting:(callee :: visiting)
    else taint b callee R_call

and emit_loop b fi dims out ~always ~visiting (lc : L.loop) =
  let header = lc.L.header in
  let info = Hashtbl.find_opt fi.fi_li lc.L.loop_id in
  (* the body-execution count as [base + coefs . outer chain coords]:
     constant boxes and unit-step triangular/trapezoidal nests alike *)
  let trip_affine =
    match info with
    | Some (li, _) -> (
        match li.AC.li_trip_lin with
        | Some tl -> expand fi tl dims ~bid:header ~fuel:16
        | None -> None)
    | None -> None
  in
  let modelable =
    trip_affine <> None
    && List.length lc.L.back_edges = 1
    && exits_only_from_header fi lc
    && always header
  in
  match (modelable, info, trip_affine) with
  | true, Some (li, _), Some (tbase, tcoefs) ->
      let latch = fst (List.hd lc.L.back_edges) in
      let d =
        { dm_fid = fi.fi_fid;
          dm_loop_id = lc.L.loop_id;
          dm_li = li;
          dm_base = tbase;
          dm_coefs = tcoefs }
      in
      let body = ref [] in
      emit_region b fi (dims @ [ d ]) body ~parent:(Some (lc, latch)) ~visiting;
      out :=
        Dp.Sloop { sl_base = tbase; sl_coefs = tcoefs; sl_body = List.rev !body }
        :: !out
  | _ ->
      (* the whole region (including nested loops and calls) falls back
         to dynamic tracking *)
      List.iter
        (fun m ->
          if m >= 0 && m < Array.length fi.fi_reach && fi.fi_reach.(m) then
            taint_block b fi m R_loop)
        lc.L.members

(* fill r_sched from the finished chain *)
let rec assign_sched b ~sched_rev items =
  List.iteri
    (fun i item ->
      match item with
      | Dp.Sacc a -> (
          match Hashtbl.find_opt b.b_resolved a.Dp.sa_sid with
          | Some r ->
              Hashtbl.replace b.b_resolved a.Dp.sa_sid
                { r with
                  r_sched = Array.of_list (List.rev (i :: sched_rev)) }
          | None -> ())
      | Dp.Sloop { sl_body; _ } ->
          assign_sched b ~sched_rev:(i :: sched_rev) sl_body)
    items

(* ------------------------------------------------------------------ *)
(* Dependence polyhedra                                                *)
(* ------------------------------------------------------------------ *)

let common_prefix (s : resolved) (d : resolved) =
  let lim = min (Array.length s.r_coefs) (Array.length d.r_coefs) in
  let rec go i =
    if i < lim && s.r_sched.(i) = d.r_sched.(i) then go (i + 1) else i
  in
  go 0

let pair_dep (s : resolved) (d : resolved) kind =
  let ds = Array.length s.r_coefs and dd = Array.length d.r_coefs in
  let n = ds + dd in
  let c = common_prefix s d in
  let base_cons =
    let doms =
      domain_rows n ~offset:0 s.r_bounds @ domain_rows n ~offset:ds d.r_bounds
    in
    let addr = Array.make n 0 in
    Array.iteri (fun i v -> addr.(i) <- v) s.r_coefs;
    Array.iteri (fun j v -> addr.(ds + j) <- -v) d.r_coefs;
    Cs.make Cs.Eq addr (s.r_base - d.r_base) :: doms
  in
  let eq_dim i =
    let v = Array.make n 0 in
    v.(i) <- 1;
    v.(ds + i) <- -1;
    Cs.make Cs.Eq v 0
  in
  let disjuncts =
    let carried =
      List.init c (fun l ->
          (* carried at common dimension l: equal above, strictly
             earlier at l *)
          let eqs = List.init l eq_dim in
          let lt =
            let v = Array.make n 0 in
            v.(ds + l) <- 1;
            v.(l) <- -1;
            Cs.make Cs.Ge v (-1)
          in
          lt :: eqs)
    in
    let independent =
      if s.r_sched.(c) < d.r_sched.(c) then [ List.init c eq_dim ] else []
    in
    carried @ independent
  in
  let feasible =
    List.filter_map
      (fun extra ->
        let p = P.make n (base_cons @ extra) in
        if P.feasible p then Some p else None)
      disjuncts
  in
  let dirs = Array.make c Dir.Dany in
  let dists = Array.make c None in
  if feasible <> [] then
    for k = 0 to c - 1 do
      let obj =
        Af.of_int_coeffs
          (Array.init n (fun i ->
               if i = ds + k then 1 else if i = k then -1 else 0))
          0
      in
      (* exact LP bounds of each feasible disjunct *)
      let lp_max p a =
        match P.maximize p a with
        | P.Opt r -> Some r
        | P.Unbounded | P.Infeasible -> None
      in
      let lo = ref (Some Rat.zero) and hi = ref (Some Rat.zero) in
      let first = ref true in
      List.iter
        (fun p ->
          let plo = Option.map Rat.neg (lp_max p (Af.neg obj))
          and phi = lp_max p obj in
          if !first then begin
            lo := plo;
            hi := phi;
            first := false
          end
          else begin
            lo :=
              (match (!lo, plo) with
              | Some a, Some b -> Some (Rat.min a b)
              | _ -> None);
            hi :=
              (match (!hi, phi) with
              | Some a, Some b -> Some (Rat.max a b)
              | _ -> None)
          end)
        feasible;
      let sgn = Option.map Rat.sign in
      dirs.(k) <-
        (match (sgn !lo, sgn !hi) with
        | Some 0, Some 0 -> Dir.Dzero
        | Some l, _ when l > 0 -> Dir.Dpos
        | _, Some h when h < 0 -> Dir.Dneg
        | Some 0, _ | Some 1, _ -> Dir.Dnonneg
        | _, Some 0 -> Dir.Dnonpos
        | _ -> Dir.Dany);
      dists.(k) <-
        (match (!lo, !hi) with
        | Some a, Some b when Rat.equal a b && Rat.is_integer a ->
            Some (Rat.to_int_exn a)
        | _ -> None)
    done;
  let rel =
    if
      feasible <> [] && ds <= c
      && Array.for_all Option.is_some (Array.sub dists 0 ds)
    then begin
      let delta = Array.init ds (fun k -> Option.get dists.(k)) in
      let cons = ref (domain_rows dd ~offset:0 d.r_bounds) in
      for k = 0 to ds - 1 do
        (* the producer instance y_k - delta_k must exist: in
           particular it must respect the producer's (possibly outer-
           dependent) trip bound evaluated at the producer coordinates *)
        cons := Cs.make Cs.Ge (unit_vec dd k) (-delta.(k)) :: !cons;
        let sb, sc = s.r_bounds.(k) in
        let v = Array.make dd 0 in
        v.(k) <- -1;
        Array.iteri (fun j cj -> v.(j) <- v.(j) + cj) sc;
        let const = ref (sb - 1 + delta.(k)) in
        Array.iteri (fun j cj -> const := !const - (cj * delta.(j))) sc;
        cons := Cs.make Cs.Ge v !const :: !cons
      done;
      let dom = P.make dd !cons in
      if P.feasible dom then
        let out =
          Array.init ds (fun k ->
              Af.of_int_coeffs (unit_vec dd k) (-delta.(k)))
        in
        Some
          (Minisl.Pmap.make ~in_dim:dd ~out_dim:ds
             [ { Minisl.Pmap.dom; out } ])
      else None
    end
    else None
  in
  { pd_src = s.r_sid;
    pd_dst = d.r_sid;
    pd_kind = kind;
    pd_common = c;
    pd_possible = feasible <> [];
    pd_dirs = dirs;
    pd_dists = dists;
    pd_rel = rel }

(* Static dependence summaries of every (store, access) pair of
   resolved accesses sharing a region, sorted by (source, destination,
   kind). *)
let pairs_of resolved =
  Obs.Span.with_ ~cat:"analysis" "analysis.statdep.pairs" @@ fun () ->
  let by_region = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (r : resolved) ->
      if r.r_region > 0 then
        Hashtbl.replace by_region r.r_region
          (r :: Option.value ~default:[] (Hashtbl.find_opt by_region r.r_region)))
    resolved;
  let pairs = ref [] in
  Hashtbl.iter
    (fun _ accs ->
      let accs = List.sort (fun a b' -> compare a.r_sid b'.r_sid) accs in
      List.iter
        (fun s ->
          if s.r_store then
            List.iter
              (fun d ->
                let kind = if d.r_store then Dp.Out_dep else Dp.Mem_dep in
                pairs := pair_dep s d kind :: !pairs)
              accs)
        accs)
    by_region;
  List.sort
    (fun a b' ->
      compare (a.pd_src, a.pd_dst, a.pd_kind) (b'.pd_src, b'.pd_dst, b'.pd_kind))
    !pairs

(* ------------------------------------------------------------------ *)
(* Whole-program analysis                                              *)
(* ------------------------------------------------------------------ *)

let live_funcs (prog : Vm.Prog.t) (frs : AC.func_result array) =
  let n = Array.length prog.funcs in
  let live = Array.make n false in
  let rec visit fid =
    if fid >= 0 && fid < n && not live.(fid) then begin
      live.(fid) <- true;
      List.iter
        (fun (cs : AC.call_site) -> visit cs.AC.cs_callee)
        frs.(fid).AC.fr_calls
    end
  in
  visit prog.main;
  live

let analyse ?(speculate = false) ?(directions = []) (prog : Vm.Prog.t) =
  Obs.Span.with_ ~cat:"analysis" "analysis.statdep" @@ fun () ->
  let pta = Points_to.analyse prog in
  let frs = AC.analyse_prog prog in
  let live = live_funcs prog frs in
  let n = Array.length prog.funcs in
  let sites = Array.make n 0 in
  Array.iteri
    (fun fid fr ->
      if live.(fid) then
        List.iter
          (fun (cs : AC.call_site) ->
            if cs.AC.cs_callee >= 0 && cs.AC.cs_callee < n then
              sites.(cs.AC.cs_callee) <- sites.(cs.AC.cs_callee) + 1)
          fr.AC.fr_calls)
    frs;
  let b =
    { b_prog = prog;
      b_fis = Array.make n None;
      b_frs = frs;
      b_pta = pta;
      b_sites = sites;
      b_live = live;
      b_resolved = Hashtbl.create 64;
      b_reason = Hashtbl.create 64;
      b_speculate = speculate;
      b_directions = directions;
      b_spec_used = Hashtbl.create 4;
      b_skipspec = Hashtbl.create 4 }
  in
  let out = ref [] in
  emit_func b prog.main [] out ~visiting:[ prog.main ];
  let items = List.rev !out in
  assign_sched b ~sched_rev:[] items;
  (* live reachable accesses; resolution status *)
  let n_accesses = ref 0 in
  let unresolved = ref [] in
  Array.iteri
    (fun fid fr ->
      if b.b_live.(fid) then begin
        let fi = finfo b fid in
        List.iter
          (fun (a : AC.access) ->
            let bid = Vm.Isa.Sid.bid a.AC.acc_sid in
            if bid >= 0 && bid < Array.length fi.fi_reach && fi.fi_reach.(bid)
            then begin
              incr n_accesses;
              if not (Hashtbl.mem b.b_resolved a.AC.acc_sid) then
                unresolved :=
                  ( a.AC.acc_sid,
                    a.AC.acc_store,
                    Option.value ~default:R_cond
                      (Hashtbl.find_opt b.b_reason a.AC.acc_sid) )
                  :: !unresolved
            end)
          fr.AC.fr_accesses
      end)
    frs;
  let unresolved = List.sort compare !unresolved in
  (* prunable regions: every access that may touch the region (per
     points-to) is resolved *)
  let nreg = Points_to.n_regions pta in
  let prunable = Array.make nreg true in
  prunable.(0) <- false;
  List.iter
    (fun (sid, _store, mask) ->
      let fid = Vm.Isa.Sid.fid sid in
      let bid = Vm.Isa.Sid.bid sid in
      let live_acc =
        fid >= 0 && fid < n && b.b_live.(fid)
        &&
        let fi = finfo b fid in
        bid >= 0 && bid < Array.length fi.fi_reach && fi.fi_reach.(bid)
      in
      if
        live_acc
        && not (Hashtbl.mem b.b_resolved sid)
        && not (Hashtbl.mem b.b_skipspec sid)
        (* speculatively never-executed: guarded by an Expect_skip
           witness below instead of blocking prunability *)
      then
        for r = 1 to nreg - 1 do
          if mask land (1 lsl r) <> 0 then prunable.(r) <- false
        done)
    (Points_to.accesses pta);
  let pruned = Hashtbl.create 64 in
  Hashtbl.iter
    (fun sid (r : resolved) ->
      if r.r_region > 0 && r.r_region < nreg && prunable.(r.r_region) then
        Hashtbl.replace pruned sid ())
    b.b_resolved;
  (* the instrumentation-pruning plan: the chain restricted to pruned
     accesses, loops left with empty bodies dropped *)
  let rec filter_items items =
    List.filter_map
      (fun item ->
        match item with
        | Dp.Sacc a -> if Hashtbl.mem pruned a.Dp.sa_sid then Some item else None
        | Dp.Sloop { sl_base; sl_coefs; sl_body } -> (
            match filter_items sl_body with
            | [] -> None
            | body -> Some (Dp.Sloop { sl_base; sl_coefs; sl_body = body })))
      items
  in
  let sp_resolved = Hashtbl.create 64 in
  Hashtbl.iter
    (fun sid (r : resolved) ->
      if Hashtbl.mem pruned sid then
        Hashtbl.replace sp_resolved sid
          { Dp.sa_sid = sid;
            sa_store = r.r_store;
            sa_base = r.r_base;
            sa_coefs = r.r_coefs })
    b.b_resolved;
  (* witnesses: every speculation that is load-bearing for the pruned
     set ships as a runtime probe.  [Expect_taken] when a pruned access
     was resolved under the speculation; [Expect_skip] when an excluded
     arm's accesses may touch a prunable region (unknown masks are
     probed conservatively). *)
  let acc_mask = Hashtbl.create 16 in
  List.iter
    (fun (sid, _store, mask) ->
      let m = Option.value ~default:0 (Hashtbl.find_opt acc_mask sid) in
      Hashtbl.replace acc_mask sid (m lor mask))
    (Points_to.accesses pta);
  let wit = Hashtbl.create 4 in
  Hashtbl.iter
    (fun sid (r : resolved) ->
      if Hashtbl.mem pruned sid then
        match r.r_spec with
        | Some (fid, guard, blk) ->
            Hashtbl.replace wit
              { Dp.w_fid = fid;
                w_guard = guard;
                w_block = blk;
                w_expect = Dp.Expect_taken }
              ()
        | None -> ())
    b.b_resolved;
  Hashtbl.iter
    (fun sid (fid, guard, blk) ->
      let mask = Option.value ~default:0 (Hashtbl.find_opt acc_mask sid) in
      let touches_prunable =
        mask = 0
        ||
        let t = ref false in
        for r = 1 to nreg - 1 do
          if prunable.(r) && mask land (1 lsl r) <> 0 then t := true
        done;
        !t
      in
      if touches_prunable then
        Hashtbl.replace wit
          { Dp.w_fid = fid;
            w_guard = guard;
            w_block = blk;
            w_expect = Dp.Expect_skip }
          ())
    b.b_skipspec;
  let sp_witnesses =
    List.sort compare (Hashtbl.fold (fun w () acc -> w :: acc) wit [])
  in
  let plan =
    { Dp.sp_items = filter_items items;
      sp_resolved;
      sp_witnesses;
      sp_mem_size = prog.mem_size }
  in
  (* the pairs thunk holds the resolved table only: capturing [b] would
     keep its per-function state live through the profile *)
  let resolved = b.b_resolved in
  { prog;
    pta;
    resolved;
    unresolved;
    prunable;
    pruned;
    pairs = lazy (pairs_of resolved);
    plan;
    n_accesses = !n_accesses;
    speculated =
      List.sort compare
        (Hashtbl.fold (fun k d acc -> (k, d) :: acc) b.b_spec_used []);
    skip_spec = b.b_skipspec }

(* ------------------------------------------------------------------ *)
(* Witness refinement and hybrid fallback                              *)
(* ------------------------------------------------------------------ *)

let refine t ~directions (outcomes : Dp.witness_outcome list) =
  let dirs = ref directions in
  List.iter
    (fun (o : Dp.witness_outcome) ->
      if o.Dp.wo_misses > 0 then begin
        let w = o.Dp.wo_witness in
        let key = (w.Dp.w_fid, w.Dp.w_guard) in
        let d =
          if o.Dp.wo_hits > 0 || List.mem_assoc key directions then
            (* branch goes both ways (or a flipped speculation failed
               again): give up on this guard *)
            Spec_off
          else
            (* monotone miss: the branch is one-sided, just not the
               side we guessed — flip deterministically *)
            match t.prog.funcs.(w.Dp.w_fid).blocks.(w.Dp.w_guard).term with
            | Vm.Isa.Br (_, bt, be) -> (
                match w.Dp.w_expect with
                | Dp.Expect_taken ->
                    Spec_always (if w.Dp.w_block = bt then be else bt)
                | Dp.Expect_skip -> Spec_always w.Dp.w_block)
            | _ -> Spec_off
        in
        dirs := (key, d) :: List.remove_assoc key !dirs
      end)
    outcomes;
  List.sort compare !dirs

let fallback_profile ?(speculate = true) prog ~profile =
  let rec go directions reruns =
    let t = analyse ~speculate ~directions prog in
    match profile t.plan with
    | r -> (t, r, reruns)
    | exception Dp.Witness_failure outcomes ->
        if reruns >= 4 then begin
          (* refinement did not converge: demote everything speculative
             to full shadow tracking *)
          let t = analyse ~speculate:false prog in
          (t, profile t.plan, reruns + 1)
        end
        else go (refine t ~directions outcomes) (reruns + 1)
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* Queries and pretty-printing                                         *)
(* ------------------------------------------------------------------ *)

let pair_of t ~src ~dst kind =
  List.find_opt
    (fun p -> p.pd_src = src && p.pd_dst = dst && p.pd_kind = kind)
    (Lazy.force t.pairs)

let n_resolved t = Hashtbl.length t.resolved
let n_pruned t = Hashtbl.length t.pruned

let prunable_regions t =
  let names = ref [] in
  Array.iteri
    (fun r p -> if p then names := Points_to.region_name t.pta r :: !names)
    t.prunable;
  List.rev !names

let pp fmt t =
  Format.fprintf fmt
    "@[<v>static dependence engine: %d/%d accesses resolved, %d prunable \
     (regions: %s)@,"
    (n_resolved t) t.n_accesses (n_pruned t)
    (match prunable_regions t with
    | [] -> "none"
    | rs -> String.concat ", " rs);
  Hashtbl.fold (fun _ r acc -> r :: acc) t.resolved []
  |> List.sort (fun a b -> compare a.r_sid b.r_sid)
  |> List.iter (fun r ->
         Format.fprintf fmt "  %s %a: %s[%d..%d]%s@,"
           (if r.r_store then "store" else "load")
           Vm.Isa.Sid.pp r.r_sid
           (Points_to.region_name t.pta r.r_region)
           r.r_lo r.r_hi
           (if Hashtbl.mem t.pruned r.r_sid then " (pruned)" else ""));
  List.iter
    (fun (sid, store, reason) ->
      Format.fprintf fmt "  %s %a: dynamic (%s)@,"
        (if store then "store" else "load")
        Vm.Isa.Sid.pp sid (reason_code reason))
    t.unresolved;
  List.iter
    (fun p ->
      if p.pd_possible then begin
        Format.fprintf fmt "  dep %a -> %a [%s] dirs ("
          Vm.Isa.Sid.pp p.pd_src Vm.Isa.Sid.pp p.pd_dst
          (match p.pd_kind with
          | Dp.Mem_dep -> "flow"
          | Dp.Out_dep -> "out"
          | Dp.Reg_dep -> "reg");
        Array.iteri
          (fun i d ->
            if i > 0 then Format.pp_print_string fmt ", ";
            Dir.pp_dir fmt d)
          p.pd_dirs;
        Format.fprintf fmt ")@,"
      end)
    (Lazy.force t.pairs);
  Format.fprintf fmt "@]"
