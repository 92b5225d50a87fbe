module AC = Affine_class
module L = Cfg.Loopnest
module P = Minisl.Polyhedron
module Cs = Minisl.Constr
module Af = Minisl.Affine
module Rat = Pp_util.Rat
module Sd = Statdep

type witness = {
  w_src : Vm.Isa.Sid.t;
  w_dst : Vm.Isa.Sid.t;
  w_ww : bool;
  w_region : int;
  w_src_iv : int array option;
  w_dst_iv : int array option;
  w_addr : int option;
}

type certificate = {
  ct_level : int;
  ct_pairs : int;
  ct_private : int list;
  ct_reductions : Vm.Isa.Sid.t list;
}

type verdict =
  | Certified of certificate
  | Race of witness list
  | Unknown of string

type dim_report = {
  dr_fid : int;
  dr_header : int;
  dr_loc : Vm.Prog.loc option;
  dr_depth : int;
  dr_verdict : verdict;
}

type t = { pc_sd : Sd.t; pc_dims : dim_report list }

let unit_vec n i = Array.init n (fun k -> if k = i then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Register def/use accounting (scalar privatisation via liveness)     *)
(* ------------------------------------------------------------------ *)

(* whole-function use count of a register (reachability-insensitive:
   over-counting only makes the reduction recognizer more conservative) *)
let func_use_count (f : Vm.Prog.func) r =
  Array.fold_left
    (fun acc (b : Vm.Prog.block) ->
      let acc =
        Array.fold_left
          (fun acc i ->
            acc + List.length (List.filter (( = ) r) (Vm.Isa.reads i)))
          acc b.instrs
      in
      acc + List.length (List.filter (( = ) r) (Vm.Isa.term_reads b.term)))
    0 f.blocks

let func_def_count (f : Vm.Prog.func) r =
  Array.fold_left
    (fun acc (b : Vm.Prog.block) ->
      let acc =
        Array.fold_left
          (fun acc i -> if Vm.Isa.def_reg i = r then acc + 1 else acc)
          acc b.instrs
      in
      if Vm.Isa.term_def b.term = r then acc + 1 else acc)
    0 f.blocks

(* ------------------------------------------------------------------ *)
(* Reduction recognition                                               *)
(* ------------------------------------------------------------------ *)

(* [Some tag] when [op] combines commutatively/associatively enough to
   reorder iterations; [`Left] ops only qualify with the loaded value
   as first operand (running difference = sum of negated terms). *)
let bin_tag = function
  | Vm.Isa.Add -> Some ("add", `Any)
  | Vm.Isa.Sub -> Some ("add", `Left)
  | Vm.Isa.Mul -> Some ("mul", `Any)
  | Vm.Isa.And -> Some ("and", `Any)
  | Vm.Isa.Or -> Some ("or", `Any)
  | Vm.Isa.Xor -> Some ("xor", `Any)
  | Vm.Isa.Div | Vm.Isa.Rem | Vm.Isa.Shl | Vm.Isa.Shr -> None

let fbin_tag = function
  | Vm.Isa.Fadd -> Some ("fadd", `Any)
  | Vm.Isa.Fsub -> Some ("fadd", `Left)
  | Vm.Isa.Fmul -> Some ("fmul", `Any)
  | Vm.Isa.Fdiv -> None

type chain = {
  ch_load : Sd.resolved;
  ch_store : Sd.resolved;
  ch_tag : string;  (** operator class; chains on a region must agree *)
}

(* A commutative read-modify-write chain rooted at resolved store [s]:
   a same-block earlier resolved load of the identical address
   function, combined by exactly one qualifying [Bin]/[Fbin] whose
   result feeds only the store and whose loaded input has no other
   use. *)
let chain_of (prog : Vm.Prog.t) under (s : Sd.resolved) =
  let fid = Vm.Isa.Sid.fid s.Sd.r_sid and bid = Vm.Isa.Sid.bid s.Sd.r_sid in
  let f = prog.funcs.(fid) in
  if bid < 0 || bid >= Array.length f.blocks then None
  else
    let blk = f.blocks.(bid) in
    let sidx = Vm.Isa.Sid.idx s.Sd.r_sid in
    if sidx < 0 || sidx >= Array.length blk.instrs then None
    else
      match blk.instrs.(sidx) with
      | Vm.Isa.Store (_, Vm.Isa.Reg rv) ->
          let candidates =
            List.filter
              (fun (l : Sd.resolved) ->
                (not l.Sd.r_store)
                && Vm.Isa.Sid.fid l.Sd.r_sid = fid
                && Vm.Isa.Sid.bid l.Sd.r_sid = bid
                && Vm.Isa.Sid.idx l.Sd.r_sid < sidx
                && l.Sd.r_region = s.Sd.r_region
                && l.Sd.r_base = s.Sd.r_base
                && l.Sd.r_coefs = s.Sd.r_coefs)
              under
          in
          let def_of rv =
            let found = ref None in
            Array.iteri
              (fun i ins ->
                if Vm.Isa.def_reg ins = rv then found := Some (i, ins))
              blk.instrs;
            !found
          in
          (* HIR [Let] lowers as [op t; Mov v, t]: follow single-use /
             single-def same-block copies so the recognizer sees through
             the variable slots on both sides of the combiner *)
          let rec root_def rv fuel =
            if fuel = 0 || func_def_count f rv <> 1 then None
            else
              match def_of rv with
              | Some (_, Vm.Isa.Mov (_, Vm.Isa.Reg rs))
                when func_use_count f rs = 1 ->
                  root_def rs (fuel - 1)
              | d -> d
          in
          let copy_of rl lidx =
            let res = ref (rl, lidx) in
            Array.iteri
              (fun i ins ->
                match ins with
                | Vm.Isa.Mov (rm, Vm.Isa.Reg r)
                  when r = rl && i > lidx && i < sidx
                       && func_use_count f rl = 1
                       && func_def_count f rm = 1 ->
                    res := (rm, i)
                | _ -> ())
              blk.instrs;
            !res
          in
          List.find_map
            (fun (l : Sd.resolved) ->
              let lidx = Vm.Isa.Sid.idx l.Sd.r_sid in
              match blk.instrs.(lidx) with
              | Vm.Isa.Load (rl0, _) when func_use_count f rv = 1 -> (
                  let rl, lidx' = copy_of rl0 lidx in
                  if func_use_count f rl <> 1 then None
                  else
                    match root_def rv 4 with
                    | Some (di, ins) when di > lidx' && di < sidx -> (
                        let tag_pos =
                          match ins with
                          | Vm.Isa.Bin (op, _, a, b') -> (
                              match bin_tag op with
                              | Some (tag, side) ->
                                  Some
                                    (tag, side, a = Vm.Isa.Reg rl,
                                     b' = Vm.Isa.Reg rl)
                              | None -> None)
                          | Vm.Isa.Fbin (op, _, a, b') -> (
                              match fbin_tag op with
                              | Some (tag, side) ->
                                  Some
                                    (tag, side, a = Vm.Isa.Reg rl,
                                     b' = Vm.Isa.Reg rl)
                              | None -> None)
                          | _ -> None
                        in
                        match tag_pos with
                        | Some (tag, side, on_left, on_right)
                          when (on_left || on_right)
                               && (side = `Any || (side = `Left && on_left))
                               && not (on_left && on_right) ->
                            Some { ch_load = l; ch_store = s; ch_tag = tag }
                        | _ -> None)
                    | _ -> None)
              | _ -> None)
            candidates
      | _ -> None

(* ------------------------------------------------------------------ *)
(* Privatisation                                                       *)
(* ------------------------------------------------------------------ *)

(* The store's written footprint is a dense (gap-free) address range:
   all inner trips constant and >= 1, and the non-zero strides
   telescope — sorted by magnitude, each stride is at most the length
   already covered. *)
let dense_store k (s : Sd.resolved) =
  let depth = Array.length s.Sd.r_coefs in
  let ok = ref true in
  let strides = ref [] in
  for j = k + 1 to depth - 1 do
    let base, cf = s.Sd.r_bounds.(j) in
    if base < 1 || Array.exists (( <> ) 0) cf then ok := false
    else if s.Sd.r_coefs.(j) <> 0 then
      strides := (abs s.Sd.r_coefs.(j), base) :: !strides
  done;
  !ok
  &&
  let sorted = List.sort compare !strides in
  let len = ref 1 and dense = ref true in
  List.iter
    (fun (c, trip) ->
      if c > !len then dense := false;
      len := !len + (c * (trip - 1)))
    sorted;
  !dense

(* Region [r] is privatisable at level [k]: every access's footprint is
   invariant in the coordinates up to [k], and every read is covered by
   a dense store whose level-[k+1] subtree completes strictly earlier
   in the same iteration. *)
let privatisable k accs_r =
  let invariant (a : Sd.resolved) =
    let depth = Array.length a.Sd.r_coefs in
    let ok = ref true in
    for i = 0 to min k (depth - 1) do
      if a.Sd.r_coefs.(i) <> 0 then ok := false
    done;
    for j = k + 1 to depth - 1 do
      let _, cf = a.Sd.r_bounds.(j) in
      for i = 0 to min k (Array.length cf - 1) do
        if cf.(i) <> 0 then ok := false
      done
    done;
    !ok
  in
  List.for_all invariant accs_r
  && List.for_all
       (fun (d : Sd.resolved) ->
         d.Sd.r_store
         || List.exists
              (fun (s : Sd.resolved) ->
                s.Sd.r_store
                && Array.length s.Sd.r_sched > k + 1
                && Array.length d.Sd.r_sched > k + 1
                && s.Sd.r_sched.(k + 1) < d.Sd.r_sched.(k + 1)
                && dense_store k s
                && d.Sd.r_lo >= s.Sd.r_lo
                && d.Sd.r_hi <= s.Sd.r_hi)
              accs_r)
       accs_r

(* ------------------------------------------------------------------ *)
(* Level-carried dependence polyhedra                                  *)
(* ------------------------------------------------------------------ *)

(* constraints of "an instance of [s] and a strictly-later-at-level-[k]
   instance of [d] (equal outer coordinates) touch the same address" *)
let carried_rows k (s : Sd.resolved) (d : Sd.resolved) =
  let ds = Array.length s.Sd.r_coefs and dd = Array.length d.Sd.r_coefs in
  let n = ds + dd in
  let doms =
    Sd.domain_rows n ~offset:0 s.Sd.r_bounds
    @ Sd.domain_rows n ~offset:ds d.Sd.r_bounds
  in
  let addr = Array.make n 0 in
  Array.iteri (fun i v -> addr.(i) <- v) s.Sd.r_coefs;
  Array.iteri (fun j v -> addr.(ds + j) <- addr.(ds + j) - v) d.Sd.r_coefs;
  let eqs =
    List.init k (fun i ->
        let v = Array.make n 0 in
        v.(i) <- 1;
        v.(ds + i) <- -1;
        Cs.make Cs.Eq v 0)
  in
  let lt =
    let v = Array.make n 0 in
    v.(ds + k) <- 1;
    v.(k) <- -1;
    Cs.make Cs.Ge v (-1)
  in
  (n, (Cs.make Cs.Eq addr (s.Sd.r_base - d.Sd.r_base) :: lt :: eqs) @ doms)

(* progressive coordinate fixing: round each LP minimum up to the first
   integer that stays feasible, yielding a concrete conflicting pair *)
let concrete_point n rows =
  let coords = Array.make n 0 in
  let rec fix rows i =
    if i = n then true
    else
      match P.minimize (P.make n rows) (Af.of_int_coeffs (unit_vec n i) 0) with
      | P.Opt m ->
          let c0 = Rat.ceil m in
          let rec try_c j =
            if j > 3 then false
            else
              let c = c0 + j in
              let rows' = Cs.make Cs.Eq (unit_vec n i) (-c) :: rows in
              if P.feasible (P.make n rows') then begin
                coords.(i) <- c;
                fix rows' (i + 1)
              end
              else try_c (j + 1)
          in
          try_c 0
      | P.Unbounded | P.Infeasible -> false
  in
  if fix rows 0 then Some coords else None

let witness_of k (s : Sd.resolved) (d : Sd.resolved) =
  let ds = Array.length s.Sd.r_coefs in
  let n, rows = carried_rows k s d in
  let src_iv, dst_iv, addr =
    match concrete_point n rows with
    | Some c ->
        let src = Array.sub c 0 ds and dst = Array.sub c ds (n - ds) in
        let a = ref s.Sd.r_base in
        Array.iteri (fun i v -> a := !a + (s.Sd.r_coefs.(i) * v)) src;
        (Some src, Some dst, Some !a)
    | None -> (None, None, None)
  in
  { w_src = s.Sd.r_sid;
    w_dst = d.Sd.r_sid;
    w_ww = s.Sd.r_store && d.Sd.r_store;
    w_region = s.Sd.r_region;
    w_src_iv = src_iv;
    w_dst_iv = dst_iv;
    w_addr = addr }

(* ------------------------------------------------------------------ *)
(* The certifier                                                       *)
(* ------------------------------------------------------------------ *)

(* static blocks executing (possibly) inside the loop: the loop's
   members plus every block of transitively callable functions *)
let inside_blocks (prog : Vm.Prog.t) fid (lp : L.loop) =
  let inside = Hashtbl.create 32 in
  let fn_seen = Hashtbl.create 4 in
  let rec add_func g =
    if g >= 0 && g < Array.length prog.funcs && not (Hashtbl.mem fn_seen g)
    then begin
      Hashtbl.replace fn_seen g ();
      Array.iter
        (fun (b : Vm.Prog.block) ->
          Hashtbl.replace inside (g, b.bid) ();
          match b.term with
          | Vm.Isa.Call { callee; _ } -> add_func callee
          | _ -> ())
        prog.funcs.(g).blocks
    end
  in
  List.iter
    (fun m ->
      Hashtbl.replace inside (fid, m) ();
      let blocks = prog.funcs.(fid).blocks in
      if m >= 0 && m < Array.length blocks then
        match blocks.(m).term with
        | Vm.Isa.Call { callee; _ } -> add_func callee
        | _ -> ())
    lp.L.members;
  inside

let certify (sd : Sd.t) ~fid ~header =
  let prog = sd.Sd.prog in
  if fid < 0 || fid >= Array.length prog.funcs then Unknown "no such function"
  else begin
    (* chain accesses carrying this loop as a coordinate, and its level *)
    let under = ref [] and level = ref None and consistent = ref true in
    Hashtbl.iter
      (fun _ (r : Sd.resolved) ->
        Array.iteri
          (fun k (f, h) ->
            if f = fid && h = header then begin
              (match !level with
              | None -> level := Some k
              | Some k' -> if k' <> k then consistent := false);
              under := r :: !under
            end)
          r.Sd.r_dims)
      sd.Sd.resolved;
    let under =
      List.sort (fun a b -> compare a.Sd.r_sid b.Sd.r_sid) !under
    in
    if not !consistent then Unknown "loop appears at two chain depths"
    else
      match !level with
      | None -> Unknown "loop is not a chain dimension of the static model"
      | Some k -> (
          let func = prog.funcs.(fid) in
          let graph = Insn.static_cfg func in
          let forest = L.compute graph ~entry:0 in
          match L.loop_of_header forest header with
          | None -> Unknown "claimed header does not head a static loop"
          | Some lp -> (
              let inside = inside_blocks prog fid lp in
              let unresolved_inside =
                List.filter
                  (fun (sid, _, _) ->
                    Hashtbl.mem inside (Vm.Isa.Sid.fid sid, Vm.Isa.Sid.bid sid))
                  sd.Sd.unresolved
              in
              let any_store =
                List.exists (fun (r : Sd.resolved) -> r.Sd.r_store) under
                || List.exists (fun (_, st, _) -> st) unresolved_inside
              in
              (* scalar loop-carried values: registers live around the
                 back edge that the loop redefines must be induction
                 counters of this loop *)
              let fr = AC.analyse_func prog fid in
              let counters =
                List.concat_map
                  (fun (li : AC.loop_info) ->
                    if li.AC.li_header = header then
                      List.map (fun (r, _, _) -> r) li.AC.li_counters
                    else [])
                  fr.AC.fr_loops
              in
              let defined = Hashtbl.create 16 in
              List.iter
                (fun m ->
                  if m >= 0 && m < Array.length func.blocks then begin
                    let define r = if r >= 0 then Hashtbl.replace defined r () in
                    Array.iter
                      (fun ins -> define (Vm.Isa.def_reg ins))
                      func.blocks.(m).instrs;
                    define (Vm.Isa.term_def func.blocks.(m).term)
                  end)
                lp.L.members;
              let carried_scalar =
                List.find_opt
                  (fun r ->
                    Hashtbl.mem defined r && not (List.mem r counters))
                  (Liveness.live_in func header)
              in
              match carried_scalar with
              | Some r ->
                  Unknown
                    (Printf.sprintf
                       "loop-carried scalar in r%d (not an induction counter)"
                       r)
              | None ->
                  if unresolved_inside <> [] && any_store then
                    let sid, _, reason = List.hd unresolved_inside in
                    Unknown
                      (Printf.sprintf "unresolved access %s inside the loop (%s)"
                         (Vm.Isa.Sid.to_string sid)
                         (Sd.reason_code reason))
                  else begin
                    (* decide every level-carried dependence polyhedron *)
                    let pairs = ref 0 in
                    let blocking = ref [] in
                    List.iter
                      (fun (s : Sd.resolved) ->
                        List.iter
                          (fun (d : Sd.resolved) ->
                            if
                              (s.Sd.r_store || d.Sd.r_store)
                              && s.Sd.r_region = d.Sd.r_region
                              && s.Sd.r_region > 0
                              && (s.Sd.r_sid <> d.Sd.r_sid || s.Sd.r_store)
                            then begin
                              incr pairs;
                              let n, rows = carried_rows k s d in
                              if P.feasible (P.make n rows) then
                                blocking := (s, d) :: !blocking
                            end)
                          under)
                      under;
                    if !blocking = [] then
                      Certified
                        { ct_level = k;
                          ct_pairs = !pairs;
                          ct_private = [];
                          ct_reductions = [] }
                    else begin
                      (* discharge: reduction chains *)
                      let chains =
                        List.filter_map
                          (fun (s : Sd.resolved) ->
                            if s.Sd.r_store then chain_of prog under s
                            else None)
                          under
                      in
                      let region_tag = Hashtbl.create 4 in
                      let tag_ok = Hashtbl.create 4 in
                      List.iter
                        (fun c ->
                          let r = c.ch_store.Sd.r_region in
                          (match Hashtbl.find_opt region_tag r with
                          | Some t when t <> c.ch_tag ->
                              Hashtbl.replace tag_ok r false
                          | Some _ -> ()
                          | None ->
                              Hashtbl.replace region_tag r c.ch_tag;
                              if not (Hashtbl.mem tag_ok r) then
                                Hashtbl.replace tag_ok r true);
                          ())
                        chains;
                      let chain_sids = Hashtbl.create 8 in
                      List.iter
                        (fun c ->
                          if Hashtbl.find_opt tag_ok c.ch_store.Sd.r_region
                             = Some true
                          then begin
                            Hashtbl.replace chain_sids c.ch_load.Sd.r_sid ();
                            Hashtbl.replace chain_sids c.ch_store.Sd.r_sid ()
                          end)
                        chains;
                      (* discharge: privatisable regions *)
                      let blocked_regions =
                        List.sort_uniq compare
                          (List.map
                             (fun ((s : Sd.resolved), _) -> s.Sd.r_region)
                             !blocking)
                      in
                      let private_regions =
                        List.filter
                          (fun r ->
                            let accs_r =
                              List.filter
                                (fun (a : Sd.resolved) -> a.Sd.r_region = r)
                                under
                            in
                            privatisable k accs_r)
                          blocked_regions
                      in
                      let discharged (s : Sd.resolved) (d : Sd.resolved) =
                        List.mem s.Sd.r_region private_regions
                        || (Hashtbl.mem chain_sids s.Sd.r_sid
                           && Hashtbl.mem chain_sids d.Sd.r_sid)
                      in
                      let races =
                        List.filter
                          (fun (s, d) -> not (discharged s d))
                          !blocking
                      in
                      if races = [] then begin
                        let reductions =
                          List.sort compare
                            (Hashtbl.fold
                               (fun sid () acc -> sid :: acc)
                               chain_sids [])
                        in
                        (* only report coverage actually discharging
                           a blocked pair *)
                        let used_private =
                          List.filter
                            (fun r ->
                              List.exists
                                (fun ((s : Sd.resolved), _) ->
                                  s.Sd.r_region = r)
                                !blocking)
                            private_regions
                        in
                        Certified
                          { ct_level = k;
                            ct_pairs = !pairs;
                            ct_private = used_private;
                            ct_reductions = reductions }
                      end
                      else begin
                        (* one witness per unordered access pair *)
                        let seen = Hashtbl.create 8 in
                        let ws =
                          List.filter_map
                            (fun ((s : Sd.resolved), (d : Sd.resolved)) ->
                              let key =
                                ( min s.Sd.r_sid d.Sd.r_sid,
                                  max s.Sd.r_sid d.Sd.r_sid )
                              in
                              if Hashtbl.mem seen key then None
                              else begin
                                Hashtbl.replace seen key ();
                                Some (witness_of k s d)
                              end)
                            (List.rev races)
                        in
                        Race
                          (List.sort
                             (fun a b ->
                               compare (a.w_src, a.w_dst) (b.w_src, b.w_dst))
                             ws)
                      end
                    end
                  end))
  end

let certify_loc (sd : Sd.t) ?fid loc =
  let prog = sd.Sd.prog in
  let found = ref None in
  Hashtbl.iter
    (fun _ (r : Sd.resolved) ->
      Array.iter
        (fun (f, h) ->
          if !found = None && (fid = None || fid = Some f) then
            match Vm.Prog.loc_of_block prog ~fid:f ~bid:h with
            | Some l when Vm.Hir_rewrite.same_loc l loc -> found := Some (f, h)
            | _ -> ())
        r.Sd.r_dims)
    sd.Sd.resolved;
  match !found with
  | Some (f, h) -> certify sd ~fid:f ~header:h
  | None -> Unknown "claimed loop is not a chain dimension of the static model"

let analyse ?sd prog =
  Obs.Span.with_ ~cat:"analysis" "analysis.parcheck" @@ fun () ->
  let sd = match sd with Some sd -> sd | None -> Sd.analyse prog in
  let dims = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (r : Sd.resolved) ->
      Array.iteri (fun k fh -> Hashtbl.replace dims fh k) r.Sd.r_dims)
    sd.Sd.resolved;
  let reports =
    Hashtbl.fold
      (fun (fid, header) k acc ->
        { dr_fid = fid;
          dr_header = header;
          dr_loc = Vm.Prog.loc_of_block prog ~fid ~bid:header;
          dr_depth = k;
          dr_verdict = certify sd ~fid ~header }
        :: acc)
      dims []
    |> List.sort (fun a b ->
           compare (a.dr_fid, a.dr_depth, a.dr_header)
             (b.dr_fid, b.dr_depth, b.dr_header))
  in
  { pc_sd = sd; pc_dims = reports }

let coverage (sd : Sd.t) = function
  | Certified c ->
      let ranges =
        List.filter_map
          (fun r -> Points_to.region_range sd.Sd.pta r)
          c.ct_private
        |> List.map (fun (base, size) -> (base, base + size - 1))
      in
      (ranges, c.ct_reductions)
  | Race _ | Unknown _ -> ([], [])

let verdict_code = function
  | Certified _ -> "certified"
  | Race _ -> "race"
  | Unknown _ -> "unknown"

let count_verdict code dims =
  List.length (List.filter (fun d -> verdict_code d.dr_verdict = code) dims)

let n_certified t = count_verdict "certified" t.pc_dims
let n_races t = count_verdict "race" t.pc_dims

let pp_iv fmt = function
  | None -> ()
  | Some iv ->
      Format.fprintf fmt "(%s)"
        (String.concat "," (Array.to_list (Array.map string_of_int iv)))

let pp_verdict fmt = function
  | Certified c ->
      Format.fprintf fmt "DOALL (%d pairs" c.ct_pairs;
      if c.ct_private <> [] then
        Format.fprintf fmt ", %d private region(s)"
          (List.length c.ct_private);
      if c.ct_reductions <> [] then
        Format.fprintf fmt ", %d reduction access(es)"
          (List.length c.ct_reductions);
      Format.fprintf fmt ")"
  | Race ws ->
      Format.fprintf fmt "RACE";
      List.iteri
        (fun i w ->
          if i < 3 then
            Format.fprintf fmt "%s%s %a%a -> %a%a"
              (if i = 0 then " " else "; ")
              (if w.w_ww then "W/W" else "R/W")
              Vm.Isa.Sid.pp w.w_src pp_iv w.w_src_iv
              Vm.Isa.Sid.pp w.w_dst pp_iv w.w_dst_iv)
        ws;
      if List.length ws > 3 then
        Format.fprintf fmt "; +%d more" (List.length ws - 3)
  | Unknown why -> Format.fprintf fmt "unknown: %s" why

let pp_dims fmt dims =
  Format.fprintf fmt "@[<v>parallelism certifier: %d dim(s), %d certified, %d with races@,"
    (List.length dims)
    (count_verdict "certified" dims)
    (count_verdict "race" dims);
  List.iter
    (fun d ->
      Format.fprintf fmt "  f%d.b%d%s depth %d: %a@,"
        d.dr_fid d.dr_header
        (match d.dr_loc with
        | Some l -> Printf.sprintf " (%s:%d)" l.Vm.Prog.file l.Vm.Prog.line
        | None -> "")
        d.dr_depth pp_verdict d.dr_verdict)
    dims;
  Format.fprintf fmt "@]"

let pp fmt t = pp_dims fmt t.pc_dims

(* ------------------------------------------------------------------ *)
(* Dynamic cross-check: the race sanitizer as the certifier's oracle   *)
(* ------------------------------------------------------------------ *)

module RS = Ddg.Race_san

let claims t =
  List.map
    (fun d ->
      let priv, red = coverage t.pc_sd d.dr_verdict in
      let label =
        match d.dr_loc with
        | Some l ->
            Printf.sprintf "f%d.b%d (%s:%d)" d.dr_fid d.dr_header
              l.Vm.Prog.file l.Vm.Prog.line
        | None -> Printf.sprintf "f%d.b%d" d.dr_fid d.dr_header
      in
      { RS.cl_fid = d.dr_fid;
        cl_header = d.dr_header;
        cl_label = label;
        cl_certified =
          (match d.dr_verdict with Certified _ -> true | _ -> false);
        cl_private = priv;
        cl_reductions = red })
    t.pc_dims

let sanitize ?max_steps ?args t =
  Obs.Span.with_ ~cat:"profiling" "ddg.race_san" @@ fun () ->
  RS.run ?max_steps ?args t.pc_sd.Sd.prog ~claims:(claims t)

let crosscheck t (r : RS.report) =
  let verdict_of fid header =
    List.find_opt
      (fun d -> d.dr_fid = fid && d.dr_header = header)
      t.pc_dims
  in
  let diags =
    List.concat_map
      (fun (cs : RS.claim_stats) ->
        let cl = cs.RS.cs_claim in
        let fid = cl.RS.cl_fid in
        let n = cs.RS.cs_n_races in
        if cl.RS.cl_certified && n > 0 then
          [ Diag.error ~code:"E-parcheck-unsound" ~fid
              (Printf.sprintf
                 "sanitizer found %d race(s) on statically certified dim %s%s"
                 n cl.RS.cl_label
                 (match cs.RS.cs_races with
                 | rc :: _ ->
                     Format.asprintf " (first: %a)" RS.pp_race rc
                 | [] -> "")) ]
        else
          match verdict_of fid cl.RS.cl_header with
          | Some { dr_verdict = Race _; _ } ->
              if n > 0 then
                [ Diag.info ~code:"I-parcheck-confirmed" ~fid
                    (Printf.sprintf
                       "dynamic trace confirms the static race witness on %s (%d conflict(s))"
                       cl.RS.cl_label n) ]
              else
                [ Diag.info ~code:"I-parcheck-latent" ~fid
                    (Printf.sprintf
                       "static race witness on %s not exhibited by this input"
                       cl.RS.cl_label) ]
          | _ -> [])
      r.RS.sr_claims
  in
  List.sort Diag.compare diags

let crosscheck_ok diags = not (List.exists Diag.is_error diags)
