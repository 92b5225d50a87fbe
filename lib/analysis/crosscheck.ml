type report = {
  n_accesses : int;
  n_ranged : int;
  facts : int;
  checked_edges : int;
  skipped_edges : int;
  skip_norange : int;
  skip_crossfn : int;
  poly_pairs : int;
  poly_checked : int;
  sim_must : int;
  sim_may : int;
  sim_skipped : bool;
  sim_skip_reason : string option;
  sim_witnesses : int;
  violations : Diag.t list;
}

let disjoint (lo1, hi1) (lo2, hi2) = hi1 < lo2 || hi2 < lo1

(* last-writer simulation of the pruning plan, aggregated to
   (src, dst, kind) keys: the exact dependence set the plan predicts,
   compared below against the dynamic profile (must and may) *)
let simulate_keys (plan : Ddg.Depprof.static_plan) =
  let last = Array.make (max 1 plan.sp_mem_size) None in
  let keys = Hashtbl.create 64 in
  let counts = Hashtbl.create 64 in
  let bump sid =
    Hashtbl.replace counts sid
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts sid))
  in
  let coords = ref [] in
  let rec item (it : Ddg.Depprof.static_item) =
    match it with
    | Ddg.Depprof.Sloop { sl_base; sl_coefs; sl_body } ->
        let outer = Array.of_list (List.rev !coords) in
        let trip = Ddg.Depprof.loop_trip ~base:sl_base ~coefs:sl_coefs outer in
        for k = 0 to trip - 1 do
          coords := k :: !coords;
          List.iter item sl_body;
          coords := List.tl !coords
        done
    | Ddg.Depprof.Sacc sa ->
        bump sa.sa_sid;
        let addr = ref sa.sa_base in
        let rev = Array.of_list (List.rev !coords) in
        Array.iteri (fun i c -> addr := !addr + (sa.sa_coefs.(i) * c)) rev;
        if !addr >= 0 && !addr < Array.length last then
          if sa.sa_store then begin
            (match last.(!addr) with
            | Some src ->
                Hashtbl.replace keys (src, sa.sa_sid, Ddg.Depprof.Out_dep) ()
            | None -> ());
            last.(!addr) <- Some sa.sa_sid
          end
          else
            match last.(!addr) with
            | Some src ->
                Hashtbl.replace keys (src, sa.sa_sid, Ddg.Depprof.Mem_dep) ()
            | None -> ()
  in
  List.iter item plan.sp_items;
  (keys, counts)

let check (prog : Vm.Prog.t) (res : Ddg.Depprof.result) =
  let frs = Affine_class.analyse_prog prog in
  (* sid -> ranged access (memory accesses only, by construction) *)
  let ranged : (Vm.Isa.Sid.t, Affine_class.access) Hashtbl.t =
    Hashtbl.create 64
  in
  let n_accesses = ref 0 in
  Array.iter
    (fun fr ->
      List.iter
        (fun (a : Affine_class.access) ->
          incr n_accesses;
          match a.acc_range with
          | Some _ -> Hashtbl.replace ranged a.acc_sid a
          | None -> ())
        fr.Affine_class.fr_accesses)
    frs;
  (* independence facts: disjoint pairs within a function, at least one
     of which writes (read/read pairs carry no dependence anyway) *)
  let facts = ref 0 in
  Array.iter
    (fun fr ->
      let accs =
        List.filter
          (fun (a : Affine_class.access) -> a.acc_range <> None)
          fr.Affine_class.fr_accesses
      in
      let rec pairs = function
        | [] -> ()
        | (a : Affine_class.access) :: rest ->
            List.iter
              (fun (b : Affine_class.access) ->
                if
                  (a.acc_store || b.acc_store)
                  && disjoint (Option.get a.acc_range) (Option.get b.acc_range)
                then incr facts)
              rest;
            pairs rest
      in
      pairs accs)
    frs;
  (* exact polyhedral facts from the static dependence engine *)
  let sd = Statdep.analyse prog in
  let scev = Hashtbl.create 64 in
  let dyn_count = Hashtbl.create 64 in
  List.iter
    (fun (s : Ddg.Depprof.stmt_info) ->
      if s.is_scev then Hashtbl.replace scev s.sk.s_sid ();
      Hashtbl.replace dyn_count s.sk.s_sid
        (s.s_count
        + Option.value ~default:0 (Hashtbl.find_opt dyn_count s.sk.s_sid)))
    res.Ddg.Depprof.stmts;
  let sim_keys, sim_counts = simulate_keys sd.Statdep.plan in
  (* the simulation predicts dependences of a complete run; on a
     truncated or diverging profile the must/may comparison is
     meaningless, so it is skipped (and reported as skipped) *)
  let sim_skip_reason =
    if Hashtbl.length sd.Statdep.pruned = 0 then
      Some "nothing statically pruned"
    else if
      not
        (Hashtbl.fold
           (fun sid n ok -> ok && Hashtbl.find_opt dyn_count sid = Some n)
           sim_counts true)
    then Some "simulated execution counts diverge from the dynamic run"
    else None
  in
  let sim_applicable = sim_skip_reason = None in
  let checked = ref 0
  and skip_norange = ref 0
  and skip_crossfn = ref 0
  and poly_checked = ref 0
  and sim_may = ref 0
  and violations = ref [] in
  let flagged = Hashtbl.create 8 in
  let flag key diag =
    if not (Hashtbl.mem flagged key) then begin
      Hashtbl.replace flagged key ();
      violations := diag :: !violations
    end
  in
  let kind_name = function
    | Ddg.Depprof.Out_dep -> "output-dep"
    | _ -> "mem-dep"
  in
  List.iter
    (fun (d : Ddg.Depprof.dep_info) ->
      match d.dk.kind with
      | Ddg.Depprof.Reg_dep -> ()
      | (Ddg.Depprof.Mem_dep | Ddg.Depprof.Out_dep) as kind ->
          let key = (d.dk.src_sid, d.dk.dst_sid, kind) in
          (* 1. interval check (the original cross-checker) *)
          (match
             (Hashtbl.find_opt ranged d.dk.src_sid,
              Hashtbl.find_opt ranged d.dk.dst_sid)
           with
          | Some a, Some b ->
              incr checked;
              let ra = Option.get a.acc_range
              and rb = Option.get b.acc_range in
              if disjoint ra rb then
                flag key
                  (Diag.error ~sid:d.dk.dst_sid ~code:"E-crosscheck"
                     ~fid:(Vm.Isa.Sid.fid d.dk.dst_sid)
                     (Format.asprintf
                        "dynamic %s edge %a -> %a contradicts static \
                         independence: address ranges [%d, %d] and [%d, %d] \
                         are disjoint"
                        (kind_name kind) Vm.Isa.Sid.pp d.dk.src_sid
                        Vm.Isa.Sid.pp d.dk.dst_sid (fst ra) (snd ra) (fst rb)
                        (snd rb)))
          | sa, sb ->
              if sa = None || sb = None then
                if Vm.Isa.Sid.fid d.dk.src_sid <> Vm.Isa.Sid.fid d.dk.dst_sid
                then incr skip_crossfn
                else incr skip_norange);
          (* 2. exact polyhedral check: both endpoints resolved by the
             static engine *)
          (match
             (Hashtbl.find_opt sd.Statdep.resolved d.dk.src_sid,
              Hashtbl.find_opt sd.Statdep.resolved d.dk.dst_sid)
           with
          | Some rs, Some rd ->
              incr poly_checked;
              let verdict =
                if rs.Statdep.r_region <> rd.Statdep.r_region then
                  Some "the accesses touch provably disjoint memory regions"
                else
                  match
                    Statdep.pair_of sd ~src:d.dk.src_sid ~dst:d.dk.dst_sid
                      kind
                  with
                  | Some p when not p.Statdep.pd_possible ->
                      Some "every dependence polyhedron of the pair is empty"
                  | Some _ -> None
                  | None ->
                      (* same region but no summary: only store-source
                         pairs are summarised, so a load-source edge is
                         structurally impossible *)
                      Some "the static engine has no writer for this pair"
              in
              Option.iter
                (fun why ->
                  flag key
                    (Diag.error ~sid:d.dk.dst_sid ~code:"E-crosscheck-poly"
                       ~fid:(Vm.Isa.Sid.fid d.dk.dst_sid)
                       (Format.asprintf
                          "dynamic %s edge %a -> %a contradicts the static \
                           dependence polyhedra: %s"
                          (kind_name kind) Vm.Isa.Sid.pp d.dk.src_sid
                          Vm.Isa.Sid.pp d.dk.dst_sid why)))
                verdict
          | _ -> ());
          (* 3. may-direction simulation check: a dynamic edge between
             two pruned accesses must be predicted by the plan's
             last-writer simulation *)
          if
            sim_applicable
            && Hashtbl.mem sd.Statdep.pruned d.dk.src_sid
            && Hashtbl.mem sd.Statdep.pruned d.dk.dst_sid
          then begin
            incr sim_may;
            if not (Hashtbl.mem sim_keys key) then
              flag key
                (Diag.error ~sid:d.dk.dst_sid ~code:"E-crosscheck-sim"
                   ~fid:(Vm.Isa.Sid.fid d.dk.dst_sid)
                   (Format.asprintf
                      "dynamic %s edge %a -> %a is not produced by the \
                       static plan's last-writer simulation"
                      (kind_name kind) Vm.Isa.Sid.pp d.dk.src_sid
                      Vm.Isa.Sid.pp d.dk.dst_sid))
          end)
    res.Ddg.Depprof.deps;
  (* 4. must-direction: every simulated flow dependence between non-SCEV
     statements has to appear in the dynamic DDG (output deps are only
     recorded under [track_waw], so they get the may-direction only) *)
  let sim_must = ref 0 in
  if sim_applicable then begin
    let dyn_keys = Hashtbl.create 64 in
    List.iter
      (fun (d : Ddg.Depprof.dep_info) ->
        Hashtbl.replace dyn_keys (d.dk.src_sid, d.dk.dst_sid, d.dk.kind) ())
      res.Ddg.Depprof.deps;
    Hashtbl.iter
      (fun ((src, dst, kind) as key) () ->
        if
          kind = Ddg.Depprof.Mem_dep
          && (not (Hashtbl.mem scev src))
          && not (Hashtbl.mem scev dst)
        then begin
          incr sim_must;
          if not (Hashtbl.mem dyn_keys key) then
            flag key
              (Diag.error ~sid:dst ~code:"E-crosscheck-sim"
                 ~fid:(Vm.Isa.Sid.fid dst)
                 (Format.asprintf
                    "simulated mem-dep edge %a -> %a is missing from the \
                     dynamic DDG"
                    Vm.Isa.Sid.pp src Vm.Isa.Sid.pp dst))
        end)
      sim_keys
  end;
  {
    n_accesses = !n_accesses;
    n_ranged = Hashtbl.length ranged;
    facts = !facts;
    checked_edges = !checked;
    skipped_edges = !skip_norange + !skip_crossfn;
    skip_norange = !skip_norange;
    skip_crossfn = !skip_crossfn;
    poly_pairs = List.length (Lazy.force sd.Statdep.pairs);
    poly_checked = !poly_checked;
    sim_must = !sim_must;
    sim_may = !sim_may;
    sim_skipped = not sim_applicable;
    sim_skip_reason;
    sim_witnesses = List.length sd.Statdep.plan.Ddg.Depprof.sp_witnesses;
    violations = List.sort Diag.compare !violations;
  }

let ok r = r.violations = []

let pp_report fmt r =
  Format.fprintf fmt
    "accesses %d (ranged %d), independence facts %d, edges checked \
     %d/%d (skipped %d: %d no-range, %d cross-function), violations %d"
    r.n_accesses r.n_ranged r.facts r.checked_edges
    (r.checked_edges + r.skipped_edges)
    r.skipped_edges r.skip_norange r.skip_crossfn
    (List.length r.violations);
  Format.fprintf fmt
    "@\n  polyhedral: %d pair summaries, %d edges checked exactly; \
     simulation: %s"
    r.poly_pairs r.poly_checked
    (match r.sim_skip_reason with
    | Some why -> Printf.sprintf "skipped (%s)" why
    | None ->
        Printf.sprintf "%d must-edges, %d may-edges verified" r.sim_must
          r.sim_may);
  if r.sim_witnesses > 0 then
    Format.fprintf fmt "@\n  witnesses in plan: %d" r.sim_witnesses;
  List.iter
    (fun d -> Format.fprintf fmt "@\n  %a" (Diag.pp ()) d)
    r.violations
