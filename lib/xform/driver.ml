(* End-to-end: consume a feedback report, apply each suggested schedule
   to the HIR, and verify the claim with three oracles — observable
   equivalence (differential execution), dynamic legality (re-folded
   DDG lexicographically non-negative) and profitability (the stride-0/1
   profile moved the way the suggestion predicted).

   Every plan gets a verdict:
   - [Verified]  — applied and all oracles passed (marking-only plans
                   pass on static legality alone: there is nothing to
                   run differentially);
   - [Rejected]  — an oracle failed: the suggestion was wrong, which is
                   exactly what this subsystem exists to catch;
   - [Skipped]   — not expressible as a source rewrite here (imperfect
                   nest, call boundary, unknown header location). *)

type status = Verified | Rejected of string | Skipped of string

type profit = {
  pf_before : float;  (* innermost stride-0/1 fraction, original nest *)
  pf_after : float;  (* same, transformed nest *)
  pf_required : bool;  (* strict improvement required (interchange) *)
  pf_parallel : (int * bool) list;  (* marked dim -> still parallel *)
  pf_ok : bool;
  pf_note : string;
}

type kind = Nest of Sched.Plan.t | Fusion of Vm.Prog.loc list

type entry = {
  en_target : string;
  en_kind : kind;
  en_applied : Apply.applied list;
  en_skipped : (Sched.Transform.step * string) list;
  en_static : Sched.Plan.legality option;
  en_certs : (Sched.Transform.step * Analysis.Parcheck.verdict) list;
      (* parallelism-certifier verdict per Parallelize/Vectorize step *)
  en_equiv : Verify.equiv option;
  en_dynamic : Verify.legality option;
  en_profit : profit option;
  en_status : status;
}

type summary = {
  sm_name : string;
  sm_entries : entry list;
  sm_verified : int;
  sm_rejected : int;
  sm_skipped : int;
}

let analyse_hir hir =
  let prog = Vm.Hir.lower hir in
  let profile = Ddg.Depprof.profile prog in
  let analysis = Sched.Depanalysis.analyse prog profile in
  (prog, profile, analysis)

(* The transformed nest is recognised by its located headers: the
   original dims keep their source locations through the rewrites
   (tile loops carry none), so the Some-located dimension sequence of
   the new nest must equal the expected permutation.  Two guards keep
   the match honest when most dims are location-less: the transformed
   nest is never shallower than the original one ([min_depth]), and the
   rewrites preserve the dynamic op count of the body, so among several
   nests sharing the located headers the one whose weight is closest to
   the original plan's weight is the transformed instance
   ([target_weight]). *)
let find_nest ?(min_depth = 0) ?target_weight (xa : Sched.Depanalysis.t)
    (locs : Vm.Prog.loc list) =
  let located n =
    Array.to_list (Sched.Plan.nest_dim_locs xa n) |> List.filter_map Fun.id
  in
  let score (n : Sched.Depanalysis.nest_info) =
    match target_weight with
    | Some w -> -abs (n.Sched.Depanalysis.nweight - w)
    | None -> n.Sched.Depanalysis.nweight
  in
  List.filter
    (fun (n : Sched.Depanalysis.nest_info) ->
      n.Sched.Depanalysis.ndepth >= min_depth
      && List.length (located n) = List.length locs
      && List.for_all2 Vm.Hir_rewrite.same_loc (located n) locs)
    xa.Sched.Depanalysis.nests
  |> List.fold_left
       (fun best (n : Sched.Depanalysis.nest_info) ->
         match best with
         | Some b when score b >= score n -> best
         | _ -> Some n)
       None

let compute_profit ?(certs = []) (plan : Sched.Plan.t) (o : Apply.outcome)
    (xa : Sched.Depanalysis.t) =
  let depth = Array.length plan.Sched.Plan.p_stride01 in
  let before =
    if depth = 0 then 0.0 else plan.Sched.Plan.p_stride01.(depth - 1)
  in
  (* Strict improvement is the prediction of an *applied* interchange; a
     suggested interchange that could not be applied structurally only
     has to not regress. *)
  let interchanged =
    List.exists
      (function Apply.A_interchange _ -> true | _ -> false)
      o.Apply.o_applied
  in
  match
    find_nest ~min_depth:plan.Sched.Plan.p_nest.Sched.Depanalysis.ndepth
      ~target_weight:plan.Sched.Plan.p_weight xa o.Apply.o_expected_locs
  with
  | None ->
      { pf_before = before;
        pf_after = 0.0;
        pf_required = interchanged;
        pf_parallel = [];
        pf_ok = false;
        pf_note = "transformed nest not found in the re-profile" }
  | Some xn ->
      let s01 = Sched.Transform.stride01_profile xn in
      let after =
        if Array.length s01 = 0 then 0.0 else s01.(Array.length s01 - 1)
      in
      let required = interchanged in
      let stride_ok =
        if required then after > before +. 1e-9 else after >= before -. 1e-9
      in
      let xlocs = Sched.Plan.nest_dim_locs xa xn in
      let dyn_parallel d =
        match plan.Sched.Plan.p_targets.(d - 1).Sched.Plan.t_loc with
        | None -> true  (* cannot locate: trust static *)
        | Some l ->
            Array.exists Fun.id
              (Array.mapi
                 (fun i lo ->
                   match lo with
                   | Some lo ->
                       Vm.Hir_rewrite.same_loc lo l
                       && xn.Sched.Depanalysis.nparallel.(i)
                   | None -> false)
                 xlocs)
      in
      (* The certifier has the last word on a claimed dim: a DOALL
         certificate stands even when the dynamic nparallel bit is
         pessimistic, a static race witness sinks the claim even when
         this run's trace happened to be conflict-free.  Only an
         [Unknown] defers to the dynamic evidence. *)
      let race = ref false in
      let parallel =
        List.filter_map
          (fun (step : Sched.Transform.step) ->
            match step with
            | Sched.Transform.Parallelize d -> (
                match List.assoc_opt step certs with
                | Some (Analysis.Parcheck.Certified _) -> Some (d, true)
                | Some (Analysis.Parcheck.Race _) ->
                    race := true;
                    Some (d, false)
                | Some (Analysis.Parcheck.Unknown _) | None ->
                    Some (d, dyn_parallel d))
            | Sched.Transform.Vectorize d -> (
                match List.assoc_opt step certs with
                | Some (Analysis.Parcheck.Certified _) -> Some (d, true)
                | Some (Analysis.Parcheck.Race _) ->
                    race := true;
                    Some (d, false)
                | Some (Analysis.Parcheck.Unknown _) | None ->
                    (* no dynamic innermost-SIMD oracle: an unknown keeps
                       the historical trust-the-mark behaviour *)
                    Some (d, true))
            | _ -> None)
          plan.Sched.Plan.p_steps
      in
      let parallel_ok = List.for_all snd parallel in
      { pf_before = before;
        pf_after = after;
        pf_required = required;
        pf_parallel = parallel;
        pf_ok = stride_ok && parallel_ok;
        pf_note =
          (if not stride_ok then
             Printf.sprintf "stride-0/1 went %.0f%% -> %.0f%%%s"
               (100. *. before) (100. *. after)
               (if required then " (improvement required)" else " (regressed)")
           else if not parallel_ok then
             if !race then
               "the parallelism certifier found a race on a marked dim"
             else "a marked-parallel dim lost parallelism"
           else "") }

let structural_steps (plan : Sched.Plan.t) =
  List.exists
    (fun (s : Sched.Transform.step) ->
      match s with
      | Sched.Transform.Interchange _ | Sched.Transform.Skew _
      | Sched.Transform.Tile _ ->
          true
      | Sched.Transform.Parallelize _ | Sched.Transform.Vectorize _ -> false)
    plan.Sched.Plan.p_steps

let marked_steps (plan : Sched.Plan.t) =
  List.exists
    (fun (s : Sched.Transform.step) ->
      match s with
      | Sched.Transform.Parallelize _ | Sched.Transform.Vectorize _ -> true
      | _ -> false)
    plan.Sched.Plan.p_steps

(* Static parallelism certification of the claimed dims: each
   [Parallelize]/[Vectorize] step is decided against the level-carried
   dependence polyhedra ([Analysis.Parcheck]) of the given program —
   the original one for marking-only plans, the transformed one when
   structural steps may have moved the claimed loops to new levels. *)
let certify_steps ~sd (plan : Sched.Plan.t) =
  List.filter_map
    (fun (step : Sched.Transform.step) ->
      let verdict d =
        if d < 1 || d > Array.length plan.Sched.Plan.p_targets then
          Analysis.Parcheck.Unknown "claimed dim out of range"
        else
          let t = plan.Sched.Plan.p_targets.(d - 1) in
          match t.Sched.Plan.t_loc with
          | None ->
              Analysis.Parcheck.Unknown "claimed dim has no source location"
          | Some l ->
              Analysis.Parcheck.certify_loc sd ?fid:t.Sched.Plan.t_fid l
      in
      match step with
      | Sched.Transform.Parallelize d | Sched.Transform.Vectorize d ->
          Some (step, verdict d)
      | _ -> None)
    plan.Sched.Plan.p_steps

let cert_race certs =
  List.find_opt
    (fun (_, v) ->
      match v with Analysis.Parcheck.Race _ -> true | _ -> false)
    certs

let verify_transformed ~eps ?max_steps ~orig_prog xhir =
  let xprog = Vm.Hir.lower xhir in
  let equiv = Verify.observable_equiv ~eps ?max_steps orig_prog xprog in
  if not equiv.Verify.eq_ok then (equiv, None)
  else
    let _, _, xanalysis = analyse_hir xhir in
    (equiv, Some xanalysis)

(* One-call correctness oracle for an already-rewritten program: both
   dynamic checks the nest/fusion entries run — differential execution
   against the original, then lexicographic non-negativity of the
   re-folded DDG.  The re-analysis is returned so a caller that keeps
   the candidate (an autotuner extending its beam) does not profile
   twice. *)
type oracle = {
  or_equiv : Verify.equiv;
  or_dynamic : Verify.legality option;  (* None: equivalence already failed *)
  or_analysis : Sched.Depanalysis.t option;
  or_ok : bool;
}

let oracle ?(eps = 1e-9) ?max_steps ~orig_prog xhir =
  let equiv, xanalysis = verify_transformed ~eps ?max_steps ~orig_prog xhir in
  match xanalysis with
  | None ->
      { or_equiv = equiv; or_dynamic = None; or_analysis = None; or_ok = false }
  | Some xa ->
      let dyn = Verify.dynamic_legality xa in
      { or_equiv = equiv;
        or_dynamic = Some dyn;
        or_analysis = Some xa;
        or_ok = equiv.Verify.eq_ok && dyn.Verify.dl_ok }

let nest_entry ~eps ?max_steps ~orig_prog ~analysis ~sd hir
    (plan : Sched.Plan.t) =
  let target = Sched.Plan.describe plan in
  let base ?applied ?skipped ?static ?(certs = []) ?equiv ?dynamic ?profit
      status =
    { en_target = target;
      en_kind = Nest plan;
      en_applied = Option.value applied ~default:[];
      en_skipped = Option.value skipped ~default:[];
      en_static = static;
      en_certs = certs;
      en_equiv = equiv;
      en_dynamic = dynamic;
      en_profit = profit;
      en_status = status }
  in
  let static = Sched.Plan.legal analysis plan in
  if not static.Sched.Plan.lg_ok then
    base ~static
      (Rejected "static legality: the profiled direction vectors forbid a step")
  else if not (structural_steps plan) then begin
    (* Marking-only plan: nothing to run differentially — but the claims
       themselves are no longer waved through on static legality alone;
       each one is decided by the parallelism certifier against the
       original program's dependence polyhedra. *)
    let certs = certify_steps ~sd:(Lazy.force sd) plan in
    match cert_race certs with
    | Some (step, _) ->
        base ~static ~certs
          (Rejected
             (Format.asprintf "parallelism certifier: race on %a"
                Sched.Transform.pp_step step))
    | None -> base ~static ~certs (Verified : status)
  end
  else
    match Apply.apply_plan hir plan with
    | Error e -> base ~static (Skipped e)
    | Ok o when not o.Apply.o_structural ->
        base ~static ~applied:o.Apply.o_applied ~skipped:o.Apply.o_skipped
          (Skipped
             (match o.Apply.o_skipped with
             | (_, reason) :: _ -> reason
             | [] -> "no structural step applied"))
    | Ok o -> (
        match Vm.Hir.lower o.Apply.o_hir with
        | exception Vm.Hir.Lower_error m ->
            base ~static ~applied:o.Apply.o_applied ~skipped:o.Apply.o_skipped
              (Skipped ("lowering the transformed program failed: " ^ m))
        | xprog -> (
            (* Claimed dims are re-certified against the *transformed*
               program: structural steps may have moved the claimed
               loops to new nest levels, so the original program's
               verdicts do not transfer. *)
            let certs =
              if marked_steps plan then
                certify_steps ~sd:(Analysis.Statdep.analyse xprog) plan
              else []
            in
            let equiv, xanalysis =
              verify_transformed ~eps ?max_steps ~orig_prog o.Apply.o_hir
            in
            match xanalysis with
            | None ->
                base ~static ~certs ~applied:o.Apply.o_applied
                  ~skipped:o.Apply.o_skipped ~equiv
                  (Rejected "observable equivalence failed")
            | Some xa ->
                let dyn = Verify.dynamic_legality xa in
                let profit = compute_profit ~certs plan o xa in
                let status =
                  if not dyn.Verify.dl_ok then
                    Rejected "a dependence was reversed (re-folded DDG)"
                  else if not profit.pf_ok then
                    Rejected ("profitability: " ^ profit.pf_note)
                  else Verified
                in
                base ~static ~certs ~applied:o.Apply.o_applied
                  ~skipped:o.Apply.o_skipped ~equiv ~dynamic:dyn ~profit
                  status))

(* Fusion groups from the feedback's region reports: components that
   the smart-fusion heuristic merged are replayed as pairwise [fuse]
   rewrites and re-verified like any other transformation. *)
let fusion_groups (fb : Sched.Feedback.t) =
  List.concat_map
    (fun (r : Sched.Feedback.region_report) ->
      List.filter_map
        (fun group ->
          if List.length group < 2 then None
          else
            let locs =
              List.filter_map
                (fun (c : Sched.Fusion.component) ->
                  match
                    Sched.Depanalysis.loop_at fb.Sched.Feedback.analysis
                      c.Sched.Fusion.c_path
                  with
                  | Some l -> l.Sched.Depanalysis.header_loc
                  | None -> None)
                group
            in
            if List.length locs = List.length group then Some locs else None)
        r.Sched.Feedback.fusion.Sched.Fusion.merged_groups)
    fb.Sched.Feedback.regions

let fusion_entry ~eps ?max_steps ~orig_prog hir locs =
  let target =
    "fuse "
    ^ String.concat " + " (List.map Vm.Hir_rewrite.loc_string locs)
  in
  let base ?equiv ?dynamic status =
    { en_target = target;
      en_kind = Fusion locs;
      en_applied = [];
      en_skipped = [];
      en_static = None;
      en_certs = [];
      en_equiv = equiv;
      en_dynamic = dynamic;
      en_profit = None;
      en_status = status }
  in
  (* the merged loop keeps the first header's location, so each further
     component fuses into [first] *)
  let rec fold_fuse hir = function
    | first :: second :: rest -> (
        match Vm.Hir_rewrite.fuse hir ~first ~second with
        | Ok hir' -> fold_fuse hir' (first :: rest)
        | Error e -> Error e)
    | _ -> Ok hir
  in
  match fold_fuse hir locs with
  | Error e -> base (Skipped e)
  | Ok xhir -> (
      let equiv, xanalysis =
        verify_transformed ~eps ?max_steps ~orig_prog xhir
      in
      match xanalysis with
      | None -> base ~equiv (Rejected "observable equivalence failed")
      | Some xa ->
          let dyn = Verify.dynamic_legality xa in
          if dyn.Verify.dl_ok then base ~equiv ~dynamic:dyn Verified
          else
            base ~equiv ~dynamic:dyn
              (Rejected "a dependence was reversed (re-folded DDG)"))

let apply_and_verify ?(eps = 1e-9) ?max_steps ?(max_plans = 8) ~name
    (hir : Vm.Hir.program) =
  let orig_prog, profile, analysis = analyse_hir hir in
  let feedback = Sched.Feedback.make orig_prog profile analysis in
  let plans = Sched.Plan.plans_of_feedback feedback in
  let plans =
    List.filteri (fun i _ -> i < max_plans) plans
  in
  (* one static dependence model of the original program serves every
     marking-only plan's certification *)
  let sd = lazy (Analysis.Statdep.analyse orig_prog) in
  let entries =
    List.map (nest_entry ~eps ?max_steps ~orig_prog ~analysis ~sd hir) plans
  in
  let entries =
    entries
    @ List.map (fusion_entry ~eps ?max_steps ~orig_prog hir)
        (fusion_groups feedback)
  in
  let count f = List.length (List.filter f entries) in
  { sm_name = name;
    sm_entries = entries;
    sm_verified = count (fun e -> e.en_status = Verified);
    sm_rejected =
      count (fun e -> match e.en_status with Rejected _ -> true | _ -> false);
    sm_skipped =
      count (fun e -> match e.en_status with Skipped _ -> true | _ -> false) }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let status_string = function
  | Verified -> "VERIFIED"
  | Rejected r -> "REJECTED: " ^ r
  | Skipped r -> "skipped: " ^ r

let pp_entry fmt e =
  Format.fprintf fmt "%s@\n  %s@\n"
    (match e.en_kind with
    | Nest plan ->
        Format.asprintf "nest %s (%d ops): %a" e.en_target
          plan.Sched.Plan.p_weight
          (Format.pp_print_list
             ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
             Sched.Transform.pp_step)
          plan.Sched.Plan.p_steps
    | Fusion _ -> e.en_target)
    (status_string e.en_status);
  List.iter
    (fun a -> Format.fprintf fmt "  applied: %a@\n" Apply.pp_applied a)
    e.en_applied;
  List.iter
    (fun (s, why) ->
      Format.fprintf fmt "  partial: %a: %s@\n" Sched.Transform.pp_step s why)
    e.en_skipped;
  (match e.en_static with
  | Some l ->
      Format.fprintf fmt "  static legality (profiled direction vectors): %s@\n"
        (if l.Sched.Plan.lg_ok then
           Printf.sprintf "PASS (%d dependences)" l.Sched.Plan.lg_deps
         else "FAIL");
      if not l.Sched.Plan.lg_ok then
        Format.fprintf fmt "%a" Sched.Plan.pp_legality l
  | None -> ());
  List.iter
    (fun (step, v) ->
      Format.fprintf fmt "  certifier: %a: %a@\n" Sched.Transform.pp_step step
        Analysis.Parcheck.pp_verdict v)
    e.en_certs;
  (match e.en_equiv with
  | Some eq ->
      Format.fprintf fmt "  observable equivalence: %s@\n"
        (if eq.Verify.eq_ok then "PASS" else "FAIL");
      Format.fprintf fmt "    %a@\n" Verify.pp_equiv eq
  | None -> ());
  (match e.en_dynamic with
  | Some dyn ->
      Format.fprintf fmt "  dynamic legality (re-folded DDG): %s@\n"
        (if dyn.Verify.dl_ok then "PASS" else "FAIL");
      Format.fprintf fmt "    %a@\n" Verify.pp_legality dyn
  | None -> ());
  match e.en_profit with
  | Some p ->
      Format.fprintf fmt
        "  profitability: %s (innermost stride-0/1 %.0f%% -> %.0f%%%s)@\n"
        (if p.pf_ok then "PASS" else "FAIL")
        (100. *. p.pf_before) (100. *. p.pf_after)
        (if p.pf_required then ", improvement required" else "");
      List.iter
        (fun (d, ok) ->
          Format.fprintf fmt "    parallel(d%d) after transformation: %s@\n" d
            (if ok then "yes" else "NO"))
        p.pf_parallel
  | None -> ()

let pp_summary fmt s =
  Format.fprintf fmt "== %s: %d plan(s): %d verified, %d rejected, %d skipped ==@\n"
    s.sm_name
    (List.length s.sm_entries)
    s.sm_verified s.sm_rejected s.sm_skipped;
  List.iteri
    (fun i e -> Format.fprintf fmt "[%d] %a" (i + 1) pp_entry e)
    s.sm_entries
