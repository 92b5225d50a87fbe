(* The static dependence engine's report: per workload, what
   Analysis.Statdep resolves and plans to prune, and (with [~prune])
   what that plan saves at run time and whether the pruned profile is
   identical to the unpruned one. *)

type dynamic = {
  d_dyn_mem : int;
  d_dyn_pruned : int;
  d_full_s : float;
  d_pruned_s : float;
  d_witnesses : int;
  d_reruns : int;
  d_identical : bool;
}

type row = {
  r_name : string;
  r_accesses : int;
  r_resolved : int;
  r_pruned : int;
  r_regions : string list;
  r_pairs : int;
  r_possible : int;
  r_dynamic : dynamic option;
}

let measure_dynamic prog =
  let full, t_full = Obs.Clock.timed (fun () -> Ddg.Depprof.profile prog) in
  (* speculative plan, witness-failure reruns handled by the hybrid
     driver (timed together: that is the user-visible cost) *)
  let (_, pruned, reruns), t_pruned =
    Obs.Clock.timed (fun () ->
        Analysis.Statdep.fallback_profile prog ~profile:(fun plan ->
            Ddg.Depprof.profile ~static_prune:plan prog))
  in
  { d_dyn_mem = full.Ddg.Depprof.run_stats.Vm.Interp.dyn_mem_ops;
    d_dyn_pruned = pruned.Ddg.Depprof.statically_pruned;
    d_full_s = t_full;
    d_pruned_s = t_pruned;
    d_witnesses = List.length pruned.Ddg.Depprof.witnesses;
    d_reruns = reruns;
    d_identical = Ddg.Depprof.equal_result full pruned }

let measure ?(prune = false) (w : Workload.t) =
  let prog = Vm.Hir.lower w.Workload.hir in
  let sd = Analysis.Statdep.analyse prog in
  let pairs = Lazy.force sd.Analysis.Statdep.pairs in
  let possible (p : Analysis.Statdep.pair_dep) = p.pd_possible in
  { r_name = w.Workload.w_name;
    r_accesses = sd.Analysis.Statdep.n_accesses;
    r_resolved = Analysis.Statdep.n_resolved sd;
    r_pruned = Analysis.Statdep.n_pruned sd;
    r_regions = Analysis.Statdep.prunable_regions sd;
    r_pairs = List.length pairs;
    r_possible = List.length (List.filter possible pairs);
    r_dynamic = (if prune then Some (measure_dynamic prog) else None) }

let diverged r =
  match r.r_dynamic with Some d -> not d.d_identical | None -> false

let pct p t = 100. *. float_of_int p /. float_of_int (max 1 t)
let dyn_pct d = pct d.d_dyn_pruned d.d_dyn_mem
let dynamics rows = List.filter_map (fun r -> r.r_dynamic) rows
let sum f ds = List.fold_left (fun a d -> a + f d) 0 ds

let suite_pruned_pct rows =
  let ds = dynamics rows in
  pct (sum (fun d -> d.d_dyn_pruned) ds) (sum (fun d -> d.d_dyn_mem) ds)

let above_50 ds = List.length (List.filter (fun d -> dyn_pct d > 50.) ds)

let check rows =
  List.filter_map
    (fun r ->
      if diverged r then
        Some (r.r_name ^ ": pruned profile differs from the unpruned one")
      else None)
    rows
  @
  let p = suite_pruned_pct rows in
  if p >= 50. then []
  else [ Printf.sprintf "suite pruned fraction %.1f%% is below 50%%" p ]

let table rows =
  let ds = dynamics rows in
  let header =
    [ "benchmark"; "static"; "resolved"; "pruned"; "regions"; "pairs"; "dep" ]
    @
    if ds = [] then []
    else
      [ "dyn mem"; "dyn pruned"; "pruned %"; "full s"; "pruned s"; "wit";
        "rerun"; "same" ]
  in
  let cells r =
    List.map string_of_int
      [ r.r_accesses; r.r_resolved; r.r_pruned; List.length r.r_regions;
        r.r_pairs; r.r_possible ]
    @
    match r.r_dynamic with
    | None -> []
    | Some d ->
        [ string_of_int d.d_dyn_mem;
          string_of_int d.d_dyn_pruned;
          Printf.sprintf "%.0f%%" (dyn_pct d);
          Printf.sprintf "%.4f" d.d_full_s;
          Printf.sprintf "%.4f" d.d_pruned_s;
          string_of_int d.d_witnesses;
          string_of_int d.d_reruns;
          (if d.d_identical then "Y" else "N!") ]
  in
  Report.Texttable.render ~header
    (List.map (fun r -> r.r_name :: cells r) rows)
  ^
  if ds = [] then ""
  else
    Printf.sprintf
      "\nsuite: %d/%d dynamic accesses pruned (%.0f%%), %d workloads above \
       50%%, all pruned profiles identical to unpruned: %b\n"
      (sum (fun d -> d.d_dyn_pruned) ds)
      (sum (fun d -> d.d_dyn_mem) ds)
      (suite_pruned_pct rows)
      (above_50 ds)
      (not (List.exists diverged rows))

let json rows =
  let open Obs.Json_emit in
  let ds = dynamics rows in
  let row_json r =
    let dyn f = match r.r_dynamic with Some d -> f d | None -> [] in
    Obj
      ([ ("name", Str r.r_name);
         ("static_accesses", Int r.r_accesses);
         ("resolved", Int r.r_resolved) ]
      @ dyn (fun d ->
            [ ("dyn_mem_ops", Int d.d_dyn_mem);
              ("dyn_pruned", Int d.d_dyn_pruned);
              ("pruned_pct", Float (dyn_pct d)) ])
      @ [ ("pair_summaries", Int r.r_pairs) ]
      @ dyn (fun d ->
            [ ("full_seconds", Float d.d_full_s);
              ("pruned_seconds", Float d.d_pruned_s);
              ("speculative_witnesses", Int d.d_witnesses);
              ("witness_reruns", Int d.d_reruns);
              ("identical", Bool d.d_identical) ]))
  in
  Obj
    (schema_header ~schema_version:Obs.Schemas.staticdep
    @ (if ds = [] then []
       else
         [ ("suite_pruned_pct", Float (suite_pruned_pct rows));
           ("workloads_above_50pct", Int (above_50 ds));
           ("all_identical", Bool (not (List.exists diverged rows))) ])
    @ [ ("workloads", List (List.map row_json rows)) ])
