type outcome = {
  row : Sched.Metrics.row;
  polly : Staticbase.Polly_lite.verdict;
  pipeline : Polyprof.t option;
  dep_keys : int;
  sched_bailed : bool;
  lint : Analysis.Lint.entry option;
  xform : Xform.Driver.summary option;
}

let sched_budget = 1200

let suite = Rodinia.all @ [ Gems_fdtd.workload ] @ Polybench.all

let find name =
  match
    List.find_opt
      (fun (w : Workload.t) -> w.Workload.w_name = name)
      (suite @ Polybench.seeded)
  with
  | Some w -> Ok w
  | None ->
      Error
        (Printf.sprintf "unknown benchmark %s (try: %s, gems_fdtd, %s)" name
           (String.concat ", " Rodinia.names)
           (String.concat ", "
              (List.map (fun (w : Workload.t) -> w.w_name) Polybench.all)))

let run ?(budget = sched_budget) ?(crosscheck = false) ?(xverify = false)
    ?out_of_core ?(static_prune = false) (w : Workload.t) =
  Obs.Span.with_ ~cat:"workload" ("workload." ^ w.Workload.w_name) @@ fun () ->
  let prog = Vm.Hir.lower w.Workload.hir in
  (* [profile] runs Instrumentation II, under a static plan or not *)
  let profile_with profile =
    if static_prune then
      (* hybrid driver: speculate on weakly-dynamic guards, with
         witness-failure fallback to full shadow tracking *)
      let _sd, result, _reruns =
        Analysis.Statdep.fallback_profile prog ~profile:(fun plan ->
            profile (Some plan))
      in
      result
    else profile None
  in
  let profile =
    match out_of_core with
    | None ->
        profile_with (fun static_prune -> Ddg.Depprof.profile ?static_prune prog)
    | Some domains ->
        if domains <> 1 then
          invalid_arg "Runner.run: replay is sequential (~out_of_core:1)";
        (* record once to disk, then replay both instrumentation stages
           from the file *)
        let path = Filename.temp_file "polyprof" ".trace" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        @@ fun () ->
        let (_ : Stream.Trace_file.write_info) =
          Stream.Trace_file.record_to_file prog path
        in
        profile_with (fun static_prune ->
            (Stream.Par_profile.profile_file ?static_prune path prog)
              .Stream.Par_profile.result)
  in
  let lint =
    if crosscheck then
      Some
        (Analysis.Lint.crosschecked
           (Analysis.Lint.analyse ~name:w.Workload.w_name prog)
           prog profile)
    else None
  in
  let dep_keys = List.length profile.Ddg.Depprof.deps in
  let polly =
    Staticbase.Polly_lite.analyse_function w.Workload.hir w.Workload.kernel_func
  in
  let ld_src = Workload.src_loop_depth w.Workload.hir in
  if w.Workload.expect_sched_failure || dep_keys > budget then begin
    (* the scheduling stage declares a blow-up; keep the columns the
       profiling stages can still provide, like the paper does for
       streamcluster *)
    let base =
      (* a restricted analysis (statements only, no dependence-driven
         scheduling) yields the profiling columns *)
      let analysis =
        Sched.Depanalysis.analyse prog
          { profile with Ddg.Depprof.deps = [] }
      in
      Sched.Metrics.compute ~name:w.Workload.w_name ~ld_src prog profile
        analysis
    in
    { row =
        Sched.Metrics.failed_row ~base_row:base ~name:w.Workload.w_name
          ~ops:profile.Ddg.Depprof.run_stats.Vm.Interp.dyn_instrs
          ~mem:profile.Ddg.Depprof.run_stats.Vm.Interp.dyn_mem_ops ();
      polly;
      pipeline = None;
      dep_keys;
      sched_bailed = true;
      lint;
      (* no feedback to apply when the scheduler bailed out *)
      xform = None }
  end
  else begin
    let analysis = Sched.Depanalysis.analyse prog profile in
    let feedback = Sched.Feedback.make prog profile analysis in
    let row =
      Sched.Metrics.compute ~name:w.Workload.w_name ~ld_src
        ~fusion_strategy:w.Workload.fusion prog profile analysis
    in
    { row;
      polly;
      pipeline =
        Some
          { Polyprof.prog;
            hir = Some w.Workload.hir;
            profile;
            analysis;
            feedback };
      dep_keys;
      sched_bailed = false;
      lint;
      xform =
        (if xverify then
           Some
             (Polyprof.apply_and_verify ~name:w.Workload.w_name w.Workload.hir)
         else None) }
  end

let run_all ?budget ?crosscheck ?xverify () =
  List.map (fun w -> (w, run ?budget ?crosscheck ?xverify w)) Rodinia.all

let full_header = Sched.Metrics.header @ [ "Polly" ]

let table5 results =
  let rows =
    List.map
      (fun ((_ : Workload.t), o) ->
        Sched.Metrics.to_strings o.row
        @ [ Staticbase.Polly_lite.reasons_string o.polly ])
      results
  in
  Report.Texttable.render ~header:full_header rows

let verify_table results =
  let rows =
    List.map
      (fun ((w : Workload.t), o) ->
        match o.xform with
        | None ->
            [ w.Workload.w_name; "-"; "-"; "-"; "-";
              (if o.sched_bailed then "sched bailed out" else "not run") ]
        | Some (s : Xform.Driver.summary) ->
            let plans = List.length s.Xform.Driver.sm_entries in
            let note =
              let rejected =
                List.filter_map
                  (fun (e : Xform.Driver.entry) ->
                    match e.Xform.Driver.en_status with
                    | Xform.Driver.Rejected why -> Some why
                    | _ -> None)
                  s.Xform.Driver.sm_entries
              in
              match rejected with [] -> "" | why :: _ -> why
            in
            [ w.Workload.w_name;
              string_of_int plans;
              string_of_int s.Xform.Driver.sm_verified;
              string_of_int s.Xform.Driver.sm_rejected;
              string_of_int s.Xform.Driver.sm_skipped;
              note ])
      results
  in
  Report.Texttable.render
    ~header:[ "Benchmark"; "Plans"; "Verified"; "Rejected"; "Skipped"; "Note" ]
    rows

let table5_with_paper results =
  let rows =
    List.concat_map
      (fun ((w : Workload.t), o) ->
        let measured =
          Sched.Metrics.to_strings o.row
          @ [ Staticbase.Polly_lite.reasons_string o.polly ]
        in
        match w.Workload.paper with
        | None -> [ measured ]
        | Some p ->
            [ measured;
              [ "  (paper)"; "-"; "-"; p.Workload.p_aff; p.p_region; "-"; "-";
                "-";
                (if p.p_interproc then "Y" else "N");
                (if p.p_skew then "Y" else "N");
                p.p_par; p.p_simd; p.p_reuse; p.p_preuse;
                Printf.sprintf "%dD" p.p_ld_src;
                Printf.sprintf "%dD" p.p_ld_bin;
                (if p.p_tiled = 0 then "-" else Printf.sprintf "%dD" p.p_tiled);
                p.p_tilops; p.p_c; p.p_comp; p.p_fusion; p.p_polly ] ])
      results
  in
  Report.Texttable.render ~header:full_header rows

(* ------------------------------------------------------------------ *)
(* Autotuning (Tune.Search) over the suite                             *)
(* ------------------------------------------------------------------ *)

(* Workloads the autotuner searches: the fully static PolyBench kernels
   plus mini-Rodinia programs whose hot region is a plain loop nest.
   streamcluster is excluded — its scheduling stage bails out and the
   search driver refuses it for the same dependence-budget reason. *)
let autotune_suite : Workload.t list =
  Polybench.all
  @ [ Backprop.workload;
      Hotspot.workload;
      Kmeans.workload;
      Nw.workload;
      Pathfinder.workload;
      Srad.v1 ]

let autotune_all ?config () =
  List.map
    (fun (w : Workload.t) ->
      ( w.Workload.w_name,
        Polyprof.autotune ?config ~name:w.Workload.w_name w.Workload.hir ))
    autotune_suite

let autotune_table results =
  let rows =
    List.map
      (fun (name, r) ->
        match r with
        | Error e -> [ name; "-"; "-"; "-"; "-"; "-"; e ]
        | Ok (s : Tune.Search.t) ->
            let best, speedup =
              match s.Tune.Search.r_best with
              | None -> ("identity", "1.00x")
              | Some b ->
                  ( String.concat " ; " b.Tune.Search.b_steps,
                    Printf.sprintf "%.2fx" b.Tune.Search.b_speedup )
            in
            [ name;
              string_of_int s.Tune.Search.r_explored;
              string_of_int s.Tune.Search.r_illegal;
              string_of_int s.Tune.Search.r_measured;
              string_of_int s.Tune.Search.r_verified;
              speedup;
              best ])
      results
  in
  Report.Texttable.render
    ~header:
      [ "Benchmark"; "Explored"; "Illegal"; "Measured"; "Verified";
        "Speedup"; "Best schedule" ]
    rows
