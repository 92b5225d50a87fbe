(* POLY-PROF command-line interface.

   Usage examples:
     polyprof list
     polyprof run backprop
     polyprof flamegraph backprop -o backprop.svg
     polyprof table5 --paper
     polyprof polly lud
     polyprof trace show backprop --limit 40 *)

open Cmdliner

let bench_arg =
  let doc = "Benchmark name (see $(b,polyprof list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

(* an optional BENCH: the named workload verbosely, else the suite *)
let opt_bench_arg doc =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

(* --telemetry / POLYPROF_TELEMETRY: run the command with the
   self-profiling subsystem on and print its span/metric summary on
   stderr when the command finishes *)
let telemetry_flag =
  let env = Cmd.Env.info Obs.Registry.env_var in
  Arg.(
    value & flag
    & info [ "telemetry" ] ~env
        ~doc:
          "Enable the self-profiling telemetry subsystem; on exit, print \
           the span and metric summary on stderr.")

let with_telemetry enabled f =
  if not (enabled || Obs.Registry.enabled ()) then f ()
  else begin
    Obs.Registry.enable ();
    Fun.protect
      ~finally:(fun () ->
        let roots = Obs.Span.roots () in
        let metrics = Obs.Metrics.snapshot () in
        prerr_string (Report.Obs_report.summary ~metrics roots))
      f
  end

let with_workload name f =
  match Workloads.Runner.find name with
  | Error e ->
      prerr_endline e;
      1
  | Ok w -> f w

(* no BENCH given means the whole [suite] *)
let with_workloads ?(suite = Workloads.Runner.suite) bench f =
  match bench with
  | None -> f suite
  | Some name -> with_workload name (fun w -> f [ w ])

let print_json doc = print_string (Obs.Json_emit.to_string ~pretty:true doc)

let list_cmd =
  let run () =
    List.iter
      (fun (w : Workloads.Workload.t) -> print_endline w.w_name)
      Workloads.Runner.suite;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available mini benchmarks")
    Term.(const run $ const ())

let run_cmd =
  let run name telemetry =
    with_telemetry telemetry @@ fun () ->
    with_workload name @@ fun w ->
    let o = Workloads.Runner.run w in
    match o.pipeline with
    | None ->
        Format.printf
          "scheduling stage bailed out (%d dependence relations > budget \
           %d)@."
          o.dep_keys Workloads.Runner.sched_budget;
        0
    | Some t ->
        Format.printf "== %s ==@." name;
        Polyprof.render_feedback Format.std_formatter t;
        Format.printf "@.== metrics ==@.";
        Sched.Metrics.pp_table Format.std_formatter [ o.row ];
        Format.printf "@.== static Polly baseline ==@.%a@."
          Staticbase.Polly_lite.pp_verdict o.polly;
        0
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run the full POLY-PROF pipeline on a benchmark and print its \
             feedback")
    Term.(const run $ bench_arg $ telemetry_flag)

let flamegraph_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write an SVG flame graph.")
  in
  let run name out telemetry =
    with_telemetry telemetry @@ fun () ->
    with_workload name @@ fun w ->
    let t = Polyprof.run_hir w.Workloads.Workload.hir in
    (match out with
    | Some path ->
        let annot =
          Report.Flamegraph.annot_of_analysis t.Polyprof.prog
            t.Polyprof.analysis
        in
        Report.Flamegraph.write_svg ~path ~annot ~name:(Polyprof.ctx_name t)
          t.Polyprof.profile.Ddg.Depprof.stree;
        Format.printf "wrote %s@." path
    | None -> print_string (Polyprof.flamegraph_ascii t));
    0
  in
  Cmd.v
    (Cmd.info "flamegraph"
       ~doc:"Render the dynamic schedule tree as a flame graph")
    Term.(const run $ bench_arg $ out $ telemetry_flag)

let table5_cmd =
  let paper =
    Arg.(
      value & flag
      & info [ "paper" ] ~doc:"Interleave the paper's reference rows.")
  in
  let run paper telemetry =
    with_telemetry telemetry @@ fun () ->
    let results = Workloads.Runner.run_all () in
    print_string
      (if paper then Workloads.Runner.table5_with_paper results
       else Workloads.Runner.table5 results);
    0
  in
  Cmd.v
    (Cmd.info "table5"
       ~doc:"Reproduce the paper's Table 5 over all 19 mini benchmarks")
    Term.(const run $ paper $ telemetry_flag)

let polly_cmd =
  let run name =
    with_workload name @@ fun w ->
    let v =
      Staticbase.Polly_lite.analyse_function w.Workloads.Workload.hir
        w.Workloads.Workload.kernel_func
    in
    Format.printf "%s (%s): %a@." name w.Workloads.Workload.kernel_func
      Staticbase.Polly_lite.pp_verdict v;
    0
  in
  Cmd.v
    (Cmd.info "polly"
       ~doc:"Run the static Polly baseline on a benchmark's kernel \
             (Experiment II)")
    Term.(const run $ bench_arg)

let trace_cmd =
  let limit =
    Arg.(
      value & opt int 60
      & info [ "limit" ] ~docv:"N" ~doc:"Print the first N loop events.")
  in
  let run name limit =
    with_workload name @@ fun w ->
    let prog = Vm.Hir.lower w.Workloads.Workload.hir in
    (* a speculated structure is checked on the whole run: run to the
       end, keep the first [limit] lines, print those of the accepted
       pass *)
    let show structure tee =
      let iiv = Ddg.Iiv.create () in
      let levents =
        Ddg.Loop_events.create structure ~main:prog.Vm.Prog.main
      in
      let count = ref 0 and lines = ref [] in
      let emit ev =
        if !count < limit then begin
          Ddg.Iiv.update iiv ev;
          incr count;
          lines :=
            Format.asprintf "%4d: %-28s %s" !count
              (Format.asprintf "%a" Ddg.Loop_events.pp ev)
              (Ddg.Iiv.to_string iiv)
            :: !lines
        end
      in
      Ddg.Loop_events.start levents ~emit;
      let callbacks =
        { Vm.Interp.on_control = Ddg.Loop_events.feed levents ~emit;
          on_exec = ignore }
      in
      ignore (Vm.Interp.run ~callbacks:(tee callbacks) prog);
      List.rev !lines
    in
    let lines, _, _ = Cfg.Cfg_builder.speculate prog show in
    List.iter (Format.printf "%s@.") lines;
    0
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"Print the loop-event / dynamic-IIV trace of a benchmark \
             (paper Fig. 3 style)")
    Term.(const run $ bench_arg $ limit)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Inspect execution traces")
    [ trace_cmd ]

let deps_cmd =
  let run name telemetry =
    with_telemetry telemetry @@ fun () ->
    with_workload name @@ fun w ->
    let t = Polyprof.run_hir w.Workloads.Workload.hir in
    let fname fid = (t.Polyprof.prog.Vm.Prog.funcs.(fid)).Vm.Prog.fname in
    Format.printf "== folded dependence relations of %s ==@." name;
    List.iter
      (fun (d : Ddg.Depprof.dep_info) ->
        Format.printf "%s.%a -> %s.%a (%s, %d dynamic edges):@."
          (fname (Vm.Isa.Sid.fid d.dk.src_sid))
          Vm.Isa.Sid.pp d.dk.src_sid
          (fname (Vm.Isa.Sid.fid d.dk.dst_sid))
          Vm.Isa.Sid.pp d.dk.dst_sid
          (match d.dk.kind with
          | Ddg.Depprof.Reg_dep -> "reg"
          | Ddg.Depprof.Mem_dep -> "mem"
          | Ddg.Depprof.Out_dep -> "waw")
          d.d_count;
        List.iter
          (fun p ->
            Format.printf "  %a@."
              (Fold.pp_piece ?names:None ?label_names:None) p)
          d.d_pieces)
      t.Polyprof.profile.Ddg.Depprof.deps;
    Format.printf
      "(%d relations; SCEV pruning removed %d of %d dynamic edges)@."
      (List.length t.Polyprof.profile.Ddg.Depprof.deps)
      t.Polyprof.profile.Ddg.Depprof.pruned_dep_edges
      t.Polyprof.profile.Ddg.Depprof.total_dep_edges;
    0
  in
  Cmd.v
    (Cmd.info "deps"
       ~doc:"Print the folded polyhedral dependence relations of a benchmark")
    Term.(const run $ bench_arg $ telemetry_flag)

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit machine-readable JSON on stdout instead of text.")

let lint_cmd =
  let bench =
    opt_bench_arg
      "Benchmark to lint verbosely; without it, lint every bundled \
       benchmark and print the summary table."
  in
  let lint_one (w : Workloads.Workload.t) =
    let prog = Vm.Hir.lower w.Workloads.Workload.hir in
    let e =
      Analysis.Lint.analyse_profiled ~name:w.Workloads.Workload.w_name prog
    in
    (* the opt-in advisories of the static dependence engine: the
       near-miss prunability report and the parallelism certifier *)
    let e = Analysis.Lint.with_almost_affine e prog in
    (prog, Analysis.Lint.with_parallelism e prog)
  in
  let run bench json telemetry =
    with_telemetry telemetry @@ fun () ->
    with_workloads bench @@ fun ws ->
    let linted = List.map lint_one ws in
    let entries = List.map snd linted in
    (match (json, bench, linted) with
    | true, _, _ ->
        (* one compact entry per line: the Makefile's lint-pair
           extractor matches on it *)
        List.iter
          (fun e ->
            print_endline
              (Obs.Json_emit.to_string (Analysis.Lint.entry_json e)))
          entries
    | false, Some _, [ (prog, entry) ] ->
        Format.printf "%a@." (Analysis.Lint.pp_entry ~prog ()) entry
    | false, _, _ ->
        print_string (Analysis.Lint.table entries);
        List.iter
          (fun e ->
            List.iter
              (fun d ->
                Format.printf "%s: %s@." e.Analysis.Lint.e_name
                  (Analysis.Diag.to_string d))
              (Analysis.Lint.errors e))
          entries);
    if List.for_all Analysis.Lint.passed entries then 0 else 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the static analyses (bytecode verifier, definite-init, \
             dead-store, dead-code, redundant-load, affine classifier) and \
             cross-check the profiled DDG against statically-proven \
             independence")
    Term.(const run $ bench $ json_flag $ telemetry_flag)

let staticdep_cmd =
  let bench =
    opt_bench_arg
      "Benchmark to analyse verbosely; without it, print the summary table \
       over every bundled benchmark."
  in
  let prune =
    Arg.(
      value & flag
      & info [ "prune" ]
          ~doc:
            "Also profile the benchmark twice -- with and without the \
             instrumentation-pruning plan -- and report the pruned dynamic \
             access fraction and the equality of the two profiles.")
  in
  let run bench prune json telemetry =
    with_telemetry telemetry @@ fun () ->
    let module R = Workloads.Staticdep_report in
    with_workloads bench @@ fun ws ->
    let rows = List.map (R.measure ~prune) ws in
    if json then
      print_json (R.json rows)
    else begin
      (* a named benchmark also gets the engine's long form *)
      if bench <> None then
        List.iter
          (fun (w : Workloads.Workload.t) ->
            Format.printf "%a@." Analysis.Statdep.pp
              (Analysis.Statdep.analyse (Vm.Hir.lower w.hir)))
          ws;
      print_string (R.table rows)
    end;
    (* a diverging pruned profile turns into a nonzero exit code, so
       `staticdep --prune` doubles as a self-validation smoke test *)
    if List.exists R.diverged rows then 1 else 0
  in
  Cmd.v
    (Cmd.info "staticdep"
       ~doc:"Run the static polyhedral dependence engine: points-to \
             regions, resolved affine accesses, exact per-pair dependence \
             polyhedra, and the instrumentation-pruning plan (with \
             $(b,--prune), validate the pruned profile against the \
             unpruned one)")
    Term.(const run $ bench $ prune $ json_flag $ telemetry_flag)

let parcheck_cmd =
  let bench =
    opt_bench_arg
      "Benchmark to certify verbosely; without it, print the summary table \
       over every bundled benchmark (plus the seeded par_* variants)."
  in
  let static_only =
    Arg.(
      value & flag
      & info [ "static-only" ]
          ~doc:
            "Skip the dynamic race sanitizer run (and with it the \
             static/dynamic cross-check); report static verdicts only.")
  in
  let run bench static_only json telemetry =
    with_telemetry telemetry @@ fun () ->
    let module R = Workloads.Parcheck_report in
    let suite = Workloads.Runner.suite @ Workloads.Polybench.seeded in
    with_workloads ~suite bench @@ fun ws ->
    let rows = List.map (R.measure ~static_only) ws in
    (match (bench, rows) with
    | Some _, [ r ] when json -> print_json (R.workload_json r)
    | Some _, [ r ] ->
        Format.printf "%a@." Analysis.Parcheck.pp_dims r.R.r_dims;
        Option.iter
          (fun (d : R.dynamic) ->
            Format.printf "%a" Ddg.Race_san.pp_report d.R.d_sanitizer;
            List.iter
              (fun g -> Format.printf "%s@." (Analysis.Diag.to_string g))
              d.R.d_diags)
          r.R.r_dynamic
    | _ when json -> print_json (R.json rows)
    | _ -> print_string (R.table rows));
    if List.exists (fun r -> R.unsound r <> None) rows then 1 else 0
  in
  Cmd.v
    (Cmd.info "parcheck"
       ~doc:
         "Certify claimed-parallel loop dimensions: static DOALL \
          certificates (with reduction and privatisation discharge) or \
          concrete race witnesses per chain dimension, cross-checked \
          against one run under the dynamic race sanitizer (a sanitizer \
          race on a certified dimension is a hard failure)")
    Term.(const run $ bench $ static_only $ json_flag $ telemetry_flag)

let transform_cmd =
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Differentially verify each applied plan: run original and \
             transformed programs, compare memory images, re-profile and \
             re-check legality and profitability.")
  in
  let max_plans =
    Arg.(
      value & opt int 8
      & info [ "max-plans" ] ~docv:"N"
          ~doc:"Verify at most N plans (hottest first).")
  in
  let eps =
    Arg.(
      value & opt float 1e-9
      & info [ "eps" ] ~docv:"EPS"
          ~doc:"Relative tolerance for float memory cells.")
  in
  let run name verify max_plans eps telemetry =
    with_telemetry telemetry @@ fun () ->
    with_workload name @@ fun w ->
    let hir = w.Workloads.Workload.hir in
    if not verify then begin
      (* apply the hottest plan and show the transformed source *)
      let t = Polyprof.run_hir hir in
      let plans = Sched.Plan.plans_of_feedback t.Polyprof.feedback in
      match plans with
      | [] ->
          Format.printf "no applicable transformation plans for %s@." name;
          0
      | plan :: _ -> (
          Format.printf "== plan for %s: nest %s ==@." name
            (Sched.Plan.describe plan);
          List.iter
            (fun s -> Format.printf "  %a@." Sched.Transform.pp_step s)
            plan.Sched.Plan.p_steps;
          match Xform.Apply.apply_plan hir plan with
          | Error e ->
              Format.printf "cannot apply: %s@." e;
              1
          | Ok o ->
              List.iter
                (fun a -> Format.printf "%a@." Xform.Apply.pp_applied a)
                o.Xform.Apply.o_applied;
              List.iter
                (fun (s, why) ->
                  Format.printf "skipped %a: %s@." Sched.Transform.pp_step s
                    why)
                o.Xform.Apply.o_skipped;
              Format.printf "== transformed source ==@.%a@."
                Vm.Hir.pp_program o.Xform.Apply.o_hir;
              0)
    end
    else begin
      let summary =
        Polyprof.apply_and_verify ~eps ~max_plans ~name hir
      in
      Format.printf "%a@." Xform.Driver.pp_summary summary;
      if summary.Xform.Driver.sm_rejected = 0 then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:
         "Apply the suggested transformation schedule of a benchmark to its \
          HIR source ($(b,--verify): prove it equivalent, legal and \
          profitable by differential re-profiling)")
    Term.(const run $ bench_arg $ verify $ max_plans $ eps $ telemetry_flag)

let source_cmd =
  let run name =
    with_workload name @@ fun w ->
    Format.printf "%a@." Vm.Hir.pp_program w.Workloads.Workload.hir;
    0
  in
  Cmd.v
    (Cmd.info "source"
       ~doc:"Print the C-like source listing of a benchmark (what the              static baseline analyses)")
    Term.(const run $ bench_arg)

let telemetry_cmd =
  let file_opt names docv doc =
    Arg.(value & opt (some string) None & info names ~docv ~doc)
  in
  let trace_json =
    file_opt [ "trace-json" ] "FILE"
      "Write a Chrome trace-event JSON (loadable in Perfetto or \
       chrome://tracing)."
  in
  let prom =
    file_opt [ "prom" ] "FILE" "Write a Prometheus text exposition."
  in
  let svg =
    file_opt [ "svg" ] "FILE" "Write a self-profile flame graph SVG."
  in
  let run name trace_json prom svg =
    with_workload name @@ fun w ->
    Obs.Registry.enable ();
    Obs.Metrics.reset ();
    Obs.Span.reset ();
    let o = Workloads.Runner.run w in
    Format.printf "== %s pipeline telemetry (sched %s) ==@." name
      (if o.Workloads.Runner.sched_bailed then "bailed" else "ok");
    let roots = Obs.Span.roots () in
    let metrics = Obs.Metrics.snapshot () in
    print_string (Report.Obs_report.summary ~metrics roots);
    let wrote = ref 0 in
    Option.iter
      (fun path ->
        Obs.Chrome.write_file ~path ~process_name:("polyprof " ^ name)
          ~metrics roots;
        match Obs.Chrome.validate_file path with
        | Ok n ->
            incr wrote;
            Format.printf "wrote %s (%d trace events, validated)@." path n
        | Error e ->
            Format.eprintf "emitted Chrome trace failed validation: %s@." e)
      trace_json;
    Option.iter
      (fun path ->
        Obs.Prometheus.write_file ~path metrics;
        incr wrote;
        Format.printf "wrote %s@." path)
      prom;
    Option.iter
      (fun path ->
        Report.Obs_report.write_flamegraph_svg ~path roots;
        incr wrote;
        Format.printf "wrote %s@." path)
      svg;
    0
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:
         "Run the full pipeline on a benchmark with self-profiling on and \
          report the telemetry: phase spans (wall time, GC words, heap \
          watermark) and subsystem counters, with optional Chrome-trace \
          JSON, Prometheus and flame-graph SVG exports")
    Term.(const run $ bench_arg $ trace_json $ prom $ svg)

let overhead_cmd =
  let repeat =
    Arg.(
      value & opt int 3
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Repetitions per configuration (best wall time wins).")
  in
  let run name json repeat =
    with_workload name @@ fun w ->
    let o = Workloads.Overhead.measure ~repeat w in
    if json then print_json (Workloads.Overhead.json o)
    else print_string (Workloads.Overhead.table o);
    0
  in
  Cmd.v
    (Cmd.info "overhead"
       ~doc:
         "Measure the profiling overhead of a benchmark (paper \u{00a7}8): \
          native vs in-process instrumented vs statically-pruned wall time")
    Term.(const run $ bench_arg $ json_flag $ repeat)

let autotune_cmd =
  let beam =
    Arg.(
      value & opt int Tune.Search.default.Tune.Search.beam
      & info [ "beam" ] ~docv:"N" ~doc:"Beam width (measured candidates per level).")
  in
  let depth =
    Arg.(
      value & opt int Tune.Search.default.Tune.Search.depth
      & info [ "depth" ] ~docv:"N" ~doc:"Maximum number of composed steps.")
  in
  let repeat =
    Arg.(
      value & opt int Tune.Search.default.Tune.Search.repeat
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Timed runs per measured candidate (median wins).")
  in
  let seed =
    Arg.(
      value & opt int Tune.Search.default.Tune.Search.seed
      & info [ "seed" ] ~docv:"N"
          ~doc:"Tie-break seed of the deterministic ranking.")
  in
  let svg =
    Arg.(
      value & opt (some string) None
      & info [ "svg" ] ~docv:"FILE"
          ~doc:"Write the search tree as a flame-graph SVG to $(docv).")
  in
  let run name beam depth repeat seed json svg telemetry =
    with_telemetry telemetry @@ fun () ->
    with_workload name @@ fun w ->
    let config =
      { Tune.Search.default with
        Tune.Search.beam;
        depth;
        repeat;
        seed }
    in
    let result =
      Polyprof.autotune ~config ~name:w.Workloads.Workload.w_name
        w.Workloads.Workload.hir
    in
    (match (svg, result) with
    | Some path, Ok r ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Tune.Tune_report.svg_of r))
    | _ -> ());
    if json then begin
      print_json (Tune.Tune_report.workload_json ~name result);
      match result with Ok _ -> 0 | Error _ -> 1
    end
    else
      match result with
      | Error e ->
          Format.printf "autotune %s: %s@." name e;
          1
      | Ok r ->
          Format.printf "%a@." Tune.Tune_report.render r;
          0
  in
  Cmd.v
    (Cmd.info "autotune"
       ~doc:
         "Close the PGO loop: beam-search the legal schedule space of a \
          benchmark (interchange/skew/tile/fuse/distribute, gated by the \
          profiled direction vectors), rank candidates with the two-stage \
          cost model, measure the beam survivors and differentially verify \
          every one; report the best verified schedule")
    Term.(
      const run $ bench_arg $ beam $ depth $ repeat $ seed $ json_flag $ svg
      $ telemetry_flag)

(* ------------------------------------------------------------------ *)
(* perfdiff: the BENCH_* regression sentinel                            *)
(* ------------------------------------------------------------------ *)

let bench_name_of_file path =
  let base = Filename.basename path in
  let base =
    match Filename.chop_suffix_opt ~suffix:".json" base with
    | Some b -> b
    | None -> base
  in
  if String.length base > 6 && String.sub base 0 6 = "BENCH_" then
    String.sub base 6 (String.length base - 6)
  else base

let perfdiff_cmd =
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILES"
          ~doc:
            "BENCH_*.json documents to compare (default: every \
             BENCH_*.json in the current directory).")
  in
  let history =
    Arg.(
      value & opt string "bench/history"
      & info [ "history" ] ~docv:"DIR"
          ~doc:"Performance-history directory (one JSONL file per bench).")
  in
  let window =
    Arg.(
      value & opt int 5
      & info [ "window" ] ~docv:"N"
          ~doc:"Baseline = per-metric median over the last $(docv) recorded \
                runs.")
  in
  let report_only =
    Arg.(
      value & flag
      & info [ "report-only" ]
          ~doc:"Report regressions but always exit 0 (CI soak mode).")
  in
  let bless =
    Arg.(
      value & flag
      & info [ "bless" ]
          ~doc:
            "Append $(i,FILES) to the history as accepted baselines instead \
             of diffing against it.")
  in
  let asserts =
    let assertion =
      Arg.conv
        ( (fun s ->
            Result.map_error (fun e -> `Msg e) (Obs.Perfhist.assertion_of_string s)),
          fun fmt a -> Format.pp_print_string fmt (Obs.Perfhist.assertion_to_string a) )
    in
    Arg.(
      value & opt_all assertion []
      & info [ "assert" ] ~docv:"'NAME OP VALUE'"
          ~doc:
            "Instead of diffing against the history, check that the dotted \
             metric $(i,NAME) of $(i,FILES) (as flattened for the history, \
             e.g. metrics.ddg.profile.scev_reruns.value) compares to \
             $(i,VALUE) by $(i,OP), one of <=, >= and ==.  Repeatable; \
             every document that has the metric must satisfy it, and one \
             must have it.  Prints one line per check.")
  in
  let fmt_val = Printf.sprintf "%.6g" in
  let fmt_opt = function Some v -> fmt_val v | None -> "-" in
  (* --assert: each assertion against every document, no history *)
  let check_assertions asserts docs =
    let results =
      List.map
        (fun a ->
          let checks =
            List.filter_map
              (fun (path, _, doc) ->
                Option.map
                  (fun (v, ok) -> (path, v, ok))
                  (Obs.Perfhist.check a (Obs.Perfhist.flatten doc)))
              docs
          in
          (a, checks, checks <> [] && List.for_all (fun (_, _, ok) -> ok) checks))
        asserts
    in
    List.iter
      (fun (a, checks, _) ->
        let a = Obs.Perfhist.assertion_to_string a in
        match checks with
        | [] -> Printf.printf "FAIL %s: no document has the metric\n" a
        | _ ->
            List.iter
              (fun (path, v, holds) ->
                Printf.printf "%s %s: %s in %s\n" (if holds then "ok  " else "FAIL") a
                  (fmt_val v) path)
              checks)
      results;
    List.length (List.filter (fun (_, _, ok) -> not ok) results)
  in
  let run files history window report_only bless asserts json =
    let files =
      if files <> [] then files
      else
        Sys.readdir "." |> Array.to_list
        |> List.filter (fun f ->
               String.length f > 6
               && String.sub f 0 6 = "BENCH_"
               && Filename.check_suffix f ".json")
        |> List.sort compare
    in
    if files = [] then begin
      prerr_endline
        "perfdiff: no BENCH_*.json documents found (run the benches with \
         --json first, or pass files explicitly)";
      1
    end
    else begin
      let broken = ref false in
      let docs =
        List.filter_map
          (fun path ->
            match Obs.Json_emit.parse_file path with
            | Ok doc -> Some (path, bench_name_of_file path, doc)
            | Error e ->
                Printf.eprintf "perfdiff: %s: %s\n" path e;
                broken := true;
                None)
          files
      in
      if asserts <> [] then
        if check_assertions asserts docs > 0 || !broken then 1 else 0
      else if bless then begin
        List.iter
          (fun (path, bench, doc) ->
            Obs.Perfhist.record ~dir:history ~bench doc;
            Printf.printf "blessed %s -> %s\n" path
              (Obs.Perfhist.history_file ~dir:history ~bench))
          docs;
        if !broken then 1 else 0
      end
      else begin
        let regressed_total = ref 0 in
        let results =
          List.map
            (fun (path, bench, doc) ->
              let entries = Obs.Perfhist.load ~dir:history ~bench in
              let current = Obs.Perfhist.flatten doc in
              if entries = [] then (path, bench, None)
              else begin
                let baseline = Obs.Perfhist.baseline ~window entries in
                let rows = Obs.Perfhist.diff ~baseline ~current in
                regressed_total :=
                  !regressed_total
                  + List.length (Obs.Perfhist.regressions rows);
                (path, bench, Some (List.length entries, rows))
              end)
            docs
        in
        let gating = not report_only in
        if json then
          print_json
            (Obs.Json_emit.Obj
               [ ("schema_version", Obs.Json_emit.Int Obs.Schemas.perfhist);
                 ("history_dir", Obs.Json_emit.Str history);
                 ("window", Obs.Json_emit.Int window);
                 ("gating", Obs.Json_emit.Bool gating);
                 ("regressed_total", Obs.Json_emit.Int !regressed_total);
                 ( "benches",
                   Obs.Json_emit.List
                     (List.map
                        (fun (path, bench, res) ->
                          Obs.Json_emit.Obj
                            ([ ("bench", Obs.Json_emit.Str bench);
                               ("file", Obs.Json_emit.Str path) ]
                            @
                            match res with
                            | None ->
                                [ ("history", Obs.Json_emit.Bool false) ]
                            | Some (n, rows) ->
                                [ ("history", Obs.Json_emit.Bool true);
                                  ("history_entries", Obs.Json_emit.Int n);
                                  ( "regressed",
                                    Obs.Json_emit.Int
                                      (List.length
                                         (Obs.Perfhist.regressions rows))
                                  );
                                  ( "rows",
                                    Obs.Json_emit.List
                                      (List.map Obs.Perfhist.row_json rows)
                                  ) ]))
                        results) ) ])
        else
          List.iter
            (fun (path, bench, res) ->
              match res with
              | None ->
                  Printf.printf
                    "%s: no recorded history in %s (accept with: polyprof \
                     perfdiff --bless %s)\n"
                    bench history path
              | Some (n, rows) ->
                  let interesting =
                    List.filter
                      (fun (r : Obs.Perfhist.row) ->
                        match r.Obs.Perfhist.r_verdict with
                        | Obs.Perfhist.Regressed | Obs.Perfhist.Improved
                        | Obs.Perfhist.New_metric | Obs.Perfhist.Missing ->
                            true
                        | Obs.Perfhist.Within | Obs.Perfhist.Info -> false)
                      rows
                  in
                  let count v =
                    List.length
                      (List.filter
                         (fun (r : Obs.Perfhist.row) ->
                           r.Obs.Perfhist.r_verdict = v)
                         rows)
                  in
                  Printf.printf
                    "%s: %d metrics vs median of last %d run(s): %d ok, %d \
                     regressed, %d improved, %d new, %d missing, %d info\n"
                    bench (List.length rows) (min window n)
                    (count Obs.Perfhist.Within)
                    (count Obs.Perfhist.Regressed)
                    (count Obs.Perfhist.Improved)
                    (count Obs.Perfhist.New_metric)
                    (count Obs.Perfhist.Missing)
                    (count Obs.Perfhist.Info);
                  if interesting <> [] then
                    print_string
                      (Report.Texttable.render
                         ~header:
                           [ "metric"; "baseline"; "current"; "delta";
                             "tol"; "verdict" ]
                         (List.map
                            (fun (r : Obs.Perfhist.row) ->
                              [ r.Obs.Perfhist.r_metric;
                                fmt_opt r.Obs.Perfhist.r_base;
                                fmt_opt r.Obs.Perfhist.r_cur;
                                (match r.Obs.Perfhist.r_delta_pct with
                                | Some d -> Printf.sprintf "%+.1f%%" d
                                | None -> "-");
                                Printf.sprintf "%.0f%%"
                                  (r.Obs.Perfhist.r_tol *. 100.0);
                                Obs.Perfhist.verdict_name
                                  r.Obs.Perfhist.r_verdict ])
                            interesting)))
            results;
        if !broken || (gating && !regressed_total > 0) then 1 else 0
      end
    end
  in
  Cmd.v
    (Cmd.info "perfdiff"
       ~doc:
         "Compare current BENCH_*.json documents against the recorded \
          performance history with noise-aware per-metric tolerance bands \
          (wall-clock 25%, allocation 15%, deterministic fractions 2%); \
          exits nonzero when a gated metric regressed beyond its band \
          unless $(b,--report-only).  With $(b,--assert), check absolute \
          bounds on the documents instead")
    Term.(
      const run $ files_arg $ history $ window $ report_only $ bless
      $ asserts $ json_flag)

let version_cmd =
  let run json =
    if json then
      print_json
        (Obs.Json_emit.Obj
           [ ("version", Obs.Json_emit.Str Polyprof.version);
             ( "schemas",
               Obs.Json_emit.List
                 (List.map
                    (fun (s : Obs.Schemas.t) ->
                      Obs.Json_emit.Obj
                        [ ("name", Obs.Json_emit.Str s.Obs.Schemas.s_name);
                          ("file", Obs.Json_emit.Str s.Obs.Schemas.s_file);
                          ( "schema_version",
                            Obs.Json_emit.Int s.Obs.Schemas.s_version ) ])
                    Obs.Schemas.all) ) ])
    else begin
      Printf.printf "polyprof %s\n" Polyprof.version;
      Printf.printf "report schemas:\n";
      List.iter
        (fun (s : Obs.Schemas.t) ->
          Printf.printf "  %-10s v%-2d %s\n" s.Obs.Schemas.s_name
            s.Obs.Schemas.s_version s.Obs.Schemas.s_file)
        Obs.Schemas.all
    end;
    0
  in
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "Print the binary version and the schema_version of every \
          machine-readable report this tree emits")
    Term.(const run $ json_flag)

let () =
  let doc =
    "data-flow/dependence profiling for structured transformations \
     (PPoPP 2019 reproduction)"
  in
  let info = Cmd.info "polyprof" ~version:Polyprof.version ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; run_cmd; flamegraph_cmd; table5_cmd; polly_cmd; trace_cmd;
            deps_cmd; lint_cmd; staticdep_cmd; parcheck_cmd; transform_cmd;
            autotune_cmd;
            source_cmd; telemetry_cmd; overhead_cmd; perfdiff_cmd; version_cmd ]))
