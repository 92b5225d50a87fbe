(* POLY-PROF command-line interface.

   Usage examples:
     polyprof list
     polyprof run backprop
     polyprof flamegraph backprop -o backprop.svg
     polyprof table5 --paper
     polyprof polly lud
     polyprof trace show backprop --limit 40
     polyprof trace stats backprop *)

open Cmdliner

let bench_arg =
  let doc = "Benchmark name (see $(b,polyprof list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

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

let polybench_names =
  List.map (fun (w : Workloads.Workload.t) -> w.w_name) Workloads.Polybench.all

let find_workload name =
  try Ok (Workloads.Rodinia.find name)
  with Invalid_argument _ -> (
    if name = "gems_fdtd" then Ok Workloads.Gems_fdtd.workload
    else
      match
        List.find_opt
          (fun (w : Workloads.Workload.t) -> w.w_name = name)
          (Workloads.Polybench.all @ Workloads.Polybench.seeded)
      with
      | Some w -> Ok w
      | None ->
          Error
            (Printf.sprintf "unknown benchmark %s (try: %s, gems_fdtd, %s)"
               name
               (String.concat ", " Workloads.Rodinia.names)
               (String.concat ", " polybench_names)))

let list_cmd =
  let run () =
    List.iter print_endline Workloads.Rodinia.names;
    print_endline "gems_fdtd";
    List.iter print_endline polybench_names;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available mini benchmarks")
    Term.(const run $ const ())

let run_cmd =
  let run name telemetry =
    with_telemetry telemetry @@ fun () ->
    match find_workload name with
    | Error e ->
        prerr_endline e;
        1
    | Ok w -> (
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
            0)
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
    match find_workload name with
    | Error e ->
        prerr_endline e;
        1
    | Ok w ->
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
    match find_workload name with
    | Error e ->
        prerr_endline e;
        1
    | Ok w ->
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
      & info [ "limit" ] ~docv:"N" ~doc:"Stop after N loop events.")
  in
  let run name limit =
    match find_workload name with
    | Error e ->
        prerr_endline e;
        1
    | Ok w ->
        let prog = Vm.Hir.lower w.Workloads.Workload.hir in
        let structure = Cfg.Cfg_builder.run prog in
        let iiv = Ddg.Iiv.create () in
        let levents =
          Ddg.Loop_events.create structure ~main:prog.Vm.Prog.main
        in
        let count = ref 0 in
        let exception Done in
        let show evs =
          List.iter
            (fun ev ->
              Ddg.Iiv.update iiv ev;
              incr count;
              if !count <= limit then
                Format.printf "%4d: %-28s %s@." !count
                  (Format.asprintf "%a" Ddg.Loop_events.pp ev)
                  (Ddg.Iiv.to_string iiv)
              else raise Done)
            evs
        in
        (try
           show (Ddg.Loop_events.start levents);
           let callbacks =
             { Vm.Interp.on_control =
                 (fun ev -> show (Ddg.Loop_events.feed levents ev));
               on_exec = ignore }
           in
           ignore (Vm.Interp.run ~callbacks prog)
         with Done -> ());
        0
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"Print the loop-event / dynamic-IIV trace of a benchmark \
             (paper Fig. 3 style)")
    Term.(const run $ bench_arg $ limit)

let trace_record_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Trace file to write.")
  in
  let chunk =
    Arg.(
      value
      & opt int Stream.Sink.default_chunk_bytes
      & info [ "chunk-bytes" ] ~docv:"BYTES"
          ~doc:"Chunk payload budget of the binary codec.")
  in
  let run name out chunk telemetry =
    with_telemetry telemetry @@ fun () ->
    match find_workload name with
    | Error e ->
        prerr_endline e;
        1
    | Ok w ->
        let prog = Vm.Hir.lower w.Workloads.Workload.hir in
        let wi = Stream.Trace_file.record_to_file ~chunk_bytes:chunk prog out in
        Format.printf
          "wrote %s: %d events in %d chunks, %d bytes (%.2f s, %.1f Mev/s)@."
          out wi.Stream.Trace_file.wi_events wi.wi_chunks wi.wi_bytes
          wi.wi_seconds
          (float_of_int wi.wi_events /. (wi.wi_seconds +. 1e-9) /. 1e6);
        0
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Execute a benchmark once, streaming its event trace to a \
             binary file (out-of-core: memory stays one chunk)")
    Term.(const run $ bench_arg $ out $ chunk $ telemetry_flag)

let trace_stats_cmd =
  let run name telemetry =
    with_telemetry telemetry @@ fun () ->
    match find_workload name with
    | Error e ->
        prerr_endline e;
        1
    | Ok w ->
        let now = Obs.Clock.monotonic in
        let prog = Vm.Hir.lower w.Workloads.Workload.hir in
        let trace, stats = Vm.Trace.record prog in
        let mem_bytes = String.length (Marshal.to_string trace []) in
        let path = Filename.temp_file "polyprof" ".trace" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        @@ fun () ->
        let t0 = now () in
        let disk_bytes = Stream.Trace_file.save ~stats trace path in
        let t_enc = now () -. t0 in
        let t0 = now () in
        let decoded =
          Stream.Source.with_file path (fun src ->
              let n = ref 0 in
              Stream.Source.iter src (fun _ -> incr n);
              !n)
        in
        let t_dec = now () -. t0 in
        let builder = Cfg.Cfg_builder.create prog in
        Stream.Source.with_file path (fun src ->
            Stream.Source.replay src (Cfg.Cfg_builder.callbacks builder));
        let structure = Cfg.Cfg_builder.finalize builder in
        let t0 = now () in
        let { Stream.Par_profile.result } =
          Stream.Par_profile.profile_file path prog ~structure
        in
        let t_replay = now () -. t0 in
        let mevs n s = float_of_int n /. (s +. 1e-9) /. 1e6 in
        let mbs n s = float_of_int n /. (s +. 1e-9) /. (1024. *. 1024.) in
        Format.printf "== trace stats: %s ==@." name;
        Format.printf "events          %d (%d control, %d exec)@."
          (Vm.Trace.n_events trace) (Vm.Trace.n_control trace)
          (Vm.Trace.n_exec trace);
        Format.printf "bytes on disk   %d (in-memory %d, %.1fx smaller)@."
          disk_bytes mem_bytes
          (float_of_int mem_bytes /. float_of_int (max 1 disk_bytes));
        Format.printf "encode          %.2f Mev/s, %.1f MB/s@."
          (mevs (Vm.Trace.n_events trace) t_enc)
          (mbs disk_bytes t_enc);
        Format.printf "decode          %.2f Mev/s, %.1f MB/s (%d events)@."
          (mevs decoded t_dec) (mbs disk_bytes t_dec) decoded;
        Format.printf "replay          %.3f s: %d statements, %d dependence \
                       relations, %d dynamic edges@."
          t_replay
          (List.length result.Ddg.Depprof.stmts)
          (List.length result.Ddg.Depprof.deps)
          result.Ddg.Depprof.total_dep_edges;
        0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Record a benchmark's trace to disk, decode it back and \
             profile it by replaying the file, printing codec counters \
             and the replay's time and profile size")
    Term.(const run $ bench_arg $ telemetry_flag)

(* daemon endpoint args, shared by the serve-client commands and
   [trace fetch] *)
let socket_arg =
  Arg.(
    value
    & opt string Serve.Server.default_socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port on 127.0.0.1 (in addition to the Unix socket).")

let endpoint_of socket port =
  match port with
  | Some p -> Serve.Client.Tcp ("127.0.0.1", p)
  | None -> Serve.Client.Unix_sock socket

let trace_fetch_cmd =
  let tid =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE_ID"
          ~doc:
            "Trace id, as returned in every job response ($(b,trace_id)) \
             and in the /metrics exemplar lines.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write to $(docv) instead of stdout.")
  in
  let run socket port tid out =
    match
      Serve.Client.request (endpoint_of socket port) ~meth:"GET"
        ~path:("/trace/" ^ tid) ()
    with
    | Error e ->
        prerr_endline e;
        1
    | Ok { Serve.Http.rs_status = 200; rs_body; _ } ->
        (match out with
        | None ->
            print_string rs_body;
            print_newline ()
        | Some path ->
            let oc = open_out path in
            output_string oc rs_body;
            close_out oc);
        0
    | Ok rs ->
        prerr_endline rs.Serve.Http.rs_body;
        1
  in
  Cmd.v
    (Cmd.info "fetch"
       ~doc:
         "Resolve a serve-daemon trace id to its span tree (queue wait, \
          execution, cache store) as a Chrome-trace JSON document, ready \
          for chrome://tracing or Perfetto")
    Term.(const run $ socket_arg $ port_arg $ tid $ out)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Record, inspect and profile execution traces")
    [ trace_cmd; trace_record_cmd; trace_stats_cmd; trace_fetch_cmd ]

let deps_cmd =
  let run name telemetry =
    with_telemetry telemetry @@ fun () ->
    match find_workload name with
    | Error e ->
        prerr_endline e;
        1
    | Ok w ->
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

let json_string = Obs.Json_emit.escape_string

let lint_entry_json (e : Analysis.Lint.entry) =
  let c sev = Analysis.Diag.count sev e.Analysis.Lint.e_diags in
  let diags =
    String.concat ", "
      (List.map
         (fun (d : Analysis.Diag.t) ->
           Printf.sprintf
             "{\"severity\": %s, \"code\": %s, \"fid\": %d, \"message\": %s}"
             (json_string
                (match d.severity with
                | Analysis.Diag.Error -> "error"
                | Analysis.Diag.Warning -> "warning"
                | Analysis.Diag.Info -> "info"))
             (json_string d.code) d.fid (json_string d.message))
         e.Analysis.Lint.e_diags)
  in
  let xcheck =
    match e.Analysis.Lint.e_xcheck with
    | None -> "null"
    | Some r ->
        Printf.sprintf
          "{\"facts\": %d, \"checked_edges\": %d, \"skipped_edges\": %d, \
           \"skip_norange\": %d, \"skip_crossfn\": %d, \"poly_pairs\": %d, \
           \"poly_checked\": %d, \"sim_must\": %d, \"sim_may\": %d, \
           \"sim_skipped\": %b, \"violations\": %d}"
          r.Analysis.Crosscheck.facts r.Analysis.Crosscheck.checked_edges
          r.Analysis.Crosscheck.skipped_edges
          r.Analysis.Crosscheck.skip_norange
          r.Analysis.Crosscheck.skip_crossfn
          r.Analysis.Crosscheck.poly_pairs
          r.Analysis.Crosscheck.poly_checked r.Analysis.Crosscheck.sim_must
          r.Analysis.Crosscheck.sim_may r.Analysis.Crosscheck.sim_skipped
          (List.length r.Analysis.Crosscheck.violations)
  in
  Printf.sprintf
    "{\"name\": %s, \"errors\": %d, \"warnings\": %d, \"infos\": %d, \
     \"accesses\": %d, \"affine\": %d, \"ranged\": %d, \"passed\": %b, \
     \"crosscheck\": %s, \"diags\": [%s]}"
    (json_string e.Analysis.Lint.e_name)
    (c Analysis.Diag.Error) (c Analysis.Diag.Warning) (c Analysis.Diag.Info)
    e.Analysis.Lint.e_accesses e.Analysis.Lint.e_affine
    e.Analysis.Lint.e_ranged (Analysis.Lint.passed e) xcheck diags

let lint_cmd =
  let bench =
    let doc =
      "Benchmark to lint verbosely; without it, lint every bundled \
       benchmark and print the summary table."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
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
    match bench with
    | Some name -> (
        match find_workload name with
        | Error e ->
            prerr_endline e;
            1
        | Ok w ->
            let prog, entry = lint_one w in
            if json then print_endline (lint_entry_json entry)
            else Format.printf "%a@." (Analysis.Lint.pp_entry ~prog ()) entry;
            if Analysis.Lint.passed entry then 0 else 1)
    | None ->
        let ws =
          Workloads.Rodinia.all
          @ [ Workloads.Gems_fdtd.workload ]
          @ Workloads.Polybench.all
        in
        let entries = List.map (fun w -> snd (lint_one w)) ws in
        let failed = List.filter (fun e -> not (Analysis.Lint.passed e)) entries in
        if json then
          Printf.printf "[\n%s\n]\n"
            (String.concat ",\n"
               (List.map (fun e -> "  " ^ lint_entry_json e) entries))
        else begin
          print_string (Analysis.Lint.table entries);
          List.iter
            (fun e ->
              List.iter
                (fun d -> Format.printf "%s: %s@." e.Analysis.Lint.e_name
                     (Analysis.Diag.to_string d))
                (Analysis.Lint.errors e))
            failed
        end;
        if failed = [] then 0 else 1
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
    let doc =
      "Benchmark to analyse verbosely; without it, print the summary table \
       over every bundled benchmark."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
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
  let analyse_one (w : Workloads.Workload.t) =
    let prog = Vm.Hir.lower w.Workloads.Workload.hir in
    (prog, Analysis.Statdep.analyse prog)
  in
  (* a diverging pruned profile turns into a nonzero exit code, so
     `staticdep --prune` doubles as a self-validation smoke test *)
  let prune_failures = ref 0 in
  (* the hybrid driver: speculative plan first, witness-failure reruns
     handled by [fallback_profile] *)
  let prune_stats prog =
    let structure = Cfg.Cfg_builder.run prog in
    let base = Ddg.Depprof.profile prog ~structure in
    let _sd, pruned, reruns =
      Analysis.Statdep.fallback_profile prog ~profile:(fun plan ->
          Ddg.Depprof.profile prog ~structure ~static_prune:plan)
    in
    let mem = base.Ddg.Depprof.run_stats.Vm.Interp.dyn_mem_ops in
    let equal = Ddg.Depprof.equal_result base pruned in
    if not equal then incr prune_failures;
    ( pruned.Ddg.Depprof.statically_pruned,
      mem,
      equal,
      List.length pruned.Ddg.Depprof.witnesses,
      reruns )
  in
  let sd_json name (prog : Vm.Prog.t) (sd : Analysis.Statdep.t) prune =
    let possible =
      List.length
        (List.filter
           (fun (p : Analysis.Statdep.pair_dep) -> p.pd_possible)
           sd.Analysis.Statdep.pairs)
    in
    let prune_part =
      if not prune then ""
      else
        let pruned_dyn, mem, equal, witnesses, reruns = prune_stats prog in
        Printf.sprintf
          ", \"pruned_dynamic\": %d, \"dyn_mem_ops\": %d, \
           \"pruned_fraction\": %.4f, \"profiles_equal\": %b, \
           \"speculative_witnesses\": %d, \"witness_reruns\": %d"
          pruned_dyn mem
          (float_of_int pruned_dyn /. float_of_int (max 1 mem))
          equal witnesses reruns
    in
    Printf.sprintf
      "{\"name\": %s, \"accesses\": %d, \"resolved\": %d, \"pruned\": %d, \
       \"prunable_regions\": [%s], \"pairs\": %d, \"possible_pairs\": %d%s}"
      (json_string name) sd.Analysis.Statdep.n_accesses
      (Analysis.Statdep.n_resolved sd)
      (Analysis.Statdep.n_pruned sd)
      (String.concat ", "
         (List.map json_string (Analysis.Statdep.prunable_regions sd)))
      (List.length sd.Analysis.Statdep.pairs)
      possible prune_part
  in
  let run bench prune json telemetry =
    with_telemetry telemetry @@ fun () ->
    match bench with
    | Some name -> (
        match find_workload name with
        | Error e ->
            prerr_endline e;
            1
        | Ok w ->
            let prog, sd = analyse_one w in
            if json then print_endline (sd_json name prog sd prune)
            else begin
              Format.printf "%a@." Analysis.Statdep.pp sd;
              if prune then begin
                let pruned_dyn, mem, equal, witnesses, reruns =
                  prune_stats prog
                in
                Format.printf
                  "pruning: %d/%d dynamic accesses skipped shadow tracking \
                   (%.1f%%), %d witness probe%s, %d witness-failure rerun%s, \
                   pruned profile %s the unpruned one@."
                  pruned_dyn mem
                  (100.0 *. float_of_int pruned_dyn
                  /. float_of_int (max 1 mem))
                  witnesses
                  (if witnesses = 1 then "" else "s")
                  reruns
                  (if reruns = 1 then "" else "s")
                  (if equal then "IDENTICAL to" else "DIFFERS from")
              end
            end;
            if !prune_failures > 0 then 1 else 0)
    | None ->
        let ws =
          Workloads.Rodinia.all
          @ [ Workloads.Gems_fdtd.workload ]
          @ Workloads.Polybench.all
        in
        if json then
          Printf.printf "[\n%s\n]\n"
            (String.concat ",\n"
               (List.map
                  (fun (w : Workloads.Workload.t) ->
                    let prog, sd = analyse_one w in
                    "  " ^ sd_json w.w_name prog sd prune)
                  ws))
        else begin
          let header =
            [ "Workload"; "Acc"; "Res"; "Pruned"; "Regions"; "Pairs"; "Dep" ]
            @ if prune then [ "DynPruned"; "Wit"; "Fail"; "Equal" ] else []
          in
          let rows =
            List.map
              (fun (w : Workloads.Workload.t) ->
                let prog, sd = analyse_one w in
                let possible =
                  List.length
                    (List.filter
                       (fun (p : Analysis.Statdep.pair_dep) -> p.pd_possible)
                       sd.Analysis.Statdep.pairs)
                in
                [ w.w_name;
                  string_of_int sd.Analysis.Statdep.n_accesses;
                  string_of_int (Analysis.Statdep.n_resolved sd);
                  string_of_int (Analysis.Statdep.n_pruned sd);
                  string_of_int
                    (List.length (Analysis.Statdep.prunable_regions sd));
                  string_of_int (List.length sd.Analysis.Statdep.pairs);
                  string_of_int possible ]
                @
                if prune then begin
                  let pruned_dyn, mem, equal, witnesses, reruns =
                    prune_stats prog
                  in
                  [ Printf.sprintf "%d/%d (%.0f%%)" pruned_dyn mem
                      (100.0 *. float_of_int pruned_dyn
                      /. float_of_int (max 1 mem));
                    string_of_int witnesses;
                    string_of_int reruns;
                    (if equal then "Y" else "N!") ]
                end
                else [])
              ws
          in
          print_string (Report.Texttable.render ~header rows)
        end;
        if !prune_failures > 0 then 1 else 0
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
    let doc =
      "Benchmark to certify verbosely; without it, print the summary table \
       over every bundled benchmark (plus the seeded par_* variants)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
  in
  let static_only =
    Arg.(
      value & flag
      & info [ "static-only" ]
          ~doc:
            "Skip the dynamic race sanitizer run (and with it the \
             static/dynamic cross-check); report static verdicts only.")
  in
  let module J = struct
    let dim (d : Analysis.Parcheck.dim_report) =
      let open Obs.Json_emit in
      Obj
        ([ ("fid", Int d.Analysis.Parcheck.dr_fid);
           ("header", Int d.Analysis.Parcheck.dr_header);
           ("depth", Int d.Analysis.Parcheck.dr_depth);
           ( "loc",
             match d.Analysis.Parcheck.dr_loc with
             | Some l ->
                 Str (Printf.sprintf "%s:%d" l.Vm.Prog.file l.Vm.Prog.line)
             | None -> Null );
           ( "verdict",
             Str (Analysis.Parcheck.verdict_code d.Analysis.Parcheck.dr_verdict)
           ) ]
        @
        match d.Analysis.Parcheck.dr_verdict with
        | Analysis.Parcheck.Certified c ->
            [ ("pairs", Int c.Analysis.Parcheck.ct_pairs);
              ( "private_regions",
                Int (List.length c.Analysis.Parcheck.ct_private) );
              ( "reduction_accesses",
                Int (List.length c.Analysis.Parcheck.ct_reductions) ) ]
        | Analysis.Parcheck.Race ws -> [ ("witnesses", Int (List.length ws)) ]
        | Analysis.Parcheck.Unknown why -> [ ("reason", Str why) ])

    let sanitizer (r : Ddg.Race_san.report) =
      let open Obs.Json_emit in
      Obj
        [ ("accesses", Int r.Ddg.Race_san.sr_accesses);
          ( "races_on_certified",
            Int (Ddg.Race_san.races_on_certified r) );
          ( "claims",
            List
              (List.map
                 (fun (cs : Ddg.Race_san.claim_stats) ->
                   Obj
                     [ ( "label",
                         Str cs.Ddg.Race_san.cs_claim.Ddg.Race_san.cl_label );
                       ( "certified",
                         Bool
                           cs.Ddg.Race_san.cs_claim.Ddg.Race_san.cl_certified
                       );
                       ("instances", Int cs.Ddg.Race_san.cs_instances);
                       ("iterations", Int cs.Ddg.Race_san.cs_iterations);
                       ("races", Int cs.Ddg.Race_san.cs_n_races);
                       ("covered", Int cs.Ddg.Race_san.cs_covered) ])
                 r.Ddg.Race_san.sr_claims) ) ]

    let workload name (pc : Analysis.Parcheck.t) san diags =
      let open Obs.Json_emit in
      Obj
        ([ ("name", Str name);
           ("dims", List (List.map dim pc.Analysis.Parcheck.pc_dims));
           ("certified", Int (Analysis.Parcheck.n_certified pc));
           ("races", Int (Analysis.Parcheck.n_races pc)) ]
        @ (match san with
          | Some r -> [ ("sanitizer", sanitizer r) ]
          | None -> [])
        @
        match diags with
        | Some ds ->
            [ ( "crosscheck_ok",
                Bool (Analysis.Parcheck.crosscheck_ok ds) );
              ( "diagnostics",
                List
                  (List.map
                     (fun d -> Str (Analysis.Diag.to_string d))
                     ds) ) ]
        | None -> [])
  end in
  let analyse_one ~static_only (w : Workloads.Workload.t) =
    let prog = Vm.Hir.lower w.Workloads.Workload.hir in
    let pc = Analysis.Parcheck.analyse prog in
    if static_only then (pc, None, None)
    else
      let san = Analysis.Parcheck.sanitize pc in
      let diags = Analysis.Parcheck.crosscheck pc san in
      (pc, Some san, Some diags)
  in
  let failed diags =
    match diags with
    | Some ds -> not (Analysis.Parcheck.crosscheck_ok ds)
    | None -> false
  in
  let run bench static_only json telemetry =
    with_telemetry telemetry @@ fun () ->
    match bench with
    | Some name -> (
        match find_workload name with
        | Error e ->
            prerr_endline e;
            1
        | Ok w ->
            let pc, san, diags = analyse_one ~static_only w in
            if json then
              print_endline
                (Obs.Json_emit.to_string ~pretty:true
                   (J.workload name pc san diags))
            else begin
              Format.printf "%a@." Analysis.Parcheck.pp pc;
              (match san with
              | Some r -> Format.printf "%a" Ddg.Race_san.pp_report r
              | None -> ());
              match diags with
              | Some ds ->
                  List.iter
                    (fun d ->
                      Format.printf "%s@." (Analysis.Diag.to_string d))
                    ds
              | None -> ()
            end;
            if failed diags then 1 else 0)
    | None ->
        let ws =
          Workloads.Rodinia.all
          @ [ Workloads.Gems_fdtd.workload ]
          @ Workloads.Polybench.all @ Workloads.Polybench.seeded
        in
        let rows =
          List.map
            (fun (w : Workloads.Workload.t) ->
              let pc, san, diags = analyse_one ~static_only w in
              (w.Workloads.Workload.w_name, pc, san, diags))
            ws
        in
        let any_failed =
          List.exists (fun (_, _, _, diags) -> failed diags) rows
        in
        if json then
          print_endline
            (Obs.Json_emit.to_string ~pretty:true
               (Obs.Json_emit.List
                  (List.map
                     (fun (name, pc, san, diags) ->
                       J.workload name pc san diags)
                     rows)))
        else begin
          let header =
            [ "Workload"; "Dims"; "Cert"; "Race"; "Unk" ]
            @ if static_only then [] else [ "SanRaces"; "Xcheck" ]
          in
          let trows =
            List.map
              (fun (name, (pc : Analysis.Parcheck.t), san, diags) ->
                let dims = List.length pc.Analysis.Parcheck.pc_dims in
                let cert = Analysis.Parcheck.n_certified pc in
                let race = Analysis.Parcheck.n_races pc in
                [ name;
                  string_of_int dims;
                  string_of_int cert;
                  string_of_int race;
                  string_of_int (dims - cert - race) ]
                @
                if static_only then []
                else
                  [ (match san with
                    | Some r ->
                        string_of_int
                          (List.fold_left
                             (fun a (cs : Ddg.Race_san.claim_stats) ->
                               a + cs.Ddg.Race_san.cs_n_races)
                             0 r.Ddg.Race_san.sr_claims)
                    | None -> "-");
                    (if failed diags then "FAIL!" else "ok") ])
              rows
          in
          print_string (Report.Texttable.render ~header trows)
        end;
        if any_failed then 1 else 0
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
    match find_workload name with
    | Error e ->
        prerr_endline e;
        1
    | Ok w ->
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
    match find_workload name with
    | Error e ->
        prerr_endline e;
        1
    | Ok w ->
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
    match find_workload name with
    | Error e ->
        prerr_endline e;
        1
    | Ok w ->
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
    match find_workload name with
    | Error e ->
        prerr_endline e;
        1
    | Ok w ->
        let o = Workloads.Overhead.measure ~repeat w in
        if json then
          print_endline
            (Obs.Json_emit.to_string ~pretty:true (Workloads.Overhead.json o))
        else print_string (Workloads.Overhead.table o);
        0
  in
  Cmd.v
    (Cmd.info "overhead"
       ~doc:
         "Measure the profiling overhead of a benchmark (paper \u{00a7}8): \
          native vs in-process instrumented vs out-of-core vs \
          statically-pruned wall time, plus trace bytes per memory access")
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
    match find_workload name with
    | Error e ->
        prerr_endline e;
        1
    | Ok w -> (
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
            let oc = open_out path in
            output_string oc (Tune.Tune_report.svg_of r);
            close_out oc
        | _ -> ());
        if json then begin
          print_endline
            (Obs.Json_emit.to_string ~pretty:true
               (Tune.Tune_report.workload_json ~name result));
          match result with Ok _ -> 0 | Error _ -> 1
        end
        else
          match result with
          | Error e ->
              Format.printf "autotune %s: %s@." name e;
              1
          | Ok r ->
              Format.printf "%a@." Tune.Tune_report.render r;
              0)
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
(* Profiling as a service: serve / submit / status / fetch / shutdown   *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let workers =
    Arg.(
      value & opt int Serve.Engine.default_config.Serve.Engine.workers
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains in the pool.")
  in
  let queue =
    Arg.(
      value & opt int Serve.Engine.default_config.Serve.Engine.queue_capacity
      & info [ "queue" ] ~docv:"N"
          ~doc:"Queued-job bound; submissions beyond it are rejected (429).")
  in
  let cache_mb =
    Arg.(
      value & opt int 64
      & info [ "cache-mb" ] ~docv:"MiB"
          ~doc:"Byte budget of the content-addressed result cache (LRU).")
  in
  let persist =
    Arg.(
      value & opt (some string) None
      & info [ "persist" ] ~docv:"DIR"
          ~doc:
            "Persist cached results to $(docv) (CRC-sealed, one file per \
             entry) and reload them on restart; corrupt files are rejected.")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:"Default per-job deadline for specs that carry none.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No lifecycle chatter on stdout.")
  in
  let log_json =
    Arg.(
      value & opt (some string) None
      & info [ "log-json" ] ~docv:"FILE"
          ~doc:
            "Append structured JSON-lines logs (one object per event, with \
             trace_id/job_id correlation fields) to $(docv).")
  in
  let run socket port workers queue cache_mb persist deadline quiet log_json =
    (* the /metrics endpoint is the daemon's point: telemetry is on *)
    Obs.Registry.enable ();
    Serve.Server.serve ~quiet
      { Serve.Server.socket_path = socket;
        tcp_port = port;
        log_json;
        engine =
          { Serve.Engine.workers;
            queue_capacity = queue;
            cache_bytes = cache_mb * 1024 * 1024;
            persist_dir = persist;
            default_deadline_s = deadline } };
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the profiling daemon: accept profile/transform/verify/autotune \
          jobs over HTTP/1.1 + JSON on a Unix-domain socket (and optionally \
          TCP), execute them on a bounded pool of worker domains with \
          per-job deadlines and crash isolation, serve repeat submissions \
          from a content-addressed result cache, and expose live \
          Prometheus metrics on /metrics")
    Term.(
      const run $ socket_arg $ port_arg $ workers $ queue $ cache_mb $ persist
      $ deadline $ quiet $ log_json)

let kind_arg =
  let kinds =
    [ ("profile", Serve.Proto.Profile); ("transform", Serve.Proto.Transform);
      ("verify", Serve.Proto.Verify); ("autotune", Serve.Proto.Autotune);
      ("parcheck", Serve.Proto.Parcheck); ("crash", Serve.Proto.Crash) ]
  in
  Arg.(
    required
    & pos 0 (some (enum kinds)) None
    & info [] ~docv:"KIND"
        ~doc:"Job kind: $(b,profile), $(b,transform), $(b,verify), \
              $(b,autotune), $(b,parcheck) or $(b,crash) (the \
              crash-isolation self-test).")

let submit_cmd =
  let bench =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"BENCH" ~doc:"Benchmark name (see $(b,polyprof list)).")
  in
  let params =
    Arg.(
      value & opt_all string []
      & info [ "param"; "p" ] ~docv:"K=V"
          ~doc:
            "Job parameter (repeatable): $(b,budget) for profile, \
             $(b,max_plans) for transform/verify, \
             $(b,beam)/$(b,depth)/$(b,repeat)/$(b,seed) for autotune.")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS" ~doc:"Per-job deadline.")
  in
  let wait =
    Arg.(
      value & flag
      & info [ "wait" ]
          ~doc:
            "Block until the job finishes and print its report document \
             instead of the submit acknowledgement.")
  in
  let run socket port kind bench params deadline wait =
    let ep = endpoint_of socket port in
    let params =
      List.filter_map
        (fun kv ->
          match String.index_opt kv '=' with
          | Some i ->
              Some
                ( String.sub kv 0 i,
                  String.sub kv (i + 1) (String.length kv - i - 1) )
          | None ->
              prerr_endline ("ignoring malformed --param " ^ kv);
              None)
        params
    in
    let spec = Serve.Proto.spec ~kind ~bench ~params ?deadline_s:deadline () in
    match Serve.Client.submit ep spec with
    | Error e ->
        prerr_endline e;
        1
    | Ok doc ->
        if not wait then begin
          print_endline (Obs.Json_emit.to_string ~pretty:true doc);
          0
        end
        else begin
          match Serve.Client.job_id_of doc with
          | Error e ->
              prerr_endline e;
              1
          | Ok id -> (
              match Serve.Client.wait ep ~job_id:id () with
              | Error e ->
                  prerr_endline e;
                  1
              | Ok _ -> (
                  match
                    Serve.Client.request ep ~meth:"GET"
                      ~path:(Printf.sprintf "/jobs/%d/report" id)
                      ()
                  with
                  | Ok { Serve.Http.rs_status = 200; rs_body; _ } ->
                      print_string rs_body;
                      print_newline ();
                      0
                  | Ok rs ->
                      prerr_endline
                        (Printf.sprintf "HTTP %d" rs.Serve.Http.rs_status);
                      1
                  | Error e ->
                      prerr_endline e;
                      1))
        end
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a job to a running $(b,polyprof serve) daemon; repeat \
          submissions of identical jobs are served from its \
          content-addressed cache")
    Term.(
      const run $ socket_arg $ port_arg $ kind_arg $ bench $ params $ deadline
      $ wait)

let status_cmd =
  let id =
    Arg.(
      value & pos 0 (some int) None
      & info [] ~docv:"ID"
          ~doc:"Job id; without it, list the most recent jobs.")
  in
  let run socket port id =
    let ep = endpoint_of socket port in
    let path =
      match id with Some i -> Printf.sprintf "/jobs/%d" i | None -> "/jobs"
    in
    match Serve.Client.request ep ~meth:"GET" ~path () with
    | Error e ->
        prerr_endline e;
        1
    | Ok rs ->
        (match Obs.Json_emit.parse rs.Serve.Http.rs_body with
        | Ok doc -> print_endline (Obs.Json_emit.to_string ~pretty:true doc)
        | Error _ -> print_endline rs.Serve.Http.rs_body);
        if rs.Serve.Http.rs_status = 200 then 0 else 1
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Query a running daemon for job status")
    Term.(const run $ socket_arg $ port_arg $ id)

let fetch_cmd =
  let id =
    Arg.(
      required & pos 0 (some int) None & info [] ~docv:"ID" ~doc:"Job id.")
  in
  let artifact =
    Arg.(
      value & flag
      & info [ "artifact" ]
          ~doc:"Fetch the per-job Chrome trace instead of the report.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write to $(docv) instead of stdout.")
  in
  let run socket port id artifact out =
    let ep = endpoint_of socket port in
    let leaf = if artifact then "artifact" else "report" in
    match
      Serve.Client.request ep ~meth:"GET"
        ~path:(Printf.sprintf "/jobs/%d/%s" id leaf)
        ()
    with
    | Error e ->
        prerr_endline e;
        1
    | Ok { Serve.Http.rs_status = 200; rs_body; _ } ->
        (match out with
        | None ->
            print_string rs_body;
            print_newline ()
        | Some path ->
            let oc = open_out path in
            output_string oc rs_body;
            close_out oc);
        0
    | Ok rs ->
        prerr_endline rs.Serve.Http.rs_body;
        1
  in
  Cmd.v
    (Cmd.info "fetch"
       ~doc:"Download a finished job's report or Chrome-trace artifact")
    Term.(const run $ socket_arg $ port_arg $ id $ artifact $ out)

let shutdown_cmd =
  let run socket port =
    match
      Serve.Client.request (endpoint_of socket port) ~meth:"POST"
        ~path:"/shutdown" ()
    with
    | Error e ->
        prerr_endline e;
        1
    | Ok rs ->
        print_endline rs.Serve.Http.rs_body;
        if rs.Serve.Http.rs_status = 200 then 0 else 1
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"Gracefully stop a running daemon (drain the queue, join the \
             workers)")
    Term.(const run $ socket_arg $ port_arg)

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
  let fmt_val = Printf.sprintf "%.6g" in
  let fmt_opt = function Some v -> fmt_val v | None -> "-" in
  let run files history window report_only bless json =
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
      if bless then begin
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
          print_endline
            (Obs.Json_emit.to_string ~pretty:true
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
                           results) ) ]))
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
          unless $(b,--report-only)")
    Term.(
      const run $ files_arg $ history $ window $ report_only $ bless
      $ json_flag)

let version_cmd =
  let run json =
    if json then
      print_endline
        (Obs.Json_emit.to_string ~pretty:true
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
                       Obs.Schemas.all) ) ]))
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
            source_cmd; telemetry_cmd; overhead_cmd; serve_cmd; submit_cmd;
            status_cmd; fetch_cmd; shutdown_cmd; perfdiff_cmd; version_cmd ]))
