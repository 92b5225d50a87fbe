(* The benchmark's workloads, and one pass over a workload's programs,
   either timed end to end through [Workloads.Runner.run] with tracing
   off, or driven layer by layer under [Obs.Span] spans. *)

module W = Workloads.Workload
module R = Workloads.Runner
module D = Ddg.Depprof
module Span = Obs.Span

type mode =
  | In_process  (** [Runner.run] *)
  | Pruned  (** [Runner.run ~static_prune:true] *)
  | Replay  (** [Runner.run ~out_of_core:1] *)

(* Why each workload exists is recorded in BENCHMARK.json and
   README.md. *)
type t = { name : string; programs : W.t list; mode : mode }

(* Passes every timed run makes, whatever [--seconds]: with at least
   ten programs per workload, that is at least 40 program samples. *)
let min_reps = 4

let polybench = Workloads.Polybench.all @ [ Workloads.Gems_fdtd.workload ]

let rodinia =
  List.map Workloads.Rodinia.find
    [ "heartwall"; "kmeans"; "bfs"; "particlefilter"; "leukocyte"; "nn"; "nw";
      "pathfinder"; "hotspot3D"; "backprop" ]

let all =
  [ { name = "polybench"; programs = polybench; mode = In_process };
    { name = "rodinia"; programs = rodinia; mode = In_process };
    { name = "polybench_pruned"; programs = polybench; mode = Pruned };
    { name = "trace_replay"; programs = polybench; mode = Replay } ]

let find name = List.find_opt (fun t -> t.name = name) all

(* Programs that [--bless] writes expected entries for. *)
let blessed = polybench @ rodinia

let now = Obs.Clock.monotonic

(* ------------------------------------------------------------------ *)
(* Timed pass (tracing off)                                            *)
(* ------------------------------------------------------------------ *)

type sample = {
  prog : string;
  pipeline_s : float;  (** [Runner.run] wall time *)
  native_s : float;  (** plain [Vm.Interp.run] wall time *)
  minor_words : float;  (** allocated by [Runner.run] *)
  errors : string list;
}

let run_pipeline mode w =
  match mode with
  | In_process -> R.run w
  | Pruned -> R.run ~static_prune:true w
  | Replay -> R.run ~out_of_core:1 w

(* The native run is short next to the pipeline's: its median over a
   few runs keeps the slowdown's denominator steady. *)
let native_reps = 3

let timed_native prog =
  let runs =
    List.init native_reps (fun _ ->
        let t0 = now () in
        let stats = Vm.Interp.run prog in
        (now () -. t0, stats))
  in
  (snd (List.hd runs), Stats.median (List.map fst runs))

let timed_program ~expected mode ((w : W.t), prog) =
  (* each program starts from a collected heap, as in a process of its
     own, so its time does not depend on the programs before it *)
  Gc.full_major ();
  let native, native_s = timed_native prog in
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let o = run_pipeline mode w in
  let t1 = now () in
  let m1 = Gc.minor_words () in
  let errors =
    match o.R.pipeline with
    | None -> [ w.W.w_name ^ ": the scheduler bailed out" ]
    | Some p ->
        let profile = p.Polyprof.profile in
        Oracle.check ~expected ~w ~native ~profile
          (Oracle.entry_of ~profile ~row:o.R.row ~polly:o.R.polly)
  in
  { prog = w.W.w_name;
    pipeline_s = t1 -. t0;
    native_s;
    minor_words = m1 -. m0;
    errors }

let timed_pass ~expected mode order = List.map (timed_program ~expected mode) order

(* ------------------------------------------------------------------ *)
(* Traced pass: the same pipeline, one span per layer call             *)
(* ------------------------------------------------------------------ *)

let secs (sp : Span.t) = float_of_int sp.Span.sp_dur_ns /. 1e9

let rec descendants name (sp : Span.t) =
  List.concat_map
    (fun (c : Span.t) ->
      if c.Span.sp_name = name then c :: descendants name c else descendants name c)
    sp.Span.sp_children

let sum_secs name sp = List.fold_left (fun a c -> a +. secs c) 0.0 (descendants name sp)

(* Bench-issued layer spans, direct children of a program span; each
   one wraps one public call of the layer named after the prefix. *)
let layer_spans =
  [ "bench.vm.lower"; "bench.vm.interp"; "bench.cfg.build"; "bench.ddg.profile";
    "bench.stream.record"; "bench.stream.replay"; "bench.stream.decode";
    "bench.staticbase.polly"; "bench.sched.depanalysis"; "bench.sched.feedback";
    "bench.sched.metrics" ]

(* Calls a traced pass adds to what [Runner.run] does. *)
let extra_spans = [ "bench.vm.interp"; "bench.stream.decode" ]

type traced = {
  t_prog : string;
  t_values : (string * float) list;  (** per-program layer sums, see [traced_program] *)
  t_errors : string list;
}

(* Runner.run's sequence of calls for [mode], unrolled; returns the
   profile and the statistics only this path can see. *)
let profile_layers mode prog =
  let layer name f = Span.with_ ~cat:"bench" ("bench." ^ name) f in
  let stats = ref [] in
  let note k v = stats := (k, v) :: !stats in
  let profile =
    match mode with
    | In_process ->
        let structure = layer "cfg.build" (fun () -> Cfg.Cfg_builder.run prog) in
        layer "ddg.profile" (fun () -> D.profile prog ~structure)
    | Pruned ->
        let structure = layer "cfg.build" (fun () -> Cfg.Cfg_builder.run prog) in
        let _sd, result, reruns =
          layer "ddg.profile" (fun () ->
              Analysis.Statdep.fallback_profile prog ~profile:(fun plan ->
                  D.profile ~static_prune:plan prog ~structure))
        in
        note "analysis.witness_reruns" (float_of_int reruns);
        result
    | Replay ->
        let path = Filename.temp_file "polyprof" ".trace" in
        Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        @@ fun () ->
        let wi = layer "stream.record" (fun () -> Stream.Trace_file.record_to_file prog path) in
        note "stream.trace_bytes" (float_of_int wi.Stream.Trace_file.wi_bytes);
        let structure =
          layer "cfg.build" (fun () ->
              let builder = Cfg.Cfg_builder.create prog in
              Stream.Source.with_file path (fun src ->
                  Stream.Source.replay src (Cfg.Cfg_builder.callbacks builder));
              Cfg.Cfg_builder.finalize builder)
        in
        let o =
          layer "stream.replay" (fun () ->
              Stream.Par_profile.profile_file ~domains:1 path prog ~structure)
        in
        layer "stream.decode" (fun () ->
            Stream.Source.with_file path (fun src ->
                Stream.Source.replay src Vm.Interp.no_instrumentation));
        o.Stream.Par_profile.result
  in
  (profile, !stats)

let fold_counts (r : D.result) =
  let add (pts, pcs, exact) (p : Fold.piece) =
    (pts + p.Fold.points, pcs + 1, if p.Fold.exact then exact + p.Fold.points else exact)
  in
  let acc = List.fold_left (fun a (s : D.stmt_info) -> List.fold_left add a s.D.s_pieces) (0, 0, 0) r.D.stmts in
  List.fold_left (fun a (d : D.dep_info) -> List.fold_left add a d.D.d_pieces) acc r.D.deps

let traced_program ~expected mode ((w : W.t), _) =
  let name = w.W.w_name in
  let layer n f = Span.with_ ~cat:"bench" ("bench." ^ n) f in
  Gc.full_major ();
  let out =
    Span.with_ ~cat:"bench" ("prog." ^ name) @@ fun () ->
    let prog = layer "vm.lower" (fun () -> Vm.Hir.lower w.W.hir) in
    let native = layer "vm.interp" (fun () -> Vm.Interp.run prog) in
    let profile, stats = profile_layers mode prog in
    let polly =
      layer "staticbase.polly" (fun () ->
          Staticbase.Polly_lite.analyse_function w.W.hir w.W.kernel_func)
    in
    if w.W.expect_sched_failure || List.length profile.D.deps > R.sched_budget then
      (native, profile, stats, Error (name ^ ": the scheduler bails out; the traced run does not cover it"))
    else begin
      let analysis = layer "sched.depanalysis" (fun () -> Sched.Depanalysis.analyse prog profile) in
      let (_ : Sched.Feedback.t) =
        layer "sched.feedback" (fun () -> Sched.Feedback.make prog profile analysis)
      in
      let row =
        layer "sched.metrics" (fun () ->
            let ld_src = W.src_loop_depth w.W.hir in
            Sched.Metrics.compute ~name ~ld_src ~fusion_strategy:w.W.fusion prog
              profile analysis)
      in
      (native, profile, stats, Ok (Oracle.entry_of ~profile ~row ~polly))
    end
  in
  let native, profile, stats, got = out in
  let root = List.hd (List.rev (Span.roots ())) in
  let over names f =
    List.fold_left
      (fun a (c : Span.t) -> if List.mem c.Span.sp_name names then a +. f c else a)
      0.0 root.Span.sp_children
  in
  let l n = over [ "bench." ^ n ] secs in
  let profile_spans = [ "bench.ddg.profile"; "bench.stream.record"; "bench.stream.replay" ] in
  let finalize =
    match mode with
    | Replay -> sum_secs "par.merge" root
    | In_process | Pruned -> sum_secs "ddg.finalize" root
  in
  let statdep = sum_secs "analysis.statdep" root in
  let profile_s = over profile_spans secs in
  let points, pieces, exact_points = fold_counts profile in
  let fi = float_of_int in
  let layer_total = over layer_spans secs in
  let values =
    [ ("vm.lower_s", l "vm.lower");
      ("vm.interp_s", l "vm.interp");
      ("vm.instrs", fi native.Vm.Interp.dyn_instrs);
      ("vm.mem_ops", fi native.Vm.Interp.dyn_mem_ops);
      ("cfg.build_s", l "cfg.build");
      ("ddg.profile_s", profile_s);
      ("ddg.finalize_s", finalize);
      ("ddg.track_s", profile_s -. finalize -. statdep -. l "stream.record");
      ("ddg.minor_words", over profile_spans (fun c -> c.Span.sp_minor_words));
      ("ddg.dep_edges", fi profile.D.total_dep_edges);
      ("ddg.scev_pruned_edges", fi profile.D.pruned_dep_edges);
      ("ddg.static_pruned", fi profile.D.statically_pruned);
      ("ddg.deps", fi (List.length profile.D.deps));
      ("ddg.stmts", fi (List.length profile.D.stmts));
      ("fold.points", fi points);
      ("fold.pieces", fi pieces);
      ("fold.exact_points", fi exact_points);
      ("analysis.statdep_s", statdep);
      ("analysis.witness_reruns", 0.0);
      ("stream.record_s", l "stream.record");
      ("stream.replay_s", l "stream.replay");
      ("stream.decode_s", l "stream.decode");
      ("stream.trace_bytes", 0.0);
      ("staticbase.polly_s", l "staticbase.polly");
      ("sched.depanalysis_s", l "sched.depanalysis");
      ("sched.feedback_s", l "sched.feedback");
      ("sched.metrics_s", l "sched.metrics");
      ("gc.major_words", root.Span.sp_major_words);
      ("trace.pipeline_s", layer_total -. over extra_spans secs);
      ("trace.layers_s", layer_total);
      ("trace.wall_s", secs root) ]
    |> List.map (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k stats)))
  in
  let errors =
    match got with
    | Error e -> [ e ]
    | Ok entry -> Oracle.check ~expected ~w ~native ~profile entry
  in
  { t_prog = name; t_values = values; t_errors = errors }

let traced_pass ~expected mode order =
  Obs.Registry.with_enabled (fun () -> List.map (traced_program ~expected mode) order)
