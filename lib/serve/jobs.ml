module J = Obs.Json_emit

let job_key (spec : Proto.spec) =
  match Workloads.Runner.find spec.Proto.sp_bench with
  | Error e -> Error e
  | Ok w ->
      Ok
        (Polyprof.Prog_hash.job_key
           ~kind:(Proto.kind_to_string spec.Proto.sp_kind)
           ~params:
             (("bench", spec.Proto.sp_bench) :: spec.Proto.sp_params)
           w.Workloads.Workload.hir)

(* ------------------------------------------------------------------ *)
(* Report builders.  No timestamps anywhere: a report is a pure function
   of the spec and the binary, so repeat executions are byte-identical
   and the cache-hit bit-identity test can compare raw strings.         *)
(* ------------------------------------------------------------------ *)

let report ~spec fields =
  J.to_string
    (J.Obj
       ([ ("schema_version", J.Int Obs.Schemas.serve);
          ("kind", J.Str (Proto.kind_to_string spec.Proto.sp_kind));
          ("bench", J.Str spec.Proto.sp_bench);
          ( "params",
            J.Obj
              (List.map (fun (k, v) -> (k, J.Str v)) spec.Proto.sp_params) ) ]
       @ fields))

let row_json (row : Sched.Metrics.row) =
  J.Obj
    (List.map2
       (fun k v -> (k, J.Str v))
       Sched.Metrics.header
       (Sched.Metrics.to_strings row))

let xform_status = function
  | Xform.Driver.Verified -> ("verified", None)
  | Xform.Driver.Rejected why -> ("rejected", Some why)
  | Xform.Driver.Skipped why -> ("skipped", Some why)

let xform_json (s : Xform.Driver.summary) =
  J.Obj
    [ ("name", J.Str s.Xform.Driver.sm_name);
      ("verified", J.Int s.Xform.Driver.sm_verified);
      ("rejected", J.Int s.Xform.Driver.sm_rejected);
      ("skipped", J.Int s.Xform.Driver.sm_skipped);
      ( "plans",
        J.List
          (List.map
             (fun (e : Xform.Driver.entry) ->
               let status, why = xform_status e.Xform.Driver.en_status in
               J.Obj
                 (("target", J.Str e.Xform.Driver.en_target)
                  :: ("status", J.Str status)
                  ::
                  (match why with
                  | None -> []
                  | Some w -> [ ("why", J.Str w) ])))
             s.Xform.Driver.sm_entries) ) ]

let run_profile spec (w : Workloads.Workload.t) =
  let budget =
    Proto.param_int spec "budget" ~default:Workloads.Runner.sched_budget
  in
  let o = Workloads.Runner.run ~budget w in
  report ~spec
    [ ("row", row_json o.Workloads.Runner.row);
      ("dep_keys", J.Int o.Workloads.Runner.dep_keys);
      ("sched_bailed", J.Bool o.Workloads.Runner.sched_bailed);
      ( "polly",
        J.Str (Staticbase.Polly_lite.reasons_string o.Workloads.Runner.polly)
      ) ]

let run_apply spec (w : Workloads.Workload.t) ~max_plans =
  let max_plans = Proto.param_int spec "max_plans" ~default:max_plans in
  let s =
    Polyprof.apply_and_verify ~max_plans ~name:w.Workloads.Workload.w_name
      w.Workloads.Workload.hir
  in
  report ~spec [ ("transform", xform_json s) ]

let run_parcheck spec (w : Workloads.Workload.t) =
  let static_only = Proto.param_int spec "static_only" ~default:0 <> 0 in
  let r = Workloads.Parcheck_report.measure ~static_only w in
  (* a sanitizer race on a certified dim is a soundness failure: fail
     the job loudly instead of caching a bad certificate *)
  Option.iter failwith (Workloads.Parcheck_report.unsound r);
  report ~spec [ ("parcheck", Workloads.Parcheck_report.workload_json r) ]

let run_autotune spec (w : Workloads.Workload.t) =
  let d = Tune.Search.default in
  let config =
    { d with
      Tune.Search.beam = Proto.param_int spec "beam" ~default:d.Tune.Search.beam;
      depth = Proto.param_int spec "depth" ~default:d.Tune.Search.depth;
      repeat = Proto.param_int spec "repeat" ~default:d.Tune.Search.repeat;
      seed = Proto.param_int spec "seed" ~default:d.Tune.Search.seed }
  in
  let r =
    Polyprof.autotune ~config ~name:w.Workloads.Workload.w_name
      w.Workloads.Workload.hir
  in
  (* embeds measured times — see the module doc on determinism *)
  report ~spec
    [ ("autotune", Tune.Tune_report.workload_json ~name:w.Workloads.Workload.w_name r) ]

(* ------------------------------------------------------------------ *)
(* Execution measurement.  Spans from Obs.Span would interleave across
   concurrently running worker domains (the completed-span list is
   process-global), so each job gets a single hand-built span instead:
   wall time and GC deltas measured around the executor.  The engine
   rebases it into the job's trace tree as the [execute] phase.         *)
(* ------------------------------------------------------------------ *)

let execute (spec : Proto.spec) =
  let w =
    match Workloads.Runner.find spec.Proto.sp_bench with
    | Ok w -> w
    | Error e -> failwith e
  in
  let g0 = Gc.quick_stat () in
  let t0 = Obs.Clock.monotonic () in
  let x_report =
    match spec.Proto.sp_kind with
    | Proto.Profile -> run_profile spec w
    | Proto.Transform -> run_apply spec w ~max_plans:1
    | Proto.Verify -> run_apply spec w ~max_plans:8
    | Proto.Autotune -> run_autotune spec w
    | Proto.Parcheck -> run_parcheck spec w
    | Proto.Crash -> failwith "deliberate worker crash (kind=crash)"
  in
  let wall_ns = int_of_float ((Obs.Clock.monotonic () -. t0) *. 1e9) in
  let g1 = Gc.quick_stat () in
  let x_span : Obs.Span.t =
    { Obs.Span.sp_name = "execute";
      sp_cat = "serve";
      sp_tid = (Domain.self () :> int);
      sp_start_ns = 0;
      sp_dur_ns = wall_ns;
      sp_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      sp_major_words = g1.Gc.major_words -. g0.Gc.major_words;
      sp_top_heap_words = g1.Gc.top_heap_words;
      sp_children = [];
      sp_args = [] }
  in
  { Engine.x_report; x_span = Some x_span }
