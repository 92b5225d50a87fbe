(* Paper §8-style overhead accounting: how much slower a workload runs
   under each profiling configuration, relative to its uninstrumented
   native interpretation, plus the trace-size cost of the out-of-core
   path (bytes per memory access). *)

type row = {
  r_mode : string;
  r_seconds : float;
  r_slowdown : float;  (** vs the native row *)
  r_trace_bytes : int option;  (** out-of-core only *)
}

type t = {
  o_name : string;
  o_events : int;  (** events in the recorded trace *)
  o_accesses : int;  (** dynamic memory accesses *)
  o_dyn_instrs : int;
  o_rows : row list;  (** native first *)
  o_bytes_per_access : float option;
}

(* best-of-[repeat] wall time: mini workloads run in milliseconds, the
   minimum is the usual noise-robust estimator *)
let time ~repeat f =
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to max 1 repeat do
    let t0 = Obs.Clock.monotonic () in
    let r = f () in
    let dt = Obs.Clock.monotonic () -. t0 in
    if dt < !best then best := dt;
    last := Some r
  done;
  (Option.get !last, !best)

let measure ?(repeat = 3) (w : Workload.t) =
  let prog = Vm.Hir.lower w.Workload.hir in
  let stats, t_native = time ~repeat (fun () -> Vm.Interp.run prog) in
  let profile, t_inst = time ~repeat (fun () -> Ddg.Depprof.profile prog) in
  (* out-of-core: record the binary trace, then profile by replaying
     the file *)
  let path = Filename.temp_file "polyprof_overhead" ".trace" in
  let (wi, _), t_ooc =
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    @@ fun () ->
    time ~repeat (fun () ->
        let wi = Stream.Trace_file.record_to_file prog path in
        let o = Stream.Par_profile.profile_file path prog in
        (wi, o.Stream.Par_profile.result))
  in
  (* static pruning: the plan is compile-time work, computed outside the
     timed region like the paper's ahead-of-time analysis *)
  let plan = (Analysis.Statdep.analyse prog).Analysis.Statdep.plan in
  let _, t_pruned =
    time ~repeat (fun () -> Ddg.Depprof.profile ~static_prune:plan prog)
  in
  let accesses = max 1 stats.Vm.Interp.dyn_mem_ops in
  let slow s = s /. (t_native +. 1e-9) in
  let row ?bytes mode s =
    { r_mode = mode;
      r_seconds = s;
      r_slowdown = slow s;
      r_trace_bytes = bytes }
  in
  ignore profile;
  { o_name = w.Workload.w_name;
    o_events = wi.Stream.Trace_file.wi_events;
    o_accesses = stats.Vm.Interp.dyn_mem_ops;
    o_dyn_instrs = stats.Vm.Interp.dyn_instrs;
    o_rows =
      [ row "native" t_native;
        row "instrumented" t_inst;
        row ~bytes:wi.Stream.Trace_file.wi_bytes "out-of-core" t_ooc;
        row "static-pruned" t_pruned ];
    o_bytes_per_access =
      Some (float_of_int wi.Stream.Trace_file.wi_bytes /. float_of_int accesses) }

let table (o : t) =
  let rows =
    List.map
      (fun r ->
        [ r.r_mode;
          Printf.sprintf "%.4f" r.r_seconds;
          Printf.sprintf "%.1fx" r.r_slowdown;
          (match r.r_trace_bytes with
          | Some b -> string_of_int b
          | None -> "-");
          (match (r.r_trace_bytes, o.o_bytes_per_access) with
          | Some _, Some bpa -> Printf.sprintf "%.2f" bpa
          | _ -> "-") ])
      o.o_rows
  in
  Printf.sprintf "%s: %d events, %d memory accesses, %d instrs\n%s"
    o.o_name o.o_events o.o_accesses o.o_dyn_instrs
    (Report.Texttable.render
       ~header:[ "Mode"; "Seconds"; "Slowdown"; "TraceBytes"; "B/access" ]
       rows)

let json (o : t) =
  let open Obs.Json_emit in
  Obj
    (schema_header ~schema_version:Obs.Schemas.overhead
    @ [ ("benchmark", Str o.o_name);
        ("events", Int o.o_events);
        ("accesses", Int o.o_accesses);
        ("dyn_instrs", Int o.o_dyn_instrs);
        ( "bytes_per_access",
          match o.o_bytes_per_access with
          | Some f -> Float f
          | None -> Null );
        ( "rows",
          List
            (List.map
               (fun r ->
                 Obj
                   [ ("mode", Str r.r_mode);
                     ("seconds", Float r.r_seconds);
                     ("slowdown", Float r.r_slowdown);
                     ( "trace_bytes",
                       match r.r_trace_bytes with
                       | Some b -> Int b
                       | None -> Null ) ])
               o.o_rows) ) ])
