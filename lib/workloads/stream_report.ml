(* The binary trace codec's report: per workload, trace size on disk,
   record and decode throughput, and the out-of-core replay's time,
   profile size and parity with the in-process profile. *)

type row = {
  r_name : string;
  r_events : int;
  r_disk_bytes : int;
  r_record_s : float;
  r_decode_s : float;
  r_replay_s : float;
  r_stmts : int;
  r_deps : int;
  r_dep_edges : int;
  r_identical : bool;
}

let measure (w : Workload.t) =
  let prog = Vm.Hir.lower w.Workload.hir in
  let path = Filename.temp_file "polyprof" ".trace" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let wi = Stream.Trace_file.record_to_file prog path in
  let (), t_dec =
    Obs.Clock.timed (fun () ->
        Stream.Source.with_file path (fun src ->
            Stream.Source.replay src Vm.Interp.no_instrumentation))
  in
  let { Stream.Par_profile.result = ooc }, t_replay =
    Obs.Clock.timed (fun () -> Stream.Par_profile.profile_file path prog)
  in
  let live = Ddg.Depprof.profile prog in
  { r_name = w.Workload.w_name;
    r_events = wi.Stream.Trace_file.wi_events;
    r_disk_bytes = wi.wi_bytes;
    r_record_s = wi.wi_seconds;
    r_decode_s = t_dec;
    r_replay_s = t_replay;
    r_stmts = List.length ooc.Ddg.Depprof.stmts;
    r_deps = List.length ooc.Ddg.Depprof.deps;
    r_dep_edges = ooc.Ddg.Depprof.total_dep_edges;
    r_identical =
      Ddg.Depprof.equal_result live ooc
      && live.Ddg.Depprof.run_stats = ooc.Ddg.Depprof.run_stats }

let mb_s bytes s = float_of_int bytes /. (s +. 1e-9) /. (1024. *. 1024.)

let check rows =
  List.filter_map
    (fun r ->
      if r.r_identical then None
      else Some (r.r_name ^ ": out-of-core replay differs from in-process"))
    rows

let table rows =
  let header =
    [ "benchmark"; "events"; "disk KB"; "rec MB/s"; "dec MB/s"; "replay s";
      "stmts"; "deps"; "edges"; "same" ]
  in
  let cells r =
    [ r.r_name;
      string_of_int r.r_events;
      string_of_int (r.r_disk_bytes / 1024);
      Printf.sprintf "%.1f" (mb_s r.r_disk_bytes r.r_record_s);
      Printf.sprintf "%.1f" (mb_s r.r_disk_bytes r.r_decode_s);
      Printf.sprintf "%.3f" r.r_replay_s;
      string_of_int r.r_stmts;
      string_of_int r.r_deps;
      string_of_int r.r_dep_edges;
      (if r.r_identical then "Y" else "N!") ]
  in
  let total f = List.fold_left (fun a r -> a + f r) 0 rows in
  Report.Texttable.render ~header (List.map cells rows)
  ^ Printf.sprintf
      "\nsuite: %d events, %d KB on disk, out-of-core replay identical to \
       in-process on all: %b\n"
      (total (fun r -> r.r_events))
      (total (fun r -> r.r_disk_bytes) / 1024)
      (check rows = [])

let json rows =
  let open Obs.Json_emit in
  Obj
    (schema_header ~schema_version:Obs.Schemas.stream
    @ [ ("chunk_bytes", Int Stream.Sink.default_chunk_bytes);
        ( "workloads",
          List
            (List.map
               (fun r ->
                 Obj
                   [ ("name", Str r.r_name);
                     ("events", Int r.r_events);
                     ("disk_bytes", Int r.r_disk_bytes);
                     ("record_mb_s", Float (mb_s r.r_disk_bytes r.r_record_s));
                     ("decode_mb_s", Float (mb_s r.r_disk_bytes r.r_decode_s));
                     ("seq_seconds", Float r.r_replay_s);
                     ("identical", Bool r.r_identical) ])
               rows) ) ])
