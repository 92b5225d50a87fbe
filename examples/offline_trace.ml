(* Offline analysis: record an execution trace to disk once, then run
   both instrumentation stages by replaying the file — the way a real
   DBI pipeline separates trace collection from analysis.  The program
   runs only while recording; the file never has to fit in memory.
   Exits nonzero unless the profile from the file equals the live one.

   Run with:  dune exec examples/offline_trace.exe *)

let profile_offline prog path =
  (* 1. record the trace, streaming it to the file chunk by chunk (this
     is the only program execution) *)
  let wi = Stream.Trace_file.record_to_file prog path in
  Format.printf "recorded %d events from %d instructions: %d bytes in %d chunks@."
    wi.Stream.Trace_file.wi_events wi.wi_stats.Vm.Interp.dyn_instrs
    wi.wi_bytes wi.wi_chunks;

  (* 2. Instrumentation I from the file: control-structure recovery *)
  let structure = Stream.Trace_file.structure prog path in
  Format.printf "@.recovered structure:@.%a@." Cfg.Cfg_builder.pp_structure
    structure;

  (* 3. Instrumentation II from the file: dependence profiling and
     folding, without re-executing the program *)
  let { Stream.Par_profile.result } =
    Stream.Par_profile.profile_file path prog ~structure
  in
  Format.printf "profiled: %d folded statements, %d dependence relations@."
    (List.length result.Ddg.Depprof.stmts)
    (List.length result.Ddg.Depprof.deps);
  result

let () =
  let w = Workloads.Bfs.workload in
  let prog = Vm.Hir.lower w.Workloads.Workload.hir in
  let path = Filename.temp_file "polyprof" ".trace" in
  let offline =
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () -> profile_offline prog path)
  in
  let live = Ddg.Depprof.profile prog ~structure:(Cfg.Cfg_builder.run prog) in
  let same = Ddg.Depprof.equal_result live offline in
  Format.printf "profile from the file equals the live profile: %b@." same;
  if not same then exit 1
