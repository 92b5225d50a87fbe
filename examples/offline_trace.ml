(* Offline analysis: record an execution trace to disk once, then run
   both instrumentation stages in one replay of the file — the way a real
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

  (* 2. profiling from the file, without re-executing the program: one
     replay recovers the control structure (Instrumentation I) and
     profiles dependences and folds them (Instrumentation II) *)
  let { Stream.Par_profile.result } = Stream.Par_profile.profile_file path prog in
  Format.printf "@.recovered structure:@.%a@." Cfg.Cfg_builder.pp_structure
    result.Ddg.Depprof.structure;
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
  let live = Ddg.Depprof.profile prog in
  let same = Ddg.Depprof.equal_result live offline in
  Format.printf "profile from the file equals the live profile: %b@." same;
  if not same then exit 1
