(* Out-of-core dependence profiling: Instrumentation II replayed
   sequentially from a trace file streamed one chunk at a time. *)

type outcome = { result : Ddg.Depprof.result }

let profile_file ?config ?(domains = 1) ?static_prune ?structure path prog =
  if domains <> 1 then
    invalid_arg "Par_profile.profile_file: replay is sequential (~domains:1)";
  let result =
    (* [feed] may run up to three times (a refuted structure, a refuted
       SCEV prediction): each call replays the file from its start *)
    Ddg.Depprof.profile_replay ?config ?static_prune ?structure prog
      ~feed:(fun callbacks ->
        Source.with_file path @@ fun src ->
        Source.replay src callbacks;
        match Source.stats src with
        | Some stats -> stats
        | None ->
            Error.fail
              "%s: trace has no stats trailer; cannot profile (re-record \
               with Trace_file.record_to_file or Sink.close ~stats)"
              path)
  in
  { result }
