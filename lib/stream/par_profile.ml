(* Out-of-core dependence profiling: Instrumentation II replayed
   sequentially from a trace file streamed one chunk at a time. *)

type outcome = { result : Ddg.Depprof.result }

let profile_file ?config ?(domains = 1) ?static_prune path prog ~structure =
  if domains <> 1 then
    invalid_arg "Par_profile.profile_file: replay is sequential (~domains:1)";
  let result =
    Source.with_file path @@ fun src ->
    Ddg.Depprof.profile_replay ?config ?static_prune prog ~structure
      ~feed:(fun callbacks ->
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
