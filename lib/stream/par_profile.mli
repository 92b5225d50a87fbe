(** Out-of-core dependence profiling over a recorded trace file. *)

type outcome = { result : Ddg.Depprof.result }

val profile_file :
  ?config:Ddg.Depprof.config ->
  ?domains:int ->
  ?static_prune:Ddg.Depprof.static_plan ->
  string ->
  Vm.Prog.t ->
  structure:Cfg.Cfg_builder.structure ->
  outcome
(** Profile a binary trace file out-of-core: one sequential
    {!Ddg.Depprof.profile_replay} streams a {!Source} on the file, so
    peak memory is bounded by shadow/fold state, not trace length.  The
    result is identical to {!Ddg.Depprof.profile} of the recorded
    execution.  The file is opened and read once per replay: twice when
    a SCEV prediction is refuted.  The file must carry a stats trailer.  Under
    [static_prune] the trace may have been recorded with the plan's
    addresses elided ({!Trace_file.record_to_file} [~elide]).
    @raise Invalid_argument when [domains] is given and is not 1.
    @raise Error.Error on a corrupt trace or missing trailer.
    @raise Ddg.Depprof.Witness_failure when the run refutes a witness
    of [static_prune]. *)
