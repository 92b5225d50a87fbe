(** Out-of-core dependence profiling over a recorded trace file. *)

type outcome = { result : Ddg.Depprof.result }

val profile_file :
  ?config:Ddg.Depprof.config ->
  ?domains:int ->
  ?static_prune:Ddg.Depprof.static_plan ->
  ?structure:Cfg.Cfg_builder.structure ->
  string ->
  Vm.Prog.t ->
  outcome
(** Profile a binary trace file out-of-core: one sequential
    {!Ddg.Depprof.profile_replay} streams a {!Source} on the file, so
    peak memory is bounded by shadow/fold state, not trace length.  The
    result is identical to {!Ddg.Depprof.profile} of the recorded
    execution.  Without [structure], the replay recovers
    Instrumentation I's structure itself, as {!Ddg.Depprof.profile}
    does.  The file is opened and read once per replay, up to three
    times: once more when the replay refutes the static structure, and
    once more when a SCEV prediction is refuted.  The file must carry a
    stats trailer.
    @raise Invalid_argument when [domains] is given and is not 1, or,
    without [structure], when a return in the trace names the wrong
    caller.
    @raise Error.Error on a corrupt trace or missing trailer.
    @raise Ddg.Depprof.Witness_failure when the run refutes a witness
    of [static_prune]. *)
