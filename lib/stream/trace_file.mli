(** Whole-trace recording on the chunked binary codec: a trace exists
    only as a streamed file, written during the run and read back by
    replaying it into instrumentation callbacks ({!Source.replay}). *)

type write_info = {
  wi_events : int;
  wi_chunks : int;
  wi_bytes : int;  (** file size produced *)
  wi_stats : Vm.Interp.stats;
  wi_seconds : float;  (** wall time of run + encode *)
}

val record_to_file :
  ?max_steps:int -> ?args:int list -> ?chunk_bytes:int ->
  ?elide:(Vm.Isa.Sid.t -> bool) -> Vm.Prog.t -> string ->
  write_info
(** Execute the program, streaming every event straight to [path]
    (out-of-core: peak memory is one chunk, not the trace).  The stats
    trailer is always written.  If the run traps, the partial file is
    removed and the trap re-raised.

    [elide sid] marks statically-resolved accesses whose address fields
    are dropped from the trace (the codec's presence flags make absent
    addresses free): profiling such a trace requires the matching
    {!Ddg.Depprof} [~static_prune] plan, which reconstructs the
    addresses.  The elision shrinks the trace file — the measured
    benefit of instrumentation pruning on the out-of-core path. *)
