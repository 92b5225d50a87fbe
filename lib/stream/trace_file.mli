(** Whole-trace persistence on the chunked binary codec — the successor
    of the deleted [Vm.Trace] Marshal path. *)

type write_info = {
  wi_events : int;
  wi_chunks : int;
  wi_bytes : int;  (** file size produced *)
  wi_stats : Vm.Interp.stats;
  wi_seconds : float;  (** wall time of run + encode *)
}

val save : ?chunk_bytes:int -> ?stats:Vm.Interp.stats -> Vm.Trace.t -> string -> int
(** Encode a recorded trace to [path]; returns the bytes written.  Pass
    [stats] (from {!Vm.Trace.record}) to append the stats trailer that
    replay-based profiling reports as [run_stats]. *)

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

val structure : Vm.Prog.t -> string -> Cfg.Cfg_builder.structure
(** Instrumentation I from a trace file: replay [path]'s control events
    into a {!Cfg.Cfg_builder} for [prog] and return the recovered
    CFG/loop/call structure.
    @raise Error.Error on a corrupt trace. *)

val load : string -> Vm.Trace.t * Vm.Interp.stats option
(** Decode a trace file into memory.
    @raise Error.Error on bad magic/version, truncation or corruption. *)
