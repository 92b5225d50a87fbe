(** Whole-trace recording on the chunked binary codec: a trace exists
    only as a streamed file, written during the run and read back by
    replaying it into instrumentation callbacks ({!Source.replay}). *)

type write_info = { wi_bytes : int  (** file size produced *) }

val record_to_file : ?chunk_bytes:int -> Vm.Prog.t -> string -> write_info
(** Execute the program, streaming every event straight to [path]
    (out-of-core: peak memory is one chunk, not the trace).  The stats
    trailer is always written.  If the run traps, the partial file is
    removed and the trap re-raised. *)
