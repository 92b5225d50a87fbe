(** Bounded-memory streaming trace writer.

    Events are delta-encoded into one reused chunk buffer flushed every
    [chunk_bytes] (default 64 KiB); memory use is one chunk regardless
    of trace length, and a flush frames the chunk in place and writes
    it with one [output].  The file starts with the codec magic and version;
    {!close} optionally appends the run's {!Vm.Interp.stats} as a
    trailer chunk so replay-based profiling can report them. *)

type t

val create : ?chunk_bytes:int -> string -> t
(** Open [path] for writing and emit the header. *)

val callbacks : t -> Vm.Interp.callbacks
(** Interpreter callbacks that stream every event into the sink —
    out-of-core trace recording is
    [Interp.run ~callbacks:(Sink.callbacks sink) prog]. *)

val close : ?stats:Vm.Interp.stats -> t -> unit
(** Flush the pending chunk, write the stats trailer if given, and close
    the underlying file.  Idempotent. *)

val bytes_written : t -> int
(** Total file bytes produced so far (header + flushed chunks). *)
