(** Versioned, self-describing binary event codec (wire format v1).

    Events are packed with tag bytes, presence flags and
    varint/zigzag-coded fields; program counters (sids) and memory
    addresses are delta-coded against the previous event of the chunk,
    float values and per-sid register operand lists go through
    per-chunk dictionaries.  All per-chunk coding state resets at each
    chunk boundary so chunk payloads decode independently.  Call-stack
    depth is not stored at all: the decoder re-derives it by counting
    call/return events (so a stream whose exec depths disagree with its
    own control events is normalised to the derived depth).  See the
    .ml header for the exact layout. *)

val magic : string
(** 8-byte file magic, ["PLYPROF1"]. *)

val version : int

val kind_events : char
val kind_stats : char

val max_chunk_payload : int
(** Upper bound accepted for a chunk's declared payload length. *)

val max_event_bytes : int
(** Upper bound on one encoded event's bytes, not counting the operand
    lists written on a dictionary miss. *)

(** Coding state, one per stream being encoded or decoded: per-chunk
    predictors/dictionaries plus the cross-chunk derived call depth. *)
type delta

val delta : unit -> delta

val dict_stats : delta -> int * int * int * int
(** Cumulative encoder dictionary telemetry
    [(operand hits, operand misses, float hits, float misses)]; unlike
    the dictionaries themselves these survive {!reset_delta}, so a sink
    can report whole-stream hit rates. *)

val reset_delta : delta -> unit
(** Reset the per-chunk parts (predictors and dictionaries); the
    derived call depth survives, since the call stack spans chunks. *)

val encode_control : delta -> Varint.writer -> Vm.Event.control -> unit
val encode_exec : delta -> Varint.writer -> Vm.Event.exec -> unit
(** Append one event to a chunk payload under construction; each
    reserves its own room in the writer. *)

val decode_events :
  delta -> Bytes.t -> len:int -> Vm.Interp.callbacks -> int
(** Decode the events-chunk payload held in the first [len] bytes of
    the buffer (resetting [delta]'s per-chunk state first), calling
    [on_control]/[on_exec] on each event in order; returns the event
    count.  Pass the same [delta] for every chunk of a stream, in order,
    so the derived call depth carries over.
    @raise Error.Error on any malformed payload. *)

val encode_stats : Varint.writer -> Vm.Interp.stats -> unit
val decode_stats : Bytes.t -> len:int -> Vm.Interp.stats
