(** Streaming trace reader: decodes a binary trace chunk-at-a-time into
    one reused payload buffer, so peak memory is one chunk payload
    regardless of trace length.  A chunk whose declared length exceeds
    the bytes left in the file is rejected before any buffer grows.

    All failures — missing/bad magic, unsupported version, truncated
    file, CRC mismatch, malformed payload — raise [Stream.Error] with a
    diagnostic naming the file and defect. *)

type t

val open_file : string -> t
(** Validate the header.  @raise Error.Error if [path] is not a
    version-compatible polyprof binary trace. *)

val replay : t -> Vm.Interp.callbacks -> unit
(** Stream every remaining event, in order, straight into the
    instrumentation callbacks.  Single-shot: a source can only be
    replayed once. *)

val stats : t -> Vm.Interp.stats option
(** The recorded run's interpreter stats, once the trailer chunk has
    been read (i.e. after {!replay} completed). *)

val close : t -> unit

val with_file : string -> (t -> 'a) -> 'a
(** [with_file path f] opens, applies [f], and always closes. *)
