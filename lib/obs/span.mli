(** Hierarchical pipeline spans.

    A span measures one phase of the pipeline: monotonic wall time
    ({!Clock}), GC minor/major words allocated during the phase and the
    peak-heap watermark at its end.  Spans nest on one process-global
    stack; finished top-level spans land in one list read by the
    exporters.

    Every operation is a no-op while {!Registry.enabled} is false. *)

exception Unbalanced of string
(** Raised by {!exit_} when the name does not match the innermost open
    span, or no span is open. *)

type t = {
  sp_name : string;
  sp_cat : string;
  sp_start_ns : int;
  mutable sp_dur_ns : int;
  mutable sp_minor_words : float;  (** minor words allocated inside *)
  mutable sp_major_words : float;
  mutable sp_top_heap_words : int;  (** [Gc] watermark at span end *)
  mutable sp_children : t list;  (** in start order once closed *)
}

val enter : ?cat:string -> string -> unit
val exit_ : string -> unit

val with_ : ?cat:string -> string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f] inside a span; the span closes even if [f]
    raises.  The preferred instrumentation form. *)

val roots : unit -> t list
(** Completed top-level spans, ordered by start time (ties broken by
    name — deterministic). *)

val depth : unit -> int
(** Open spans on the stack (0 outside any span). *)

val reset : unit -> unit
(** Drop completed and open spans. *)
