(** Paper §8-style overhead accounting: run a workload natively, under
    in-process profiling, out-of-core (trace to disk, replay from it)
    and with static instrumentation pruning; report the slowdown of
    each configuration and the trace bytes per memory access. *)

type row = {
  r_mode : string;  (** ["native" | "instrumented" | "out-of-core" | "static-pruned"] *)
  r_seconds : float;
  r_slowdown : float;  (** vs the native row *)
  r_trace_bytes : int option;  (** out-of-core only *)
}

type t = {
  o_name : string;
  o_events : int;
  o_accesses : int;
  o_dyn_instrs : int;
  o_rows : row list;  (** native first *)
  o_bytes_per_access : float option;
}

val measure : ?repeat:int -> Workload.t -> t
(** Best-of-[repeat] (default 3) wall time per configuration. *)

val table : t -> string
val json : t -> Obs.Json_emit.t
(** Carries the {!Obs.Json_emit.schema_header} preamble. *)
