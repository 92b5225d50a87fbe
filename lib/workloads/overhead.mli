(** Paper §8-style overhead accounting: run a workload natively, under
    in-process profiling and with static instrumentation pruning; report
    the slowdown of each configuration. *)

type row = {
  r_mode : string;  (** ["native" | "instrumented" | "static-pruned"] *)
  r_seconds : float;
  r_slowdown : float;  (** vs the native row *)
}

type t = {
  o_name : string;
  o_accesses : int;
  o_dyn_instrs : int;
  o_rows : row list;  (** native first *)
}

val measure : ?repeat:int -> Workload.t -> t
(** Best-of-[repeat] (default 3) wall time per configuration. *)

val table : t -> string
val json : t -> Obs.Json_emit.t
(** Carries the {!Obs.Json_emit.schema_header} preamble. *)
