(** Registry of every machine-readable report schema the tree emits.

    Each [BENCH_*.json] / [--json] emitter stamps its output with a
    [schema_version] through {!Json_emit.schema_header}; this module is
    the single place those version numbers live, so [polyprof version]
    can report them and tools can check schema compatibility without
    parsing any report. *)

type t = {
  s_name : string;  (** emitter name, e.g. ["staticdep"] *)
  s_file : string;  (** the artifact it writes, e.g. ["BENCH_staticdep.json"] *)
  s_version : int;
}

val staticdep : int
val obs : int
val autotune : int
val overhead : int
val parcheck : int

val perfhist : int
(** [bench/history/*.jsonl] perf-history lines ({!Perfhist}). *)

val all : t list
(** Every emitter, sorted by name. *)
