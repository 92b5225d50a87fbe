(** Rendering of autotuner results: per-workload best-schedule table
    ({!Report.Texttable}), search-tree flame graph, and the
    [BENCH_autotune.json] document in the unified
    {!Obs.Json_emit.schema_header} schema. *)

val render : Format.formatter -> Search.t -> unit
(** Candidate table (level, steps, status, ops, time, speedup) followed
    by the best-schedule verdict. *)

val frame_of : Search.t -> Report.Flamegraph.frame
(** The explored search tree as a frame tree: node weight is subtree
    size, colour is the candidate's fate (verified / rejected / pruned /
    timed out). *)

val svg_of : ?width:int -> Search.t -> string

val workload_json :
  name:string -> (Search.t, string) result -> Obs.Json_emit.t
(** One entry of the ["workloads"] array; a bail-out becomes
    [{"name": ..., "error": ...}]. *)

val suite_json :
  config:Search.config ->
  (string * (Search.t, string) result) list ->
  Obs.Json_emit.t
(** The whole [BENCH_autotune.json] document: schema header, search
    configuration, per-workload results, and the two suite-level gates
    ([workloads_improved], [all_best_verified] = {!check} passes). *)

val check : (string * (Search.t, string) result) list -> string list
(** The suite gate, one message per failure: every shipped best
    schedule is the step trail of a [Verified] candidate. *)

val improved : (string * (Search.t, string) result) list -> int
(** Workloads whose best verified schedule beat identity by the
    configured margin. *)
