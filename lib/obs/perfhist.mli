(** Schema-versioned performance history and noise-aware regression
    diffing — the store behind [bench * --json --record] and the
    comparator behind [polyprof perfdiff].

    A benchmark document ([BENCH_*.json]) is {!flatten}ed into dotted
    numeric metrics and appended as one JSON line to
    [<dir>/<bench>.jsonl].  {!baseline} condenses the last [window]
    recorded runs into a per-metric median, and {!diff} compares a
    current run against it with per-metric direction and tolerance
    bands ({!classify}), so a single noisy wall-clock sample does not
    page anyone while a real 25% regression trips the gate. *)

val flatten : Json_emit.t -> (string * float) list
(** Numeric leaves of a JSON document as sorted [(dotted-path, value)]
    pairs.  Objects contribute their field names, list elements the
    value of their ["name"] member when present (index otherwise);
    booleans map to 0/1; strings and nulls — including
    [generated_utc] — are dropped. *)

(** {2 History store} *)

type entry = {
  e_utc : string;  (** [generated_utc] of the recorded run, or [""] *)
  e_metrics : (string * float) list;
}

val history_file : dir:string -> bench:string -> string
val record : dir:string -> bench:string -> Json_emit.t -> unit
(** Flatten [doc] and append it to [<dir>/<bench>.jsonl] (creating the
    directory as needed), stamped with {!Schemas.perfhist} and the
    current UTC time. *)

val load : dir:string -> bench:string -> entry list
(** Recorded runs, oldest first.  Malformed or foreign-schema lines are
    skipped; a missing file is an empty history. *)

val baseline : window:int -> entry list -> (string * float) list
(** Per-metric median over the last [window] entries. *)

(** {2 Comparison} *)

type direction = Lower_better | Higher_better | Info_only

val classify : string -> direction * float
(** Direction and relative tolerance for a metric path, by substring:
    wall-clock/latency and throughput metrics get 25%, allocation and
    byte counts 15%, deterministic pruning fractions 2%; unrecognized
    paths (and configuration echoes like [schema_version]) are
    [Info_only] and never gate. *)

type verdict = Within | Regressed | Improved | New_metric | Missing | Info

type row = {
  r_metric : string;
  r_dir : direction;
  r_tol : float;  (** relative tolerance, e.g. [0.25] *)
  r_base : float option;
  r_cur : float option;
  r_delta_pct : float option;  (** [(cur - base) / |base| * 100] *)
  r_verdict : verdict;
}

val diff :
  baseline:(string * float) list -> current:(string * float) list -> row list
(** One row per metric present on either side, sorted by name.  A
    metric is [Regressed]/[Improved] only when its delta exceeds the
    tolerance in the bad/good direction; zero baselines compare
    exactly.  A [seconds] or [_ns] row that moves by less than 2 ms is
    [Within] whatever its relative change: at that scale the change is
    timer noise. *)

val regressions : row list -> row list
(** The rows that should fail a gating run. *)

val direction_name : direction -> string
val verdict_name : verdict -> string
val row_json : row -> Json_emit.t

(** {2 Absolute assertions}

    A gate on one number of a committed document, with no history and
    no re-measurement: [polyprof perfdiff --assert 'NAME OP VALUE']. *)

type op = Le | Ge | Eq
type assertion = { a_metric : string; a_op : op; a_value : float }

val assertion_of_string : string -> (assertion, string) result
(** Parses ["NAME OP VALUE"], spaces optional, with [OP] one of [<=],
    [>=], [==] and [NAME] a {!flatten}ed dotted path, e.g.
    ["metrics.ddg.profile.scev_reruns.value == 0"]. *)

val assertion_to_string : assertion -> string

val check : assertion -> (string * float) list -> (float * bool) option
(** The metric's value in {!flatten}ed metrics and whether the
    assertion holds on it; [None] when the metric is absent. *)
