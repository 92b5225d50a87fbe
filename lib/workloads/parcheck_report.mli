(** The parallelism certifier's report ([polyprof parcheck],
    [bench parcheck], BENCH_parcheck.json):
    the {!Analysis.Parcheck} verdict of every claimed-parallel chain
    dimension and, unless static-only, one race-sanitizer run
    cross-checked against the certificates. *)

type dynamic = {
  d_sanitizer : Ddg.Race_san.report;
  d_diags : Analysis.Diag.t list;  (** {!Analysis.Parcheck.crosscheck} *)
  d_seconds : float;  (** sanitizer run *)
}

type row = {
  r_name : string;
  r_dims : Analysis.Parcheck.dim_report list;
  r_static_s : float;  (** static certification *)
  r_dynamic : dynamic option;  (** [None] when static-only *)
}

val measure : ?static_only:bool -> Workload.t -> row

val unsound : row -> string option
(** [Some why] when the sanitizer saw a race on a certified dim or the
    cross-check reported an error. *)

val check : row list -> string list
(** The suite gate, one message per failure: no row {!unsound}, and at
    least 5 certified dims suite-wide. *)

val table : row list -> string
(** Text table with a suite summary line.  ["san races"] counts
    sanitizer races on every claim, ["races on cert"] only those on
    certified dims (soundness requires 0). *)

val json : row list -> Obs.Json_emit.t
(** The BENCH_parcheck.json document (timings included). *)

val workload_json : row -> Obs.Json_emit.t
(** The deterministic single-workload view (no timings): every dim with
    its location and verdict details, the sanitizer's per-claim
    statistics and the cross-check diagnostics. *)
