(** Shared driver for the benchmark harness, CLI, tests and examples:
    run a workload through the full POLY-PROF pipeline, produce its
    Table 5 row (with the streamcluster-style scheduler bail-out) and
    the Polly baseline verdict. *)

type outcome = {
  row : Sched.Metrics.row;
  polly : Staticbase.Polly_lite.verdict;
  pipeline : Polyprof.t option;
      (** [None] when the scheduling stage bailed out *)
  dep_keys : int;  (** folded dependence relations in the DDG *)
  sched_bailed : bool;
  lint : Analysis.Lint.entry option;
      (** static lint + static-vs-dynamic cross-check of the profiled
          DDG; [Some] iff [run ~crosscheck:true] *)
  xform : Xform.Driver.summary option;
      (** differential transformation verification of every suggested
          schedule; [Some] iff [run ~xverify:true] and the scheduler did
          not bail out *)
}

val sched_budget : int
(** Maximum number of folded dependence relations the scheduling stage
    accepts before declaring a blow-up (streamcluster reproduces the
    paper's scheduler memory exhaustion by exceeding it). *)

val suite : Workload.t list
(** The bundled suite: the 19 mini-Rodinia programs, GemsFDTD and the
    12 PolyBench kernels (32 workloads). *)

val find : string -> (Workload.t, string) result
(** Look a workload up by name in {!suite} and the seeded
    parallelism-certifier variants ({!Polybench.seeded}); the error
    lists the available names. *)

val run :
  ?budget:int -> ?crosscheck:bool -> ?xverify:bool -> ?out_of_core:int ->
  ?static_prune:bool -> Workload.t -> outcome
(** [out_of_core = Some 1] records the execution to a temporary
    binary trace file and replays both instrumentation stages from it;
    the profile is identical to the default in-process run.  Any other
    value raises [Invalid_argument].  The pipeline benchmark's
    trace-replay workload is its one user.

    [static_prune] runs {!Analysis.Statdep} first and profiles under
    its instrumentation-pruning plan: statically-resolved accesses skip
    shadow tracking, on either path.  The profile is asserted identical
    to the unpruned one by construction. *)

val run_all :
  ?budget:int -> ?crosscheck:bool -> ?xverify:bool -> unit ->
  (Workload.t * outcome) list
(** All 19 mini-Rodinia benchmarks, in Table 5 order. *)

val table5 : (Workload.t * outcome) list -> string
(** Render the Table 5 reproduction (measured values). *)

val table5_with_paper : (Workload.t * outcome) list -> string
(** Measured rows interleaved with the paper's reference rows. *)

val verify_table : (Workload.t * outcome) list -> string
(** One row per benchmark: suggested plans applied and differentially
    verified / rejected / skipped (requires [run ~xverify:true]). *)

val autotune_suite : Workload.t list
(** Workloads the autotuning schedule search ({!Tune.Search}) walks: the
    PolyBench kernels plus the mini-Rodinia programs with a plain
    loop-nest hot region (streamcluster's scheduler bail-out excludes
    it). *)

val autotune_all :
  ?config:Tune.Search.config -> unit ->
  (string * (Tune.Search.t, string) result) list
(** Run the beam search over {!autotune_suite}. *)

val autotune_table :
  (string * (Tune.Search.t, string) result) list -> string
(** One summary row per workload: candidates explored / measured /
    verified and the best verified schedule with its speedup. *)
