(** The static dependence engine's report ([polyprof staticdep],
    [bench staticdep], BENCH_staticdep.json): what {!Analysis.Statdep}
    resolves and plans to prune per workload and, when measured with
    [~prune], the dynamic accesses that skipped shadow tracking, the
    profiling cost, and the pruned==unpruned parity. *)

type dynamic = {
  d_dyn_mem : int;  (** dynamic memory operations *)
  d_dyn_pruned : int;  (** of which skipped shadow tracking *)
  d_full_s : float;  (** unpruned in-process profile *)
  d_pruned_s : float;  (** pruned profile, witness-failure reruns included *)
  d_witnesses : int;  (** witness probes in the final speculative plan *)
  d_reruns : int;  (** witness-failure reruns of the hybrid driver *)
  d_identical : bool;  (** pruned profile == unpruned *)
}

type row = {
  r_name : string;
  r_accesses : int;  (** live reachable static accesses *)
  r_resolved : int;
  r_pruned : int;  (** static accesses in the pruning plan *)
  r_regions : string list;  (** prunable regions *)
  r_pairs : int;  (** static pair summaries *)
  r_possible : int;  (** of which may carry a dependence *)
  r_dynamic : dynamic option;  (** [Some] iff measured with [~prune] *)
}

val measure : ?prune:bool -> Workload.t -> row
(** Static analysis only unless [prune] (default [false]): then also
    profile with and without the speculative pruning plan. *)

val diverged : row -> bool
(** The pruned profile differs from the unpruned one. *)

val check : row list -> string list
(** The suite gate, one message per failure: every pruned profile
    identical to its unpruned twin, and at least 50 % of the suite's
    dynamic accesses pruned. *)

val table : row list -> string
(** Text table, plus a suite summary line when the rows were measured
    with [~prune]. *)

val json : row list -> Obs.Json_emit.t
(** The BENCH_staticdep.json document; the suite fields and the
    per-workload dynamic fields appear only for rows measured with
    [~prune]. *)
