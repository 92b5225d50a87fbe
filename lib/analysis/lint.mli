(** Front door of the static-analysis layer: run every pass over one
    program and aggregate the results, for the [polyprof_cli lint]
    subcommand, the runner integration and the test sweep.

    The gate ({!passed}) is: no [Error]-severity diagnostic from the
    verifier and no cross-check violation.  Warnings (dead stores,
    may-uninitialized reads, unreachable blocks) and infos are reported
    but do not fail the lint — lowered programs legitimately contain a
    few (e.g. the bounds register recomputed by every loop header). *)

type entry = {
  e_name : string;
  e_diags : Diag.t list;
      (** verifier + definite-init + liveness, {!Diag.compare}-sorted *)
  e_accesses : int;  (** static memory accesses (reachable code) *)
  e_affine : int;  (** of which classified affine *)
  e_ranged : int;  (** of which carrying a provable address interval *)
  e_xcheck : Crosscheck.report option;
      (** [None] when the program was not executed *)
}

val deadcode : Vm.Prog.t -> Diag.t list
(** [W-deadcode]: blocks reachable in the plain static CFG that become
    unreachable once constant conditional branches follow only their
    taken edge.  Disjoint from the verifier's [W-unreachable]. *)

val redundant_load : Vm.Prog.t -> Diag.t list
(** [W-redundant-load]: the same address operand loaded twice within a
    block with no intervening store and no redefinition of the address
    register — the second load can reuse the first one's value. *)

val almost_affine : Vm.Prog.t -> Diag.t list
(** [W-almost-affine]: a memory region that just misses the static
    dependence engine's prunable set — every unresolved access that may
    touch it is blocked for one and the same {!Statdep.reason}, named in
    the message.  Opt-in (not part of {!analyse}): runs {!Statdep} and
    is advisory. *)

val with_almost_affine : entry -> Vm.Prog.t -> entry
(** Append the {!almost_affine} diagnostics to an entry (for the CLI
    lint command). *)

val parallelism : Vm.Prog.t -> Diag.t list
(** Parallelism advisories from the certifier ({!Parcheck}), one per
    chain dimension: [W-race] (provably racy, with a concrete witness
    pair), [W-privatizable] (parallel only with named regions
    privatized per-thread), [W-reduction] (parallel only as a
    reduction).  Opt-in (not part of {!analyse}): runs the static
    dependence engine and is advisory. *)

val with_parallelism : entry -> Vm.Prog.t -> entry
(** Append the {!parallelism} diagnostics to an entry. *)

val analyse : ?name:string -> Vm.Prog.t -> entry
(** Static passes only (no execution, no cross-check), including
    {!deadcode} and {!redundant_load}. *)

val crosschecked : entry -> Vm.Prog.t -> Ddg.Depprof.result -> entry
(** Attach the cross-check of an already-computed profile (for callers
    that have one, like the workload runner). *)

val analyse_profiled :
  ?name:string -> ?max_steps:int -> ?args:int list -> Vm.Prog.t -> entry
(** Static passes plus the dynamic cross-check: profiles the program
    ({!Ddg.Depprof.profile}) and checks the DDG against the static
    independence facts. *)

val of_hir :
  ?name:string ->
  ?profile:bool ->
  ?max_steps:int ->
  ?args:int list ->
  Vm.Hir.program ->
  entry
(** Lower and analyse; [profile] (default [true]) adds the cross-check. *)

val errors : entry -> Diag.t list
(** Verifier errors plus cross-check violations. *)

val passed : entry -> bool

val header : string list
val to_row : entry -> string list
val table : entry list -> string
(** {!Report.Texttable} over {!header}/{!to_row}. *)

val entry_json : entry -> Obs.Json_emit.t
(** The entry as one JSON object: the table row's data, the cross-check
    counters and every diagnostic (severity, code, fid, message). *)

val pp_entry : ?prog:Vm.Prog.t -> unit -> Format.formatter -> entry -> unit
(** The table row's data in long form, followed by every diagnostic. *)
