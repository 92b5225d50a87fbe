(** "Instrumentation II" (paper §4–§5): profile the dynamic dependence
    graph of an execution.

    Each dynamic instruction is tagged with its dynamic IIV; dependences
    are discovered through shadow memory (for loads/stores) and shadow
    registers (per call frame), and streamed, together with statement
    domains and value/address labels, into per-context folding
    collectors.  The result is the compact polyhedral DDG: folded
    statement domains with SCEV/stride information and folded dependence
    relations, SCEV-pruned (§5, "SCEV recognition").

    Under [scev_prune], the statements {!Scev_pred} predicts SCEV before
    the run collect no dependence points: their dependences are only
    counted.  After folding, every prediction is checked against the
    statement's fold; if one is refuted, the whole profile is rerun
    once without prediction, so the result never depends on the
    prediction.  With telemetry on, [ddg.profile.scev_predicted] counts
    the predicted statements and [ddg.profile.scev_reruns] the
    reruns.

    A profile needs the control structure of Instrumentation I.  Given
    none, it speculates the static one and checks it inside the same
    run ({!Cfg.Cfg_builder.speculate}); [ddg.profile.structure_reruns]
    counts the profiles rerun because the run refuted it. *)

type config = {
  stmt_cap : int;  (** buffered points per statement before widening *)
  dep_cap : int;
  max_pieces : int;
  track_waw : bool;  (** also record output (write-after-write) deps *)
  scev_prune : bool;  (** drop dep edges touching SCEV statements (§5) *)
  boundary_splits : bool;  (** folding ablation knob *)
  per_component_labels : bool;  (** folding ablation knob *)
}

val default_config : config

type label_kind = Lvalue | Laddr | Lnone

type stmt_key = { s_ctx : int; s_sid : Vm.Isa.Sid.t }

type stmt_info = {
  sk : stmt_key;
  cls : Vm.Isa.op_class;
  s_count : int;  (** dynamic executions *)
  s_pieces : Fold.piece list;  (** folded domain; labels per [label_kind] *)
  label_kind : label_kind;
  is_scev : bool;  (** integer value expressible as an affine function *)
  affine_exact : bool;  (** domain folded exactly with affine labels *)
  depth : int;  (** iteration-vector dimensionality *)
}

type dep_kind = Reg_dep | Mem_dep | Out_dep

type dep_key = {
  src_sid : Vm.Isa.Sid.t;
  src_ctx : int;
  dst_sid : Vm.Isa.Sid.t;
  dst_ctx : int;
  kind : dep_kind;
}

type dep_info = {
  dk : dep_key;
  d_count : int;
  d_pieces : Fold.piece list;
      (** domain: consumer coordinates; labels: producer coordinates *)
  src_depth : int;
  dst_depth : int;
}

(** {2 Witness checks (speculative pruning)}

    The static engine may prune a region whose polyhedral model holds
    only under a speculation about a data-dependent branch (Klimov's
    weakly dynamic affine programs).  Each speculation ships in the plan
    as a {!witness}: a probe on one branch successor of a guard block.
    The profiling engine counts confirming ([wo_hits]) and refuting
    ([wo_misses]) branch events; a run that refutes any witness raises
    {!Witness_failure} {e before} materialising a result, so a caller
    (see [Analysis.Statdep.fallback_profile]) can refine the speculation
    and rerun deterministically with the affected region demoted to full
    shadow tracking. *)

type witness_expect =
  | Expect_taken  (** the guard always branches to [w_block] *)
  | Expect_skip  (** the guard never branches to [w_block] *)

type witness = {
  w_fid : int;
  w_guard : int;  (** block whose terminator is the speculated branch *)
  w_block : int;  (** the branch successor the speculation is about *)
  w_expect : witness_expect;
}

type witness_outcome = { wo_witness : witness; wo_hits : int; wo_misses : int }

exception Witness_failure of witness_outcome list

type result = {
  stmts : stmt_info list;
  deps : dep_info list;  (** with SCEV-producer/consumer edges pruned *)
  pruned_dep_edges : int;  (** dynamic dep edges dropped by SCEV pruning *)
  total_dep_edges : int;
  statically_pruned : int;
      (** dynamic accesses whose shadow tracking was skipped under
          [~static_prune] (0 otherwise) *)
  witnesses : witness_outcome list;
      (** outcome of every witness probe of the plan (all confirming,
          or the run would have raised {!Witness_failure}) *)
  stree : Sched_tree.t;
  run_stats : Vm.Interp.stats;
  structure : Cfg.Cfg_builder.structure;
}

(** {2 Static instrumentation pruning}

    A {!static_plan} (built by [Analysis.Statdep]) describes the
    accesses whose addresses the static polyhedral dependence engine
    fully resolved: each is an affine function [base + coefs . coords]
    of its dynamic iteration vector, and together they form the
    program's {e once-executed chain} — straight-line items and
    constant-trip loops in execution order, covering every access to
    the prunable memory regions.  Profiling under [~static_prune]
    skips shadow-memory tracking for these accesses and re-derives the
    skipped dependences at finalisation by simulating the chain with a
    last-writer table, feeding edges to collectors in the exact order
    the unpruned engine would have: the result is asserted (and
    tested) bit-identical to an unpruned profile. *)

type static_access = {
  sa_sid : Vm.Isa.Sid.t;
  sa_store : bool;
  sa_base : int;
  sa_coefs : int array;  (** dense, one per iteration-vector dimension *)
}

type static_item =
  | Sacc of static_access
  | Sloop of { sl_base : int; sl_coefs : int array; sl_body : static_item list }
      (** affine-trip loop: at runtime the body executes
          [max 0 (sl_base + sl_coefs . outer coords)] times, where
          [sl_coefs] has one entry per enclosing loop dimension
          (constant-trip boxes have [sl_coefs = [||]] at top level or
          all-zero coefficients) *)

type static_plan = {
  sp_items : static_item list;
  sp_resolved : (Vm.Isa.Sid.t, static_access) Hashtbl.t;
  sp_witnesses : witness list;
  sp_mem_size : int;
}

val loop_trip : base:int -> coefs:int array -> int array -> int
(** Runtime trip count of an {!Sloop} at the given outer coordinates
    (only the first [Array.length coefs] entries are read), clamped at
    0. *)

val profile :
  ?config:config ->
  ?max_steps:int ->
  ?args:int list ->
  ?static_prune:static_plan ->
  ?structure:Cfg.Cfg_builder.structure ->
  Vm.Prog.t ->
  result
(** Run the program under Instrumentation II.  With [structure] (from a
    previous Instrumentation-I run, {!Cfg.Cfg_builder.run}), loop
    events follow it.  Without it, the run speculates
    {!Cfg.Cfg_builder.static} through {!Cfg.Cfg_builder.speculate}: if
    the run refutes the speculation, the program runs again under the
    observed structure.
    Either way the result's [structure] is the one the run observed,
    and the result is that of the two-run pipeline.  [static_prune] requires a complete
    (non-truncated) run; the injection asserts its simulated execution
    counts against the run's and raises [Failure] on mismatch.  A
    refuted SCEV prediction runs the program once more.
    @raise Witness_failure when the run refutes a plan witness (checked
    after the structure, before any injection or finalisation). *)

val profile_replay :
  ?config:config ->
  ?static_prune:static_plan ->
  ?structure:Cfg.Cfg_builder.structure ->
  feed:(Vm.Interp.callbacks -> Vm.Interp.stats) ->
  Vm.Prog.t ->
  result
(** Instrumentation II over a pre-recorded event stream instead of a
    live run: [feed] must deliver the events of one execution to the
    callbacks (e.g. with a streaming [Stream.Source.replay]) and then
    return the recorded run's interpreter stats (a trace file's stats
    trailer is read only after its events).  [feed] may be called up to
    three times, with fresh callbacks: once more when the run refutes
    the speculated structure (no [structure] given), and once more when
    a SCEV prediction is refuted.  Each call must deliver the whole
    execution from its start (reopen the trace file inside [feed], for
    example).  The result is identical to {!profile} of the same
    execution, which is this driver fed by the interpreter.  Under
    [static_prune] the trace may have been recorded with the addresses
    of pruned accesses elided ({!Stream.Trace_file} [~elide]): the plan
    reconstructs the statement address labels.
    @raise Invalid_argument without [structure], when a return names a
    caller other than the one that made the call. *)

val equal_result : result -> result -> bool
(** Structural equality of the folded profile (statements, dependences,
    edge counters) — the pruning-equivalence invariant.  The schedule
    tree is not compared. *)

val stmt_domain : stmt_info -> Minisl.Pset.t
val dep_map : dep_info -> Minisl.Pmap.t option
(** The dependence as a piecewise affine map consumer -> producer; [None]
    if any piece has unknown (top) labels. *)
