(** POLY-PROF: end-to-end dynamic data-flow / dependence profiling for
    structured-transformation feedback (Gruber et al., PPoPP 2019).

    The pipeline mirrors the paper's Fig. 1:

    + {b Instrumentation I} — run the binary, record raw control events,
      reconstruct per-function CFGs, the call graph, loop-nesting forests
      (Havlak/Ramalingam) and the recursive-component-set
      ({!Cfg.Cfg_builder}).
    + {b Instrumentation II} — run again; generate loop events (Alg. 1/2),
      maintain dynamic interprocedural iteration vectors (Alg. 3), track
      dependences through shadow memory/registers, and stream statement
      domains, value/address labels and dependence relations into the
      folding collectors ({!Ddg.Depprof}).
    + {b Compact polyhedral DDG} — geometric folding with
      over-approximation and SCEV pruning ({!Fold}).
    + {b Polyhedral feedback} — dependence analysis, parallelism,
      permutable bands/tiling, interchange & skewing suggestions, fusion
      structure, PolyFeat metrics, flame graphs
      ({!Sched}, {!Report}). *)

module Prog_hash : module type of Prog_hash
(** SHA-256 digests, the pins of every folded-profile oracle. *)

val version : string
(** The binary/library version, also reported by [polyprof version]. *)

type t = {
  prog : Vm.Prog.t;
  hir : Vm.Hir.program option;  (** the "source", when lowered from HIR *)
  structure : Cfg.Cfg_builder.structure;
  profile : Ddg.Depprof.result;
  analysis : Sched.Depanalysis.t;
  feedback : Sched.Feedback.t;
}

val run :
  ?config:Ddg.Depprof.config ->
  ?max_steps:int ->
  ?args:int list ->
  Vm.Prog.t ->
  t
(** Run the whole pipeline on a MiniVM program. *)

val run_hir :
  ?config:Ddg.Depprof.config ->
  ?max_steps:int ->
  ?args:int list ->
  Vm.Hir.program ->
  t
(** Lower the HIR program and run the pipeline, keeping the HIR around
    as source for the static baseline and ld-src. *)

val run_trace_file :
  ?config:Ddg.Depprof.config ->
  path:string ->
  Vm.Prog.t ->
  t
(** Out-of-core pipeline over a recorded binary trace (written by
    {!Stream.Trace_file.record_to_file}): Instrumentation I streams the
    file once, Instrumentation II streams it again
    ({!Stream.Par_profile.profile_file}), and the profile is the same
    as {!run} of the same execution.  The trace must carry a stats
    trailer.
    @raise Stream.Error on a corrupt or truncated trace. *)

val metrics :
  ?ld_src:int -> ?fusion_strategy:Sched.Fusion.strategy -> name:string -> t
  -> Sched.Metrics.row

val ctx_name : t -> Ddg.Iiv.ctx_id -> string
(** Human-readable context-element names using function names. *)

val flamegraph_svg : ?width:int -> t -> string
val flamegraph_ascii : ?width:int -> t -> string
val render_feedback : Format.formatter -> t -> unit
val n_dynamic_ops : t -> int

val apply_and_verify :
  ?eps:float ->
  ?max_steps:int ->
  ?max_plans:int ->
  name:string ->
  Vm.Hir.program ->
  Xform.Driver.summary
(** Apply the feedback's suggested schedules to the HIR source and verify
    each one differentially (see {!Xform.Driver.apply_and_verify}): the
    end-to-end oracle that profiler, folder and scheduler agree with an
    actual execution of the transformed program. *)

val autotune :
  ?config:Tune.Search.config ->
  name:string ->
  Vm.Hir.program ->
  (Tune.Search.t, string) result
(** Close the PGO loop: beam search over the legal schedule space
    ({!Tune.Search.run}) — every candidate is gated by the profiled
    direction vectors, measured, and differentially verified. *)
