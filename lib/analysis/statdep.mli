(** Static polyhedral dependence engine (the hybrid static/dynamic
    analysis of the paper's §8 "reducing overhead" discussion, after
    Klimov's exact polyhedral models for the affine parts of a
    program).

    For loop nests that {!Affine_class} proves fully affine and
    {!Points_to} proves alias-free, the engine

    - reconstructs the program's {e once-executed chain}: per function,
      the blocks that execute exactly once per region entry (they
      dominate the region's latch, or every function exit), with
      affine-trip loops as nested items and single-call-site callees
      inlined at their call position;
    - {e resolves} every access in the chain whose address is affine in
      the enclosing induction registers: the address becomes
      [base + coefs . iteration-vector] over a (possibly
      non-rectangular) iteration domain whose per-dimension bound is
      itself affine in the outer coordinates — triangular and
      trapezoidal nests included — and its exact address range (by
      rational LP over the domain) must lie within a single named
      memory region;
    - builds, on demand (the lazy [pairs] field: only reports and the
      cross-check force it, never the pruned profile),
      {e dependence polyhedra} for every resolved pair sharing a
      region: iteration-domain constraint rows, address equality and
      lexicographic-precedence disjuncts over [src ++ dst] iteration
      space, decided exactly by {!Minisl.Polyhedron.feasible} (rational
      infeasibility implies integer independence), yielding
      per-statement-pair direction/distance summaries in the
      {!Sched.Depanalysis.dir} vocabulary and, for uniform dependences,
      the may-dependence relation as a {!Minisl.Pmap};
    - derives the {e instrumentation-pruning plan}: a region is
      prunable when every access that may touch it (per points-to) is
      resolved; accesses assigned to prunable regions can skip dynamic
      shadow tracking ({!Ddg.Depprof} [~static_prune]) because the
      plan's simulation re-derives their dependences exactly;
    - optionally ([~speculate]) treats a block guarded only by a
      data-dependent branch in a triangle/diamond as {e speculatively}
      once-executed (Klimov's weakly dynamic affine programs): the
      model stays polyhedral, the speculation ships in the plan as a
      {!Ddg.Depprof.witness} probe, and a refuted witness makes the
      profiler raise before producing a result so {!fallback_profile}
      can refine the speculation ({!refine}) and rerun, ultimately
      demoting the region to full shadow tracking. *)

type reason =
  | R_nonaffine  (** address not affine / symbolic parameter *)
  | R_loop  (** an enclosing loop is not a modelable constant-trip nest *)
  | R_cond  (** block not executed once per region iteration *)
  | R_call  (** unmodelable call-chain position (multi-site, recursive) *)
  | R_range  (** address range not within a single named region *)
  | R_header  (** access in a loop header (executes trip+1 times) *)

val reason_code : reason -> string

type resolved = {
  r_sid : Vm.Isa.Sid.t;
  r_store : bool;
  r_fid : int;
  r_region : int;  (** {!Points_to} region index *)
  r_base : int;
  r_coefs : int array;  (** address = base + coefs . coords *)
  r_bounds : (int * int array) array;
      (** per-dimension trip bound [base + coefs . outer coords]
          (clamped at 0 at runtime): dimension [i]'s coefficient array
          has [i] entries, one per strictly-outer dimension; constant
          boxes have all-zero coefficients *)
  r_dims : (int * int) array;
      (** per-dimension loop identity [(fid, header bid)] of the chain
          loop providing that coordinate — the bridge from a claimed
          source loop (located by its header) to the coordinate it
          contributes to every access it encloses *)
  r_sched : int array;
      (** static schedule: position of each ancestor chain item within
          its parent, plus the access's own position (length
          [depth + 1]); lexicographic comparison of interleaved
          (position, coordinate) vectors is the execution order *)
  r_lo : int;
  r_hi : int;  (** inclusive exact address range *)
  r_spec : (int * int * int) option;
      (** [(fid, guard, block)] when resolution relied on speculating
          that [guard] always branches to [block] *)
}

type spec_decision =
  | Spec_always of int  (** speculate this branch successor always runs *)
  | Spec_off  (** do not speculate this guard *)

type pair_dep = {
  pd_src : Vm.Isa.Sid.t;  (** the (earlier) store *)
  pd_dst : Vm.Isa.Sid.t;
  pd_kind : Ddg.Depprof.dep_kind;  (** [Mem_dep] (flow) or [Out_dep] *)
  pd_common : int;  (** common loop-nest prefix depth *)
  pd_possible : bool;  (** some dependence polyhedron is non-empty *)
  pd_dirs : Sched.Depanalysis.dir array;  (** per common dimension *)
  pd_dists : int option array;  (** constant distance where provable *)
  pd_rel : Minisl.Pmap.t option;
      (** consumer -> producer may-relation, for uniform dependences *)
}

type t = {
  prog : Vm.Prog.t;
  pta : Points_to.t;
  resolved : (Vm.Isa.Sid.t, resolved) Hashtbl.t;
  unresolved : (Vm.Isa.Sid.t * bool * reason) list;
      (** live, reachable, not resolved; sorted by sid *)
  prunable : bool array;  (** per region index *)
  pruned : (Vm.Isa.Sid.t, unit) Hashtbl.t;
      (** resolved accesses assigned to prunable regions *)
  pairs : pair_dep list Lazy.t;
      (** per ordered same-region (store, access) pair, sorted by
          (source, destination, kind); built on first force, so the
          profiling path, which reads only [plan], never pays for the
          dependence polyhedra *)
  plan : Ddg.Depprof.static_plan;  (** pruned accesses only *)
  n_accesses : int;  (** reachable accesses in live functions *)
  speculated : ((int * int) * spec_decision) list;
      (** decision taken per [(fid, guard)] candidate; sorted *)
  skip_spec : (Vm.Isa.Sid.t, int * int * int) Hashtbl.t;
      (** accesses excluded as speculatively never-executed,
          [sid -> (fid, guard, block)] *)
}

val analyse : ?speculate:bool -> ?directions:((int * int) * spec_decision) list
  -> Vm.Prog.t -> t
(** [speculate] (default [false]) enables witness-checked speculation
    on data-dependent guards; [directions] overrides the per-guard
    decision (from {!refine}).  With [speculate:false] the result —
    including the plan's pruned set and trace-elision behaviour — is
    deterministic and witness-free. *)

val refine :
  t ->
  directions:((int * int) * spec_decision) list ->
  Ddg.Depprof.witness_outcome list ->
  ((int * int) * spec_decision) list
(** Updated [directions] after a {!Ddg.Depprof.Witness_failure}: a
    guard observed one-sided against the speculation is flipped once; a
    guard observed both ways (or failing after a flip) is turned off. *)

val fallback_profile :
  ?speculate:bool ->
  Vm.Prog.t ->
  profile:(Ddg.Depprof.static_plan -> 'a) ->
  t * 'a * int
(** Hybrid driver: analyse (speculatively by default), run [profile]
    on the plan, and on {!Ddg.Depprof.Witness_failure} refine the
    speculation directions and deterministically rerun, falling back
    to a non-speculative plan if refinement does not converge.
    Returns the final analysis, the profile result and the number of
    reruns (0 when every witness held first try). *)

val domain_rows :
  int -> offset:int -> (int * int array) array -> Minisl.Constr.t list
(** Iteration-domain constraint rows for the given per-dimension affine
    bounds ([resolved.r_bounds] shape), occupying variable positions
    [offset ..] of an [n]-variable polyhedron: [x_i >= 0] and
    [x_i <= trip_i - 1] with the trip affine in the outer coordinates.
    Exposed for consumers building bespoke polyhedra over resolved
    accesses ({!Parcheck}). *)

val pair_of :
  t -> src:Vm.Isa.Sid.t -> dst:Vm.Isa.Sid.t -> Ddg.Depprof.dep_kind ->
  pair_dep option
(** Lookup of the static verdict for an ordered resolved pair. *)

val n_resolved : t -> int
val n_pruned : t -> int
val prunable_regions : t -> string list

val pp : Format.formatter -> t -> unit
