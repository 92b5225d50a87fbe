(** Parallelism certifier: static race analysis for claimed-parallel
    loop dimensions (the legality tooling behind
    [Sched.Transform.Parallelize]/[Vectorize] marks, in the
    DiscoPoP-style pairing of static dependence reasoning with
    reduction/privatisation recognition).

    For a claimed loop — identified by its header block, bridged from
    {!Statdep}'s chain dimensions via [resolved.r_dims] — the certifier
    decides {e DOALL-ness} exactly: for every pair of same-region
    resolved accesses under the loop with at least one store, the
    level-carried dependence polyhedron (iteration domains, address
    equality, equal outer coordinates, source iteration strictly
    earlier at the claimed level) is decided by {!Minisl.Polyhedron.feasible};
    rational infeasibility of every pair is a machine-checkable
    DOALL certificate.

    A feasible (blocking) pair is {e discharged} by two sub-analyses
    before it becomes a race:

    - {e reduction recognition}: both endpoints belong to a
      commutative read-modify-write chain — [load x[a]; x[a] <- x[a]
      op e] in one block with ([op] in +, *, and, or, xor, or
      subtraction of a loop-varying term) where the loaded and
      combined registers have no other use — and every chain on the
      region combines with a compatible operator;
    - {e privatisation}: the region's per-iteration footprint is
      iteration-invariant at the claimed level, and every read is
      covered by a densely-writing store whose subtree completes
      earlier in the same iteration — each iteration can work on a
      private copy (scalar privatisation is the liveness check: a
      loop-carried register that is not an induction counter of the
      claimed loop blocks certification).

    What survives is a {e race}: a concrete witness pair of iteration
    vectors extracted from the LP model by progressive coordinate
    fixing (or, where integer rounding fails, the conflicting access
    pair alone). *)

type witness = {
  w_src : Vm.Isa.Sid.t;  (** access in the earlier iteration *)
  w_dst : Vm.Isa.Sid.t;  (** conflicting access in a later iteration *)
  w_ww : bool;  (** both endpoints are stores *)
  w_region : int;  (** {!Points_to} region both touch *)
  w_src_iv : int array option;
      (** concrete source iteration vector (chain coordinates,
          outermost first) when LP rounding found an integer point *)
  w_dst_iv : int array option;
  w_addr : int option;  (** the conflicting address, when concrete *)
}

type certificate = {
  ct_level : int;  (** chain dimension index of the certified loop *)
  ct_pairs : int;  (** access pairs whose polyhedra were decided *)
  ct_private : int list;
      (** regions discharged by privatisation (region indices) *)
  ct_reductions : Vm.Isa.Sid.t list;
      (** accesses of discharged reduction chains (sorted) *)
}

type verdict =
  | Certified of certificate
  | Race of witness list  (** non-empty; sorted by (src, dst) *)
  | Unknown of string  (** the claim is out of the analysis' reach *)

type dim_report = {
  dr_fid : int;
  dr_header : int;  (** header block of the claimed loop *)
  dr_loc : Vm.Prog.loc option;
  dr_depth : int;  (** chain dimension index, 0 = outermost *)
  dr_verdict : verdict;
}

type t = {
  pc_sd : Statdep.t;
  pc_dims : dim_report list;  (** every chain dimension, sorted *)
}

val certify : Statdep.t -> fid:int -> header:int -> verdict
(** Certify the loop of function [fid] whose header block is
    [header]. [Unknown] when the loop is not a chain dimension of the
    static model. *)

val certify_loc : Statdep.t -> ?fid:int -> Vm.Prog.loc -> verdict
(** Certify the chain loop whose header carries the given source
    location (the identity used by {!Sched.Plan.dim_target});
    [Unknown] when no chain dimension matches. *)

val analyse : ?sd:Statdep.t -> Vm.Prog.t -> t
(** Certify every chain dimension of the program ([sd] defaults to a
    fresh non-speculative {!Statdep.analyse}). *)

val coverage : Statdep.t -> verdict -> (int * int) list * Vm.Isa.Sid.t list
(** Sanitizer coverage of a certificate: the private regions as
    inclusive address ranges, and the reduction-chain access sids.
    Empty for [Race]/[Unknown]. *)

val verdict_code : verdict -> string
(** ["certified"], ["race"] or ["unknown"]. *)

val count_verdict : string -> dim_report list -> int
(** Dims whose {!verdict_code} is the given code. *)

val n_certified : t -> int
val n_races : t -> int

val pp_verdict : Format.formatter -> verdict -> unit
val pp_dims : Format.formatter -> dim_report list -> unit
val pp : Format.formatter -> t -> unit

(** {1 Dynamic cross-check}

    The race sanitizer ({!Ddg.Race_san}) is the certifier's soundness
    oracle: one interpreted run treats every iteration of each claimed
    dimension as a logical thread and flags cross-iteration conflicts
    not covered by the certificate's private/reduction sets. *)

val claims : t -> Ddg.Race_san.claim list
(** One sanitizer claim per chain dimension; certified dims carry
    their private-range/reduction-sid coverage from {!coverage}. *)

val sanitize : ?max_steps:int -> ?args:int list -> t -> Ddg.Race_san.report
(** Run the program once under the sanitizer with {!claims}. *)

val crosscheck : t -> Ddg.Race_san.report -> Diag.t list
(** Static/dynamic agreement, {!Crosscheck}-style: a sanitizer race on
    a statically certified dimension is an [E-parcheck-unsound] hard
    error; a dynamic race confirming a static witness is
    [I-parcheck-confirmed]; a static witness the trace did not exhibit
    is [I-parcheck-latent]. *)

val crosscheck_ok : Diag.t list -> bool
(** No [E-parcheck-unsound] (or other error) diagnostics. *)
