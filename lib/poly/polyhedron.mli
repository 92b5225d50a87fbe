(** Convex integer polyhedra represented as conjunctions of affine
    constraints, with the operations needed by the folding and feedback
    stages.

    Emptiness, entailment and bounds are computed exactly over the
    rational relaxation, in every dimension: by Fourier–Motzkin
    elimination up to 4 dimensions and by an exact rational simplex
    (two-phase primal, Bland's rule) above, where elimination would
    blow up.  This module is the only place that choice is made.  Sets
    produced by folding are constructed from actual integer points, so
    the relaxation is exact for them. *)

module Rat = Pp_util.Rat

type t

val make : int -> Constr.t list -> t
(** [make dim cons]; all constraints must have dimension [dim]. *)

val universe : int -> t
val empty : int -> t
val dim : t -> int
val constraints : t -> Constr.t list

val mem : t -> int array -> bool
val add_constraint : t -> Constr.t -> t
val intersect : t -> t -> t

val eliminate : t -> int list -> t
(** Existentially project out the given dimensions (Fourier–Motzkin); the
    result has the same dimensionality, with those dims unconstrained. *)

val drop_dims : t -> int list -> t
(** [drop_dims p ks] eliminates dims [ks] and removes the coordinates,
    yielding a polyhedron of dimension [dim p - List.length ks]. *)

val is_empty : t -> bool
val is_universe : t -> bool

val bounds : t -> Affine.t -> Rat.t option * Rat.t option
(** Min and max of the affine expression over the polyhedron ([None] if
    unbounded in that direction).  Returns [(None, None)] by convention
    on an empty polyhedron — use {!is_empty} first if it matters. *)

val dim_bounds : t -> int -> Rat.t option * Rat.t option

(** {2 Linear programming}

    The simplex itself, in any dimension, for callers that need the
    optimum's kind (e.g. to tell an empty domain from an unbounded
    one) rather than {!bounds}' pair. *)

type optimum =
  | Opt of Rat.t  (** finite optimum *)
  | Unbounded
  | Infeasible

val maximize : t -> Affine.t -> optimum
(** Maximum of the affine objective over the rational relaxation. *)

val minimize : t -> Affine.t -> optimum

val feasible : t -> bool
(** Rational feasibility by phase 1 alone: [not (is_empty p)] in any
    dimension, without simplifying or eliminating first. *)

val entails : t -> Constr.t -> bool
val is_subset : t -> t -> bool
val equal_set : t -> t -> bool

val sample : t -> int array option
(** Some integer point of the polyhedron, if one can be found by bounded
    recursive descent (requires the rational relaxation to be bounded in
    every dimension that matters). *)

val integer_points : ?max_points:int -> t -> int array list
(** Enumerate all integer points; raises [Failure] if the polyhedron is
    unbounded or holds more than [max_points] (default 1_000_000). *)

val count : ?max_points:int -> t -> int
(** Number of integer points (by enumeration, same limits as
    {!integer_points}). *)

val translate : t -> int array -> t
(** [translate p v] is [{ x + v | x in p }]. *)

val pp : ?names:string array -> Format.formatter -> t -> unit
val to_string : ?names:string array -> t -> string
