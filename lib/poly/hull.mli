(** Over-approximation operators used when folding gives up on an exact
    representation (paper §5, "Over-approximations"). *)

val box_of_bounds : int array -> int array -> Polyhedron.t
(** [box_of_bounds lo hi]: the box [lo.(k) <= x_k <= hi.(k)]. *)

val box_of_points : int array list -> Polyhedron.t
(** Smallest axis-aligned bounding box containing the points.  The list
    must be non-empty. *)

val box_of_polyhedra : int -> Polyhedron.t list -> Polyhedron.t
(** Bounding box of a union (unbounded directions stay unbounded). *)

val widen_union : Pset.t -> Pset.t
(** Collapse a union into the single bounding box of its disjuncts. *)
