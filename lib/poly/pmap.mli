(** Piecewise affine maps: a domain polyhedron together with one affine
    output expression per output dimension.  Used to represent folded
    dependence relations (consumer IV -> producer IV), access functions
    and SCEV label functions. *)

module Rat = Pp_util.Rat

type piece = { dom : Polyhedron.t; out : Affine.t array }
(** Every [out.(i)] has dimensionality [Polyhedron.dim dom]. *)

type t

val make : in_dim:int -> out_dim:int -> piece list -> t
val in_dim : t -> int
val out_dim : t -> int
val pieces : t -> piece list
val is_empty : t -> bool

val apply : t -> int array -> Rat.t array option
(** Image of a point under the first piece whose domain contains it. *)

val apply_int : t -> int array -> int array option
(** Like {!apply} but fails (returns [None]) if the image is not
    integral. *)

val domain : t -> Pset.t
val union : t -> t -> t
val restrict_domain : t -> Polyhedron.t -> t

val distance : piece -> int array option
(** For a piece mapping an n-space to itself ([out_dim = in_dim] of the
    enclosing map): the constant vector [x - out(x)] if it is constant
    over the domain, e.g. the dependence distance for a uniform
    dependence. *)

val distance_exprs : piece -> Affine.t array
(** [x - out(x)] per dimension, as affine expressions over the domain. *)

val pp : ?in_names:string array -> ?out_names:string array
  -> Format.formatter -> t -> unit
val to_string : ?in_names:string array -> ?out_names:string array -> t -> string
