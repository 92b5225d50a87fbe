(** Affine expressions [sum_k coeffs.(k) * x_k + const] over a fixed
    number of dimensions, with exact rational coefficients. *)

module Rat = Pp_util.Rat

type t = { coeffs : Rat.t array; const : Rat.t }

val make : Rat.t array -> Rat.t -> t
val of_int_coeffs : int array -> int -> t
val const : dim:int -> Rat.t -> t
val var : dim:int -> int -> t
(** [var ~dim k] is the expression [x_k] in a [dim]-dimensional space. *)

val dim : t -> int
val add : t -> t -> t
val sub : t -> t -> t
val scale : Rat.t -> t -> t
val neg : t -> t
val eval : t -> int array -> Rat.t
val eval_rat : t -> Rat.t array -> Rat.t

(** Allocation-free evaluation at integer points, for per-point checks.
    [t] is brought to a common denominator and evaluated in checked
    native ints; an evaluation that would overflow is redone with
    {!eval} (which may itself raise [Rat.Overflow]).  Only the first
    [dim t] coordinates of the point are read, so a longer point (a
    full iteration vector for a bound over its prefix) needs no copy. *)

val compare_int : t -> int array -> int -> int
(** [compare_int t x v] is the sign of [t(x) - v]: negative, zero or
    positive. *)

val floor_int : t -> int array -> int
val ceil_int : t -> int array -> int
val equal : t -> t -> bool
val is_constant : t -> bool

val substitute : t -> int -> t -> t
(** [substitute e k by] replaces [x_k] with the expression [by] (which
    must have the same dimensionality). *)

val extend : t -> int -> t
(** [extend e n] reinterprets [e] in an [n]-dimensional space ([n >= dim e]);
    new trailing dimensions get coefficient 0. *)

val pp : ?names:string array -> Format.formatter -> t -> unit
val to_string : ?names:string array -> t -> string
