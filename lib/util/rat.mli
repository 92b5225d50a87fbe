(** Exact rational arithmetic over native integers.

    All values are kept in canonical form: the denominator is strictly
    positive and numerator and denominator are coprime.  Native [int]
    (63-bit) precision is sufficient for the small coefficients occurring
    in folded dependence polyhedra; operations raise [Overflow] if an
    intermediate sum or product would wrap. *)

type t = private { num : int; den : int }

exception Overflow
exception Division_by_zero

val make : int -> int -> t
(** [make num den] is the canonical rational [num/den].
    @raise Division_by_zero if [den = 0].
    @raise Overflow if the canonical numerator or denominator is
    [2^62], one past [max_int] (e.g. [make min_int (-1)]). *)

val of_int : int -> t

val zero : t
val one : t
val minus_one : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
(** @raise Overflow on a numerator of [min_int] (likewise {!abs}). *)

val inv : t -> t
val abs : t -> t
val min : t -> t -> t
val max : t -> t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

val floor : t -> int
(** Largest integer [<= t]. *)

val ceil : t -> int
(** Smallest integer [>= t]. *)

val to_int_exn : t -> int
(** @raise Invalid_argument if the value is not an integer. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val gcd : int -> int -> int
(** Non-negative greatest common divisor; [gcd 0 0 = 0]. *)

val lcm : int -> int -> int

val int_add : int -> int -> int
val int_sub : int -> int -> int
val int_mul : int -> int -> int
val int_neg : int -> int
(** Native-int [+], [-], [*] and negation that raise [Overflow] instead
    of wrapping: the building blocks of the integer fast paths in
    [Minisl.Affine] and [Fold]. *)
