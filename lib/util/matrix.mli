(** Dense matrices of exact rationals and the linear-algebra kernels used
    by the folding stage (affine fitting) and the feedback back-end. *)

type t

val create : rows:int -> cols:int -> t
(** Zero-filled matrix. *)

val of_arrays : Rat.t array array -> t
(** Rows must all have the same length.  The arrays are copied. *)

val of_int_arrays : int array array -> t

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Rat.t
val set : t -> int -> int -> Rat.t -> unit
val copy : t -> t
val identity : int -> t
val transpose : t -> t
val mul : t -> t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val rref : t -> t * int list
(** [rref m] returns the reduced row-echelon form and the list of pivot
    column indices, in order.  [m] is not modified. *)

val rank : t -> int

val solve : t -> Rat.t array -> Rat.t array option
(** [solve a b] finds [x] with [a x = b], or [None] if the system is
    inconsistent.  When the system is under-determined, free variables are
    set to zero (a minimal solution is returned). *)

val affine_fit : int array array -> int array -> (Rat.t array * Rat.t) option
(** [affine_fit points values] finds coefficients [c] and constant [d]
    such that for every sample [i], [sum_k c.(k) * points.(i).(k) + d =
    values.(i)]; returns [None] if no affine function interpolates the
    samples.  [points] must be non-empty and rectangular.  The answer is
    the one [solve] gives on the Rat system (free unknowns 0).  Folding
    solves its samples by fraction-free elimination in native ints and
    calls this only when that overflows. *)
