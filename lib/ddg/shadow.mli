(** Shadow memory and shadow registers for dependence tracking (§9,
    "shadow memory records a piece of information for each storage
    location — for dependency tracking, the last dynamic instruction
    that modified that location").

    Each location holds its last writer as a {e tag} and the writer's
    iteration vector.  The tag is whatever the caller numbers producers
    by (the dependence profiler passes its dense statement index); it
    must be non-negative, and [-1] reads as "never written".  The
    coordinate array is shared with {!Iiv.coords}: it is stored, never
    copied or mutated.  Reads and writes allocate nothing, apart from a
    write that opens a new memory page or grows a register frame. *)

type t

val create : unit -> t

(** Memory shadow: word-addressed, any [int] address. *)

val write_mem : t -> addr:int -> tag:int -> coords:int array -> unit
val mem_tag : t -> addr:int -> int
(** The last writer's tag, or [-1]. *)

val mem_coords : t -> addr:int -> int array
(** The last writer's coordinates ([[||]] when never written). *)

(** Register shadow, with one scope per call frame.  Registers are
    non-negative ints. *)

val push_frame : t -> unit
(** A frame pushed at a depth used before starts clear. *)

val pop_frame : t -> unit
val write_reg : t -> reg:int -> tag:int -> coords:int array -> unit
val reg_tag : t -> reg:int -> int
val reg_coords : t -> reg:int -> int array
val frame_depth : t -> int

val n_shadowed_words : t -> int
(** Distinct memory words ever written. *)
