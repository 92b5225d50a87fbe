(** Shadow memory and shadow registers for dependence tracking (§9,
    "shadow memory records a piece of information for each storage
    location — for dependency tracking, the last dynamic instruction
    that modified that location"). *)

type origin = {
  o_tag : int;
      (** the producer, in whatever numbering the caller chooses: the
          dependence profiler passes its dense statement index *)
  o_coords : int array;
      (** producer iteration vector, shared with {!Iiv.coords}: never
          mutated *)
}

type t

val create : unit -> t
(** Lookups that hit allocate nothing. *)

(** Memory shadow: word-addressed. *)

val write_mem : t -> addr:int -> origin -> unit
val last_mem_writer : t -> addr:int -> origin option

(** Register shadow, with one scope per call frame.  Registers are
    non-negative ints. *)

val push_frame : t -> unit
val pop_frame : t -> unit
val write_reg : t -> reg:int -> origin -> unit
val last_reg_writer : t -> reg:int -> origin option
val frame_depth : t -> int
val n_shadowed_words : t -> int
