(** Flow-insensitive Andersen-style points-to analysis over MiniVM
    bytecode.

    Memory is partitioned into the program's named global regions (one
    abstract object per [Prog.globals] entry) plus a distinguished
    {e outside} pseudo-region (index 0) covering everything else —
    unnamed scratch addresses and values whose provenance is unknown.
    Every register of every function gets a {e may-point-to} set of
    regions, computed as the least fixpoint of inclusion constraints in
    the usual Andersen style:

    - [Const r, c] — [r ⊇ {region containing c}] (a constant inside a
      named region is a base pointer into it; any other constant is an
      outside value);
    - [Mov]/[Bin]/[Itof]/[Ftoi] — set union of the operands (pointer
      arithmetic under the {e region-respecting object model}: an
      address stays within the region of its base term);
    - [Load r, a] — [r ⊇ content(R)] for every region [R] the address
      may point into;
    - [Store (a, v)] — [content(R) ⊇ pts(v)] for every such [R];
    - calls — argument sets flow into callee parameters, returned sets
      into the call destination.

    Float/comparison results carry only the outside bit: they are
    offsets, not base pointers.  Region contents start as the
    points-to set of the constant 0 (MiniVM memory is zero-filled).

    Sets are bit masks ([int]); programs with more than 62 named
    regions degrade soundly to "everything aliases everything". *)

type t

val analyse : Vm.Prog.t -> t

val n_regions : t -> int
(** Named regions + 1 (index 0 is the outside pseudo-region). *)

val region_name : t -> int -> string

val region_range : t -> int -> (int * int) option
(** [(base, size)] of a named region; [None] for outside. *)

val region_of_addr : t -> int -> int
(** Region index containing a concrete address (0 when in no named
    region). *)

val accesses : t -> (Vm.Isa.Sid.t * bool * int) list
(** Every memory access: sid, is-store, address mask. *)

val func_touched : t -> int -> int
(** Mask of regions function [fid] may access, transitively through
    calls (0 = provably memory-access-free, e.g. the libm stand-ins). *)

val pp : Format.formatter -> t -> unit
