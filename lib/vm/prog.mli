(** MiniVM programs: functions made of basic blocks, plus a tiny linker
    for global data (array base addresses in the flat memory). *)

type loc = { file : string; line : int }

type block = {
  bid : int;
  instrs : Isa.instr array;
  term : Isa.terminator;
  block_loc : loc option;
}

type func = {
  fid : int;
  fname : string;
  n_params : int;  (** parameters arrive in registers [0 .. n_params-1] *)
  blocks : block array;  (** indexed by block id; entry is block 0 *)
  blacklisted : bool;
      (** stands in for libc-like functions the user grays out (Fig. 7) *)
}

type t = {
  funcs : func array;  (** indexed by function id *)
  main : int;
  globals : (string * int * int) list;  (** name, base address, size (words) *)
  mem_size : int;  (** first free address after all globals *)
}

type wf_error = { wf_fid : int; wf_bid : int; wf_msg : string }
(** A structural well-formedness violation located at function [wf_fid],
    block [wf_bid] ([-1] for function-level problems). *)

val wf_errors : t -> wf_error list
(** Structural checks: block/function id fields consistent, jump/br/call
    targets in range, call arity matching the callee declaration,
    register indices sane.  (Block termination is enforced by the type:
    every [block] carries a terminator.) *)

val validate : t -> unit
(** @raise Invalid_argument with a descriptive multi-line message if
    {!wf_errors} is non-empty.  Called by [Builder.finish], so malformed
    programs are rejected before they reach the interpreter. *)

val pp_wf_error : Format.formatter -> wf_error -> unit

val max_reg_index : int
(** Largest register index the structural checks accept. *)

val func_by_name : t -> string -> func
val func_name : t -> int -> string
val block : t -> fid:int -> bid:int -> block
val instr_at : t -> Isa.Sid.t -> Isa.instr
val loc_of_block : t -> fid:int -> bid:int -> loc option

val n_regs : func -> int
(** The register frame a dataflow pass models: 1 + the largest register
    index the function reads or writes ({!Isa.def_reg}, {!Isa.read_a},
    {!Isa.read_b}, {!Isa.term_reads}, {!Isa.term_def}), at least
    [n_params] and at least 1. *)

val pp : Format.formatter -> t -> unit

(** Imperative program builder. *)
module Builder : sig
  type prog_builder
  type func_builder

  val create : unit -> prog_builder

  val alloc_global : prog_builder -> string -> int -> int
  (** [alloc_global b name size] reserves [size] words and returns the
      base address. *)

  val declare_func :
    ?blacklisted:bool -> prog_builder -> string -> n_params:int -> int
  (** Declare a function (so mutually recursive calls can reference it)
      and get its id.  Its body is defined by a later [define_func]. *)

  val define_func : prog_builder -> int -> func_builder
  val fresh_reg : func_builder -> Isa.reg
  val fresh_block : ?loc:loc -> func_builder -> int
  (** Allocate an empty block and return its id.  Block 0 is the entry
      and is allocated implicitly on [define_func]. *)

  val set_block_loc : func_builder -> int -> loc -> unit
  val emit : func_builder -> int -> Isa.instr -> unit
  (** Append an instruction to the given block. *)

  val terminate : func_builder -> int -> Isa.terminator -> unit
  val finish_func : func_builder -> unit
  val finish : prog_builder -> main:string -> t
end
