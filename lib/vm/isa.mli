(** The MiniVM instruction set.

    MiniVM is the reproduction's stand-in for a compiled x86 binary run
    under QEMU-plugin instrumentation: a register machine with functions,
    basic blocks, explicit [jump]/[br]/[call]/[ret] control transfers and
    a flat word-addressed memory.  The analyser never sees this structure
    directly — only the event stream emitted by {!Interp}. *)

type reg = int
(** Virtual register index, local to a function frame. *)

type operand = Reg of reg | Imm of int

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
type fbinop = Fadd | Fsub | Fmul | Fdiv
type cmpop = Ceq | Cne | Clt | Cle | Cgt | Cge

type instr =
  | Const of reg * int
  | Fconst of reg * float
  | Mov of reg * operand
  | Bin of binop * reg * operand * operand
  | Fbin of fbinop * reg * operand * operand
  | Cmp of cmpop * reg * operand * operand
  | Fcmp of cmpop * reg * operand * operand
  | Load of reg * operand        (** load word at address *)
  | Store of operand * operand   (** [Store (addr, value)] *)
  | Itof of reg * operand
  | Ftoi of reg * operand

type terminator =
  | Jump of int                           (** target block id *)
  | Br of operand * int * int             (** cond, then-block, else-block *)
  | Call of { dst : reg option; callee : int; args : operand list; cont : int }
      (** call function [callee]; on return, resume at block [cont]. *)
  | Ret of operand option
  | Halt

type op_class = Int_alu | Fp_alu | Mem_load | Mem_store | Other_op

val class_of_instr : instr -> op_class
val is_fp : instr -> bool
val is_mem : instr -> bool

(** {2 Registers an instruction reads and writes}

    One definition for the profiler and every static pass.  A missing
    register is [-1], so the per-instruction readers allocate nothing. *)

val def_reg : instr -> reg
(** The register the instruction writes, or [-1] ([Store] writes only
    memory). *)

val read_a : instr -> reg
val read_b : instr -> reg
(** The registers of the first and second operands, or [-1].  Reads
    come in {!Interp}'s order, operand [a] then operand [b]: for a
    [Store (addr, value)], the address and then the value. *)

val reads : instr -> reg list
(** [read_a] then [read_b], without the missing ones (a register read
    by both operands appears twice). *)

val term_def : terminator -> reg
(** A [Call]'s destination (written in the caller's frame when the
    callee returns), or [-1]. *)

val term_reads : terminator -> reg list
(** The registers a terminator reads, in operand order. *)

val term_succs : terminator -> int list
(** Static successor block ids within the function, in operand order: a
    [Call] continues at its [cont] block once the callee returns;
    [Ret]/[Halt] have none. *)

(** Packed static instruction identity: function, block, index in block. *)
module Sid : sig
  type t = int

  val make : fid:int -> bid:int -> idx:int -> t
  val fid : t -> int
  val bid : t -> int
  val idx : t -> int
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

val pp_instr : Format.formatter -> instr -> unit
val pp_terminator : Format.formatter -> terminator -> unit
