(** Events emitted by the instrumented interpreter.

    This is the exact interface POLY-PROF's "Instrumentation I/II" stages
    consume: raw control transfers (jump / call / return) plus one
    execution record per dynamic instruction with the produced value and
    the memory addresses touched. *)

type control =
  | Jump of { fid : int; src : int; dst : int }
      (** local jump within function [fid], from block [src] to [dst] *)
  | Call of { caller : int; site : int; callee : int; dst : int }
      (** call from block [site] of [caller]; [dst] is the entry block of
          [callee] *)
  | Return of { callee : int; caller : int; dst : int }
      (** return from [callee]; control resumes at block [dst] of
          [caller] *)

type value = I of int | F of float

type exec = {
  sid : Isa.Sid.t;
  cls : Isa.op_class;
  value : value option;  (** value produced into the destination register *)
  addr_read : int option;
  addr_written : int option;
  reads : Isa.reg list;  (** registers read by the instruction *)
  writes : Isa.reg option;
  depth : int;  (** call-stack depth (main = 0) *)
}
