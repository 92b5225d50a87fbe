(** Loop-event generation (paper Algorithms 1 and 2, unified).

    Consumes the raw control-event stream (jump / call / return) together
    with the static control structure recovered by Instrumentation I, and
    produces the stream of loop events: entry / iterate / exit for CFG
    loops and recursive components, plus block / call / return position
    events that drive the dynamic IIV of Algorithm 3. *)

type loop_ref =
  | Cfg_loop of { l_fid : int; loop : Cfg.Loopnest.loop }
  | Rec_comp of Cfg.Recset.component

val loop_name : loop_ref -> string

type t =
  | Enter of loop_ref * int * int
      (** E(L,H) / Ec(L,B): loop, destination fid, destination bid *)
  | Iterate of loop_ref * int * int  (** I / Ic / Ir *)
  | Exit of loop_ref * int * int  (** X / Xr *)
  | Block of int * int  (** N(B): local jump to (fid, bid) *)
  | Call_push of int * int  (** C(F,B): non-header call to (fid, entry bid) *)
  | Ret_pop of int * int  (** R(B): return resuming at (fid, bid) *)

val pp : Format.formatter -> t -> unit

type state

val create : Cfg.Cfg_builder.structure -> main:int -> state

(** Events are delivered to an [emit] callback, in order, as they are
    produced. *)

val start : state -> emit:(t -> unit) -> unit
(** Emit the initial [Block (main, 0)] event for entering [main].  If
    not called explicitly, it is emitted on the first call to
    {!feed}. *)

val feed : state -> emit:(t -> unit) -> Vm.Event.control -> unit
(** Emit the loop events of one raw control event. *)

val finish : state -> emit:(t -> unit) -> unit
(** Emit the exits of the loops still live at the end of the trace. *)

val live_depth : state -> int
(** Number of currently live loops (for invariant checking in tests). *)
