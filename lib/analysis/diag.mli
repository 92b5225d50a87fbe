(** Diagnostics shared by all static-analysis passes.

    A diagnostic carries a machine-checkable code (stable across message
    rewordings, used by the tests), a severity, and a location: the
    owning function plus, when the problem is tied to one instruction or
    terminator, a static id.  Terminators are addressed by the index one
    past the last instruction of their block. *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  code : string;  (** e.g. "E-target", "W-uninit", "E-crosscheck" *)
  fid : int;
  sid : Vm.Isa.Sid.t option;  (** [None] for function-level diagnostics *)
  message : string;
}

val error : ?sid:Vm.Isa.Sid.t -> code:string -> fid:int -> string -> t
val warning : ?sid:Vm.Isa.Sid.t -> code:string -> fid:int -> string -> t
val info : ?sid:Vm.Isa.Sid.t -> code:string -> fid:int -> string -> t

val is_error : t -> bool
val count : severity -> t list -> int

val compare : t -> t -> int
(** Errors first, then by function, location and code. *)

val pp : ?prog:Vm.Prog.t -> unit -> Format.formatter -> t -> unit
(** With [?prog], function ids are rendered as names. *)

val to_string : ?prog:Vm.Prog.t -> t -> string
