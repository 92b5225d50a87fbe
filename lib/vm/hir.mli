(** HIR: a small structured ("C-like") front-end for MiniVM.

    Workloads (mini-Rodinia, GemsFDTD, the paper's figures) are written
    as HIR and *lowered* to MiniVM basic blocks with explicit branches —
    so the analyser has to rediscover all loop structure from the event
    stream, exactly as POLY-PROF does from a binary.  The HIR of a
    workload is also kept around as its "source code": the static Polly
    baseline analyses HIR, mirroring how LLVM Polly sees the IR of the
    source program rather than the binary. *)

type expr =
  | Int of int
  | Flt of float
  | Var of string
  | Base of string  (** base address of a named global array *)
  | Bin of Isa.binop * expr * expr
  | Fbin of Isa.fbinop * expr * expr
  | Cmp of Isa.cmpop * expr * expr
  | Fcmp of Isa.cmpop * expr * expr
  | Load of expr
  | Itof of expr
  | Ftoi of expr
  | Callf of string * expr list  (** call used as an expression *)

type stmt =
  | Let of string * expr  (** assign a (mutable) local variable *)
  | Store of expr * expr  (** [Store (addr, value)] *)
  | For of for_loop
  | While of { cond : expr; wbody : stmt list; wloc : Prog.loc option }
  | If of expr * stmt list * stmt list
  | CallS of string option * string * expr list
  | Return of expr option
  | Break

and for_loop = {
  v : string;
  lo : expr;
  hi : expr;  (** iterates while [v < hi] *)
  step : int;
  body : stmt list;
  floc : Prog.loc option;
  unroll : bool;
      (** full unrolling at lowering time (requires constant bounds);
          models a compiler transformation that changes the binary loop
          depth vs. the source loop depth. *)
}

type fattr = May_alias
(** The function receives pointer arguments that may alias (information a
    static analyser cannot refute; reason code "A" in Table 5). *)

type fundef = {
  name : string;
  params : string list;
  body : stmt list;
  blacklisted : bool;
  attrs : fattr list;
}

type program = {
  funs : fundef list;
  arrays : (string * int) list;  (** name, size in words *)
  main : string;
}

val fundef :
  ?blacklisted:bool -> ?attrs:fattr list -> string -> string list -> stmt list
  -> fundef

val for_ :
  ?loc:Prog.loc -> ?step:int -> ?unroll:bool -> string -> expr -> expr
  -> stmt list -> stmt
(** [for_ v lo hi body]: [for (v = lo; v < hi; v += step) body]. *)

val while_ : ?loc:Prog.loc -> expr -> stmt list -> stmt

val stmt_depth : stmt -> int
(** Loop nesting depth of one statement subtree. *)

val loop_depth : fundef -> int
(** Maximum static (intraprocedural) loop nesting depth of the source. *)

val max_loop_depth : program -> int

exception Lower_error of string

val lower : program -> Prog.t
(** Compile to MiniVM.  @raise Lower_error on malformed HIR (unknown
    function/array names, [Break] outside a loop, non-constant unroll
    bounds, ...). *)

val pp_expr : Format.formatter -> expr -> unit
val pp_program : Format.formatter -> program -> unit
(** C-like source listing of a HIR program (the "source code" of a
    workload, as the static baseline sees it). *)

(** Infix helpers for writing workloads compactly. *)
module Dsl : sig
  val i : int -> expr
  val f : float -> expr
  val v : string -> expr
  val base : string -> expr
  val ( +! ) : expr -> expr -> expr
  val ( -! ) : expr -> expr -> expr
  val ( *! ) : expr -> expr -> expr
  val ( /! ) : expr -> expr -> expr
  val ( %! ) : expr -> expr -> expr
  val ( <! ) : expr -> expr -> expr
  val ( <=! ) : expr -> expr -> expr
  val ( >! ) : expr -> expr -> expr
  val ( >=! ) : expr -> expr -> expr
  val ( ==! ) : expr -> expr -> expr
  val ( <>! ) : expr -> expr -> expr
  (* [+?] etc. are the float variants. *)
  val ( +? ) : expr -> expr -> expr
  val ( -? ) : expr -> expr -> expr
  val ( *? ) : expr -> expr -> expr
  val ( /? ) : expr -> expr -> expr
  val ( <? ) : expr -> expr -> expr
  val ( >? ) : expr -> expr -> expr
  val load : expr -> expr
  val ( .%[] ) : string -> expr -> expr
  (** ["a".%[idx]] is [Load (Base "a" + idx)]. *)

  val store : string -> expr -> expr -> stmt
  (** [store "a" idx value]. *)
end
