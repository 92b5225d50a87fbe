(** Dynamic interprocedural iteration vectors (paper §4, Algorithm 3).

    A dynamic IIV alternates context identifiers and canonical induction
    variables:
    [(CTX_1, iv_1, CTX_2, iv_2, ..., CTX_n)]
    where each CTX is a (possibly empty) stack of calling contexts ending
    in a loop or basic-block identifier, and each iv is a canonical
    induction variable (starts at 0, increments by 1).

    The IIV splits into a non-numerical part — the {e context} — and a
    numerical part — the {e coordinates} (the iv vector); folding (§5) is
    performed per context.  Contexts are interned to small integers. *)

type ctx_id =
  | Cblock of int * int  (** basic block (fid, bid) *)
  | Cloop of int * int  (** CFG loop (fid, loop id) *)
  | Ccomp of int  (** recursive component id *)

val pp_ctx_id : Format.formatter -> ctx_id -> unit

type context = ctx_id list list
(** One context stack per dimension (outermost dimension first, each
    stack outermost element first), plus the trailing statement context
    as the last element. *)

type t
(** Mutable IIV state, updated by loop events. *)

val create : unit -> t
val update : t -> Loop_events.t -> unit
(** Algorithm 3. *)

val depth : t -> int
(** Number of iv dimensions. *)

val coords : t -> int array
(** Current induction-variable vector, outermost first.  The same array
    is returned until the next [Enter], [Iterate] or [Exit] event, which
    builds a new one and leaves the old one as it was: holders may keep
    it, and must never mutate it. *)

val context : t -> context

val context_id : t -> int
(** Id of the current context: dense from [0], issued in first-query
    order.  Contexts are interned as a trie of [(parent, element)]
    nodes that every {!update} steps through, so a query is an array
    read.  There is one trie per process. *)

val context_of_id : int -> context
(** @raise Not_found for ids not produced by {!context_id} since the
    last {!reset_intern_table}. *)

val reset_intern_table : unit -> unit
(** Clear the trie and ids (between independent analyses).  An IIV
    created before the reset must not be used after it. *)

val pp : ?name:(ctx_id -> string) -> Format.formatter -> t -> unit
(** Renders like the paper: [(M0/L1, 0, A1/L2, 1, B1)]. *)

val to_string : ?name:(ctx_id -> string) -> t -> string
