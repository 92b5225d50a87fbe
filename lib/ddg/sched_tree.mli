(** The dynamic schedule tree (paper §4, Fig. 3e/j and Fig. 5): the
    union of Kelly's schedule tree and the calling-context tree.  Nodes
    are context identifiers; loop and recursive-component nodes carry a
    canonical induction variable; children are numbered by Kelly static
    indices in first-execution order.  Folding recursion keeps the tree
    depth bounded by the loop depth, not the recursion depth. *)

type node = {
  elt : Iiv.ctx_id option;  (** [None] for the root *)
  static_index : int;  (** Kelly index among siblings *)
  mutable self_weight : int;  (** dynamic instructions at this exact node *)
  mutable iterations : int;  (** for loop nodes: observed iteration count *)
  children : (Iiv.ctx_id, node) Hashtbl.t;
  mutable child_order : Iiv.ctx_id list;  (** reverse first-seen *)
}

type t

val create : unit -> t
val record : t -> Iiv.t -> weight:int -> unit
(** Attribute [weight] dynamic instructions to the leaf reached by the
    flattened path of the IIV's current context.  Memoised on
    {!Iiv.context_id}: the context itself is built only the first time
    an id is seen. *)

val record_iteration : t -> Iiv.t -> unit
(** Bump the iteration count of the innermost loop node of the IIV's
    current context (memoised like {!record}). *)

val root : t -> node
val total_weight : node -> int
val children_in_order : node -> node list
val depth : t -> int
val n_nodes : t -> int

val is_loop_node : node -> bool

val kelly_path : t -> Iiv.context -> (int * Iiv.ctx_id) list
(** The static-index-decorated path to the context's leaf: Kelly's
    mapping of the statement (paper Fig. 4c), interleaving static indices
    with the context elements. *)

val pp : ?name:(Iiv.ctx_id -> string) -> Format.formatter -> t -> unit
