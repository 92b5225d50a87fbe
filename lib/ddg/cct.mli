(** Calling-context tree (Ammons–Ball–Larus), with call-site labelled
    edges as in paper Fig. 3h.  Unlike the dynamic IIV, the CCT does not
    fold recursion: its depth grows with the recursion depth — the
    comparison made in Fig. 5a. *)

type node = {
  func : int;
  site : int;  (** call-site block id in the parent, -1 for the root *)
  children : (int * int, node) Hashtbl.t;  (** (site, callee) -> child *)
  mutable child_order : (int * int) list;  (** reverse first-seen order *)
}

type t

val create : main:int -> t
val on_control : t -> Vm.Event.control -> unit
val root : t -> node
val max_depth : t -> int
val n_nodes : t -> int
val children_in_order : node -> node list
