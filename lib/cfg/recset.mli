(** The recursive-component-set: the call-graph counterpart of the
    loop-nesting forest (§3.2).  Each top-level SCC of the call graph
    containing a cycle is a recursive component, with a set of entry
    functions and a set of header functions computed by repeatedly
    choosing an entry of a remaining cyclic sub-SCC and deleting the
    internal edges that target it. *)

type component = {
  comp_id : int;
  members : int list;  (** function ids in the SCC, sorted *)
  entries : int list;  (** functions called from outside the component *)
  headers : int list;  (** acyclicity-breaking set, in selection order *)
}

type t

val compute : Digraph.t -> main:int -> t
val components : t -> component list
val component_of : t -> int -> component option
(** Component whose members include the given function. *)

val is_entry : t -> int -> bool
val is_header : t -> int -> bool
val pp : Format.formatter -> t -> unit
