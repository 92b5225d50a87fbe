(** Hash tables keyed by [int] with a bit-mixing hash: no polymorphic
    hashing or comparison, and a lookup that hits allocates nothing.
    The instrumentation tables key on packed ints whose high bits carry
    as much information as their low ones. *)

include Hashtbl.S with type key = int
