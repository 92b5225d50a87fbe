(** "Instrumentation I" (paper Fig. 1): build the dynamic per-function
    CFGs and the dynamic call graph from the raw control-event stream,
    then derive the loop-nesting forests and the recursive-component-set.

    Only the executed part of the program is recorded — the advantage
    §3 highlights for large programs with a small hot part.

    MiniVM's blocks and terminators are explicit, so the structure can
    also be read off the program ({!static}) and checked against a run
    ({!agrees}): [Ddg.Depprof] profiles under that speculation and
    feeds a builder in the same run, so Instrumentation I costs no run
    of its own. *)

type structure = {
  cfgs : (int * Loopnest.t * Digraph.t) list;
      (** per executed function: fid, loop forest, dynamic CFG *)
  cg : Digraph.t;
  recset : Recset.t;
  call_sites : (int * int * int) list;  (** caller fid, site bid, callee fid *)
}

type t

val create : Vm.Prog.t -> t

val on_control : t -> Vm.Event.control -> unit
(** Record one control event.
    @raise Invalid_argument on a return that names a caller other than
    the one that made the innermost live call, or with no live call. *)

val callbacks : t -> Vm.Interp.callbacks
val finalize : t -> structure

val run : ?max_steps:int -> ?args:int list -> Vm.Prog.t -> structure
(** Convenience: execute the program once under Instrumentation I. *)

val static : Vm.Prog.t -> structure
(** The structure read off the program text, without running it: for
    each function reachable from main, the blocks reachable from its
    entry with the edges of their terminators ({!Vm.Isa.term_succs}),
    plus the static call graph, its recursive components and the call
    sites.  Every run observes a subset of it. *)

val agrees : speculated:structure -> observed:structure -> bool
(** [speculated] drives the loop events of a run exactly as [observed]
    would: the two call graphs are equal and, for every function
    [observed] executed, both forests list the same loops (id, header,
    depth, parent, children) with members and back edges equal once
    restricted to the blocks and edges [observed] saw.  Blocks and
    edges the run never took may differ. *)

val forest_of : structure -> int -> Loopnest.t option
val pp_structure : Format.formatter -> structure -> unit
