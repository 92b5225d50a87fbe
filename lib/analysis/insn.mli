(** The static control-flow graph of a function — the input every
    dataflow pass shares with its register frame ({!Vm.Prog.n_regs}) and
    the registers each instruction reads and writes ({!Vm.Isa.def_reg},
    {!Vm.Isa.reads}).

    Unlike {!Cfg.Cfg_builder}, which reconstructs CFGs from the *dynamic*
    event stream (only executed blocks appear), this is the full static
    CFG: one node per basic block, edges from the terminator syntax.
    Call terminators get a fall-through edge to their continuation block,
    the same shape Instrumentation I produces. *)

val static_cfg : Vm.Prog.func -> Cfg.Digraph.t
(** Nodes are block ids, edges {!Vm.Isa.term_succs}; out-of-range
    successors (a malformed program that bypassed {!Vm.Prog.validate})
    are skipped, so passes stay total. *)

val term_sid : fid:int -> Vm.Prog.block -> Vm.Isa.Sid.t
(** The static id addressing the terminator of a block: index one past
    the last instruction. *)
