(** Use/def views of MiniVM instructions and terminators, plus the static
    control-flow graph of a function — the inputs every dataflow pass
    shares.

    Unlike {!Cfg.Cfg_builder}, which reconstructs CFGs from the *dynamic*
    event stream (only executed blocks appear), this is the full static
    CFG: one node per basic block, edges from the terminator syntax.
    Call terminators get a fall-through edge to their continuation block,
    the same shape Instrumentation I produces. *)

val instr_uses : Vm.Isa.instr -> Vm.Isa.reg list
(** Registers read by the instruction, in operand order (duplicates kept). *)

val instr_def : Vm.Isa.instr -> Vm.Isa.reg option
(** The register written, if any ([Store] writes only memory). *)

val term_uses : Vm.Isa.terminator -> Vm.Isa.reg list

val term_def : Vm.Isa.terminator -> Vm.Isa.reg option
(** A [Call] with a destination defines it (in the caller's frame, on the
    edge to the continuation block). *)

val n_regs : Vm.Prog.func -> int
(** 1 + the largest register index mentioned anywhere in the function
    (at least [n_params]); the frame size a dataflow pass must model. *)

val static_cfg : Vm.Prog.func -> Cfg.Digraph.t
(** Nodes are block ids, edges {!Vm.Isa.term_succs}; out-of-range
    successors (a malformed program that bypassed {!Vm.Prog.validate})
    are skipped, so passes stay total. *)

val term_sid : fid:int -> Vm.Prog.block -> Vm.Isa.Sid.t
(** The static id addressing the terminator of a block: index one past
    the last instruction. *)
