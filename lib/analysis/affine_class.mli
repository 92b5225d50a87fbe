(** Static affine classification of memory accesses, directly on MiniVM
    bytecode (the static counterpart of the dynamic SCEV recognition in
    {!Ddg.Depprof}, sharing its failure vocabulary with
    {!Staticbase.Polly_lite}).

    Per function, the pass rediscovers the loop-nesting forest of the
    *static* CFG ({!Insn.static_cfg} + {!Cfg.Loopnest}), identifies each
    loop's induction registers (the unique in-region definition is
    [r := r + c]), and abstractly interprets every register as a linear
    expression over induction symbols and symbolic parameters.  Every
    [Load]/[Store] address is then classified:

    - [Lin] — affine in loop counters and parameters (Polly would model
      the access);
    - [Loaded] — the address root was itself loaded from memory: the
      paper's "base pointer not loop invariant" code [P];
    - [Mixed] — a loaded value participates non-additively (indirect
      index, [a[b[i]]]): code [F];
    - [Opaque] — not provably affine: code [F].

    When a loop's bounds and step are compile-time constants, induction
    symbols additionally carry a concrete range, giving each affine
    access an inclusive over-approximate address interval — the raw
    material for the static-independence facts used by {!Crosscheck}.
    {!analyse_prog} sharpens this interprocedurally by propagating
    constant call arguments into parameters (merging over all call
    sites), so kernels called with literal sizes and base addresses
    classify as tightly as [main] itself. *)

type sym =
  | Ind of { loop : int; ind_reg : Vm.Isa.reg }
      (** value of induction register [ind_reg] of loop [loop] (a
          {!Cfg.Loopnest.loop} id) at the current header entry *)
  | Par of int  (** function parameter (register index), symbolic *)

type lin = {
  lbase : int;
  lterms : (sym * int) list;  (** sorted, no zero coefficients *)
}

type value = Lin of lin | Loaded | Mixed | Opaque

type access = {
  acc_sid : Vm.Isa.Sid.t;
  acc_store : bool;
  acc_addr : value;  (** abstract address *)
  acc_range : (int * int) option;
      (** inclusive over-approximation of every address this access can
          touch; [None] unless provable *)
  acc_depth : int;  (** static loop nesting depth of the access *)
}

val classify :
  access -> [ `Affine of lin | `Nonaffine of Staticbase.Polly_lite.reason ]

val class_code : access -> string
(** ["-"] for affine, otherwise the {!Staticbase.Polly_lite} reason
    letter (["F"] or ["P"]). *)

type call_site = {
  cs_callee : int;
  cs_sid : Vm.Isa.Sid.t;
  cs_args : int option array;  (** per argument: compile-time constant? *)
}

type loop_info = {
  li_id : int;  (** {!Cfg.Loopnest.loop} id *)
  li_header : int;
  li_trip : int option;
      (** compile-time body-execution count, from the branching counter
          of the lowered for-loop idiom; [None] when bounds are not
          constant *)
  li_trip_lin : lin option;
      (** body-execution count as a linear expression over enclosing
          induction symbols, clamped at 0 by consumers: a constant when
          [li_trip] is set, affine in outer counters for unit-step
          triangular/trapezoidal nests, [None] when bounds are not
          affine *)
  li_counters : (Vm.Isa.reg * lin option * int) list;
      (** every induction register with its entry value (joined over
          loop entries from outside the region, [None] when not affine)
          and step; [Ind] symbols of this loop evaluate to
          [entry + k*step] at body iteration [k] *)
}

type func_result = {
  fr_fid : int;
  fr_forest : Cfg.Loopnest.t;  (** of the static CFG *)
  fr_accesses : access list;  (** in (bid, idx) order, reachable code only *)
  fr_calls : call_site list;
  fr_loops : loop_info list;  (** one summary per static loop *)
}

val analyse_func :
  ?param_value:(int -> int option) -> Vm.Prog.t -> int -> func_result
(** [param_value i] gives a known compile-time constant for parameter
    [i], as established by interprocedural propagation (default: all
    parameters symbolic). *)

val analyse_prog : Vm.Prog.t -> func_result array
(** All functions, with constant call arguments propagated callee-wards
    to a fixpoint (a parameter becomes constant when every static call
    site passes the same compile-time constant). *)

val pp_value : Format.formatter -> value -> unit
val pp_access : Format.formatter -> access -> unit
