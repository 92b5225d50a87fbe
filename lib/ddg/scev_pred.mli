(** Static prediction of SCEV statements (paper §5, "SCEV recognition").

    {!Depprof} drops every dependence edge that touches a SCEV statement:
    an integer instruction whose value folds into an exact affine
    function of its iteration vector.  That is only known after the
    statement's collector is folded, so without a prediction every such
    edge is buffered and then thrown away.  This module predicts, before
    the run, the statements that will fold as SCEV, from the program and
    the loop forests Instrumentation I recovered; the profiler checks
    every prediction against the fold and reruns without prediction if
    one is refuted.

    A statement is predicted when both halves of SCEV hold by
    construction:

    - {e Its value is affine in its function's loop counters.}  An
      abstract interpretation over the executed CFG maps each register
      to [c0 + sum c_l * k_l] (or to "unknown"), where [k_l] is the
      IIV coordinate of loop [l]: constants, [Add]/[Sub], multiplication
      and left shift by a constant.  At a loop header, a register whose
      one in-loop definition is [r := r + c] (directly or through one
      temporary) in a block run once per iteration becomes
      [entry + c * k_l]; any other register defined in the loop becomes
      unknown.  Parameters, loads, call results and floats are unknown.
    - {e Its domain folds exactly.}  Its block runs once per iteration of
      its innermost loop, each enclosing loop is entered once per
      iteration of its parent, and each loop exits only from its header
      (no [break], no [return] inside).  A block outside loops in a
      function other than [main] must run on every call.  The function
      is not recursive, and every call site of it is such a block of a
      function that qualifies in turn.

    Only [Const], [Mov] and [Bin] instructions are predicted: the
    instructions {!Depprof} labels with their value.  Trip counts are
    not checked, so a loop whose trip count is data dependent can still
    refute a prediction.

    It runs before every profile, so it must allocate less than the
    dependence collectors it saves: block states hold only the
    registers whose values cross a block boundary, and each evaluated
    instruction allocates at most one small affine form. *)

type t

val none : t
(** Predicts nothing. *)

val compute : Vm.Prog.t -> Cfg.Cfg_builder.structure -> t

val mem : t -> Vm.Isa.Sid.t -> bool
(** Whether the instruction is predicted SCEV. *)
