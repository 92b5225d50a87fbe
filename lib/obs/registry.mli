(** Process-global telemetry switch.

    The whole [Obs] subsystem is a no-op until enabled: spans and metric
    updates check this flag first, so instrumented code paths cost one
    load and a branch when telemetry is off.  The flag starts
    from the [POLYPROF_TELEMETRY] environment variable (any value other
    than ["" | "0" | "false" | "no" | "off"] enables it) and can be
    flipped by the [--telemetry] CLI flag. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val env_var : string
(** ["POLYPROF_TELEMETRY"]. *)

val with_enabled : (unit -> 'a) -> 'a
(** Run [f] with telemetry forced on, restoring the previous state
    (used by tests and the dedicated [telemetry] subcommand). *)
