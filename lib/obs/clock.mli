(** Monotonic time for self-profiling.

    [Unix.gettimeofday] follows the system wall clock, which NTP can
    step backwards or forwards mid-run; phase timings taken from it can
    come out negative or wildly inflated.  This module reads
    [clock_gettime(CLOCK_MONOTONIC)] through a tiny C stub and is the
    one time source every span, benchmark and exporter in the tree
    uses.  Where the POSIX clock is unavailable the stub reports it and
    the implementation falls back to [gettimeofday] clamped by a plain
    reference to the largest value returned so far, so it never
    decreases. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary (per-boot) epoch; never decreases. *)

val monotonic : unit -> float
(** Seconds since an arbitrary epoch — the drop-in replacement for the
    [Unix.gettimeofday] delta idiom: [let t0 = monotonic () in ...;
    monotonic () -. t0] is immune to wall-clock steps. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] runs [f ()] and returns its result with the elapsed
    monotonic seconds. *)

val median : float list -> float
(** Median of a sample (mean of the middle pair when even; [0.] when
    empty) — the robust aggregate every repeated timing in the tree
    reports. *)

val wall_iso8601 : unit -> string
(** The current wall-clock time as ["YYYY-MM-DDThh:mm:ssZ"] (UTC) — for
    report metadata only, never for durations. *)
