(** Chrome trace-event export (the JSON Array / "traceEvents" format
    understood by Perfetto, chrome://tracing and speedscope).

    Spans become ["ph": "X"] complete events on ["tid": 0] carrying
    their GC stats in [args]; metric snapshots become ["ph": "C"] counter samples.  All
    timestamps are microseconds on the monotonic span clock. *)

val to_json :
  ?process_name:string ->
  ?metrics:Metrics.snapshot ->
  Span.t list ->
  Json_emit.t

val to_string :
  ?process_name:string -> ?metrics:Metrics.snapshot -> Span.t list -> string

val write_file :
  path:string ->
  ?process_name:string ->
  ?metrics:Metrics.snapshot ->
  Span.t list ->
  unit

val validate_file : string -> (int, string) result
(** Re-read an emitted trace and check it is well-formed JSON with a
    [traceEvents] array; returns the event count.  The no-[yojson]
    stand-in for an external round-trip check. *)
