(** Views of [Obs] telemetry: a {!Texttable} summary of the span tree
    and metric snapshot, its BENCH_obs.json document, and a
    self-flamegraph of the spans on the generic {!Flamegraph.frame}
    renderer (the profiler profiling itself). *)

val summary : ?metrics:Obs.Metrics.snapshot -> Obs.Span.t list -> string
(** Text report: one indented row per span (duration, domain, GC words,
    heap watermark), then one row per metric. *)

val json :
  workloads:string list -> metrics:Obs.Metrics.snapshot -> Obs.Span.t list -> Obs.Json_emit.t
(** The BENCH_obs.json document: schema header, the workload names,
    the span tree (duration, domain, GC words, heap watermark per span)
    and every metric (a counter's or gauge's value; a histogram's
    count, sum, min and max). *)

val spans_table : Obs.Span.t list -> string
val metrics_table : Obs.Metrics.snapshot -> string

val flamegraph_svg : ?width:int -> Obs.Span.t list -> string
(** SVG flame graph of the span tree, weighted by duration (ns),
    coloured by span category. *)

val write_flamegraph_svg : path:string -> ?width:int -> Obs.Span.t list -> unit
