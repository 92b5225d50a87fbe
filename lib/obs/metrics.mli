(** Counters, gauges and histograms.

    A metric {e descriptor} is registered once by name and holds the
    metric's value: a counter's total, a gauge's high-watermark or a
    histogram's samples, plus whether it was updated since the last
    {!reset}.  Updates write the descriptor in place, unsynchronised:
    telemetry is recorded from one domain, the profiler's one
    sequential run. *)

type kind = Counter | Gauge | Histogram

type hist
(** A histogram's accumulated samples; read them through {!snapshot}. *)

type desc = private {
  d_name : string;  (** dotted, e.g. ["stream.encode.bytes"] *)
  d_kind : kind;
  d_help : string;
  mutable d_updated : bool;  (** since the last {!reset} *)
  mutable d_value : int;  (** a counter's total or a gauge's high-watermark *)
  d_hist : hist;  (** a histogram's samples; empty for other kinds *)
}

type counter
type gauge
type histogram

val counter : ?help:string -> string -> counter
val gauge : ?help:string -> string -> gauge
val histogram : ?help:string -> string -> histogram
(** Register (or look up) a metric descriptor.  Re-registering the same
    name returns the existing descriptor; re-registering it with a
    different kind raises [Invalid_argument]. *)

val add : counter -> int -> unit
(** Add to the counter (adding [0] still marks it updated).  No-op
    while telemetry is disabled. *)

val set_max : gauge -> int -> unit
(** Raise the gauge high-watermark.  No-op while disabled. *)

val observe : histogram -> int -> unit
(** Record a sample (clamped to [0] if negative) into power-of-two
    buckets.  No-op while disabled. *)

(** {2 Snapshots} *)

type hist_summary = {
  h_count : int;
  h_sum : int;
  h_min : int;  (** meaningless when [h_count = 0] *)
  h_max : int;
  h_buckets : int array;  (** bucket [k] counts samples with at most
                              [k] significant bits, i.e. values in
                              [(2{^k-1}, 2{^k}-1]]; bucket [0] counts
                              zeros *)
}

type value = Vint of int | Vhist of hist_summary

type snapshot = (desc * value) list
(** Sorted by metric name; metrics not updated since the last {!reset}
    are omitted. *)

val n_buckets : int
val bucket_le : int -> int
(** [bucket_le k] is the inclusive upper bound of bucket [k]
    ([2{^k} - 1]), the Prometheus [le] label. *)

val quantile : hist_summary -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0..1]) of the observed
    samples from the power-of-two buckets: linear interpolation inside
    the bucket holding the target rank, clamped to the exact observed
    [h_min]/[h_max].  The coarse buckets bound the error to one power
    of two.  [0.0] when the histogram is empty. *)

val quantiles : hist_summary -> (float * float) list
(** The p50/p90/p99 summary derived with {!quantile}. *)

val default_quantiles : float list
(** [[0.5; 0.9; 0.99]] — the quantiles every surface (text tables,
    Prometheus summary lines, [polyprof telemetry]) reports. *)

val snapshot : unit -> snapshot
(** The metrics updated since the last {!reset}. *)

val reset : unit -> unit
(** Clear every value (descriptors survive) — test isolation and the
    start of an explicitly-scoped telemetry run. *)
