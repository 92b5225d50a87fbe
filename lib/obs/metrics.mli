(** Counters, gauges and histograms with per-domain sinks.

    Metric {e descriptors} are process-global and registered once by
    name; metric {e values} accumulate in the calling domain's live
    {!Sink.t} (plain mutable state reached through [Domain.DLS] — no
    atomics on the update path).  Each domain has exactly one live
    sink and none is ever retired: {!snapshot} reads the calling
    domain's, so values recorded on another domain do not appear in
    it.

    {!Sink.merge_into} is deterministic and order-insensitive by
    construction: counters and histogram buckets add (integer sums
    commute), gauges are high-watermarks (merge by [max]), histogram
    [min]/[max] merge by [min]/[max].  Merging the same updates split
    across 1, 2 or 5 sinks in any order yields bit-identical totals —
    property-tested in [test_obs.ml]. *)

type kind = Counter | Gauge | Histogram

type desc = private {
  d_id : int;
  d_name : string;  (** dotted, e.g. ["stream.encode.bytes"] *)
  d_kind : kind;
  d_help : string;
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
(** Add to the calling domain's sink.  No-op while telemetry is
    disabled. *)

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
(** Sorted by metric name; metrics never updated are omitted. *)

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
(** The calling domain's sink. *)

val reset : unit -> unit
(** Drop all accumulated values (descriptors survive) — test isolation
    and the start of an explicitly-scoped telemetry run. *)

(** {2 Explicit sinks}

    The deterministic-merge core, usable directly (and property-tested)
    without the domain-local plumbing. *)

module Sink : sig
  type t

  val create : unit -> t
  val add : t -> counter -> int -> unit
  val set_max : t -> gauge -> int -> unit
  val observe : t -> histogram -> int -> unit
  val merge_into : dst:t -> t -> unit
  val snapshot_of : t list -> snapshot
end
