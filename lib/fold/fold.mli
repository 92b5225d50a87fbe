(** Folding (paper §5 and companion report [29]): compress a stream of
    (iteration vector, label vector) pairs into a union of polyhedra,
    each carrying an affine function that reproduces the labels.

    For dynamic instructions the label is the produced integer value
    and/or accessed address (SCEV and stride recognition); for
    dependencies the label is the producer's iteration vector.

    The algorithm is geometric: it recognises domains of the form
    [lo_d(c_0..c_{d-1}) <= c_d <= hi_d(c_0..c_{d-1})] with affine bounds
    (rectangles, triangles, trapezoids — the shapes loop nests produce),
    piecewise if necessary, and verifies exactness by point counting.
    When a stream is too irregular (or too large to buffer) it
    over-approximates: bounding-box domains and/or unknown (top)
    labels. *)

type piece = {
  dom : Minisl.Polyhedron.t;
  labels : Minisl.Affine.t option array;
      (** one entry per label component; [None] means that component
          could not be expressed affinely over this piece (top) — the
          paper's label over-approximation is per component *)
  exact : bool;  (** whether [dom] contains exactly the folded points *)
  points : int;  (** number of points folded into this piece *)
  under : Minisl.Polyhedron.t option;
      (** for over-approximated pieces, a certified inner region every
          point of which was definitely iterated — the paper's §10
          future work ("under-approximation schemes in the DDG") *)
}

val piece_label_fn : piece -> Minisl.Affine.t array option
(** All label components, if every one of them folded affinely. *)

val pp_piece :
  ?names:string array -> ?label_names:string array -> Format.formatter
  -> piece -> unit

(** Streaming collector for one folding context. *)
module Collector : sig
  type t

  val create :
    ?cap:int -> ?max_pieces:int -> ?boundary_splits:bool ->
    ?per_component:bool -> dim:int -> label_dim:int -> unit -> t
  (** [cap] (default 100_000) bounds the number of buffered points; past
      it the collector switches to streaming over-approximation.
      [max_pieces] (default 16) bounds the number of exact pieces before
      widening.  [boundary_splits] (default true) enables splitting on
      first/last-iteration boundaries; [per_component] (default true)
      enables per-label-component over-approximation — both exist as
      knobs for the ablation benches. *)

  val add : t -> int array -> int array -> unit
  (** [add t coords label].  [coords] must have length [dim] and [label]
      length [label_dim].  The collector copies the values; the caller
      may reuse both arrays. *)

  val npoints : t -> int
  val dim : t -> int

  (** {2 Shared domains}

      Collectors whose points are the same, in the same order, can be
      fed once: the points go into a {!domain}, a labelled collector
      takes each point's label through {!label}, and {!fill} gives a
      collector the stream the points alone, or each labelled by
      itself, would have built one {!add} at a time. *)

  type domain
  (** A sequence of points of one dimension, held as runs. *)

  val domain : dim:int -> cap:int -> domain
  (** An empty domain that holds at most [cap] runs. *)

  val extend : domain -> int array -> unit
  (** Append a point (its values are copied). *)

  val domain_points : domain -> int

  val label : t -> domain -> int array -> int -> unit
  (** [label t d coords v]: [add t coords [| v |]], where [coords] is
      the point just appended to [d] and [t] ([label_dim = 1]) holds the
      points of [d] before it: whether the point continues a run is
      read from [d], so only the label is tested. *)

  type points =
    | Unlabelled  (** the points alone: [label_dim = 0] *)
    | By_coords  (** each point labelled by itself: [label_dim = dim] *)

  val fill : final:bool -> t -> domain -> points -> int -> unit
  (** [fill ~final t d src n]: [t], empty, takes the first [n] points of
      [d] ([n] at most [max 1 cap]), labelled as [src] says: its state is then
      the one [n] calls of {!add} leave, a spill at [cap] included.
      [final] promises that neither [t] nor [d] takes another point: a
      fill of all of [d] then shares its runs with [d] and with the
      other such fills of [d] instead of copying them. *)

  type shared
  (** A stream table: the pieces of every buffered stream folded with
      it, with how each piece was found, keyed on the stream's runs and
      on the [dim], [label_dim], [max_pieces] and [boundary_splits] of
      its collector.  The key reads each label component relative to the
      stream's first label, so two streams that differ only by a
      constant added to each label component share it.  Folding is a
      pure function of the stream, so a collector whose stream is in the
      table is not folded again:
      - a stream equal to the one in the table takes its pieces as they
        are;
      - a stream shifted from it keeps every piece's domain, exactness,
        point count and under-approximation, and fits only the labels
        of each piece again, on its own labels and the same points,
        with the code the fold fitted them with.  That is what a fresh
        fold returns: a piece's labels are written down from the fitted
        points, so shifting the cached labels' constants would not be
        (DESIGN.md, stream table).  It is done only when every start and
        last label of both streams' runs lies within [±2^40]; a shifted
        stream outside that bound is folded afresh.  The refitted
        stream then takes the table's entry, so its repeats are equal.
      Spilled collectors never enter it.  The table references the
      collectors' run buffers; drop it with the collectors.  It also
      holds the {!Ws.t} its folds run in, grown to the largest of them
      and dropped with the table. *)

  val shared : unit -> shared
  (** A fresh, empty stream table. *)

  val result : shared:shared -> t -> piece list
  (** Finalize (idempotent).  The union of the returned pieces covers all
      added points; pieces marked [exact] contain exactly their points.
      A stream in [shared] (equal or shifted, as above) is answered from
      it and counts 1 in [fold.shared]; a shifted one also counts 1 in
      [fold.shifted].  Neither a fold nor a refit decodes the stream:
      the split search and the refits encode their parts from its runs
      (the slices appended count in [fold.search_slices]), so only a
      spilled collector adds to [fold.decoded_points], the points it held
      when it spilled.  The collector then applies its own
      [per_component].  With telemetry on, the first call observes the
      point count into the [fold.collector_points] histogram. *)

  val spilled : t -> bool
  (** Whether the collector reached its [cap] and switched to streaming
      over-approximation. *)

  val is_affine : t -> bool
  (** All pieces of the finalized result exact with every label
      component affine.  Raises [Invalid_argument] before {!result}. *)

  (** {2 Test hook} *)

  val buffered_runs : t -> int array option
  (** A copy of the runs a collector that still buffers holds, laid out
      as {!Runs.contents} lays them out; [None] once it spilled or was
      finalized. *)

  type source =
    | Folded  (** folded by this call *)
    | Shared  (** the pieces of an equal stream in the table *)
    | Shifted  (** refitted from a shifted stream in the table *)

  val set_check :
    (source -> int array array -> int array array -> piece list -> unit) option -> unit
  (** [set_check (Some f)]: every later {!result} on a buffered
      collector calls [f source points labels pieces] with its decoded
      stream and its result, before it returns; [None] stops it.  For
      oracles over whole profiles: the hook is the one place a buffered
      stream is decoded into points (not counted in
      [fold.decoded_points]). *)
end

val fold_points : dim:int -> label_dim:int -> (int array * int array) list -> piece list
(** One-shot folding of a point list with a fresh stream table
    (convenience for tests). *)

(** {2 Exposed for tests} *)

(** The collectors' lossless run-length stream codec.  A run holds
    consecutive points along the innermost dimension (the same outer
    coordinates, the innermost one stepping by 1) whose labels change by
    a constant step; no run wraps around [max_int].  A 0-dimensional
    stream keeps one run per point. *)
module Runs : sig
  type t

  val of_points : dim:int -> label_dim:int -> (int array * int array) list -> t
  val to_points : t -> (int array * int array) list
  val length : t -> int
  (** The number of runs. *)

  val npoints : t -> int
  (** The number of points. *)

  val run_lengths : t -> int array
  (** The number of points of each run, in order. *)

  val contents : t -> int array
  (** A copy of the runs as they are laid out in the buffer. *)
end

(** The flat-int workspace the fits of one stream table run in (each
    {!Collector.shared} holds one). *)
module Ws : sig
  type t

  val create : unit -> t
end

val solve_samples :
  Ws.t -> int array array -> int array -> (Pp_util.Rat.t array * Pp_util.Rat.t) option
(** [solve_samples ws points values]: the sample solve of one fit round
    on these rows, in this order — the coefficients and constant of the
    affine function through every [(points.(i), values.(i))], with free
    unknowns 0, or [None] if none interpolates them.  This is the
    fraction-free elimination in checked native ints alone: it raises
    [Rat.Overflow] where an intermediate overflows (a fit round then
    redoes the rows with [Matrix.affine_fit]). *)

val prefix_groups : Ws.t -> Runs.t -> int -> int array * int array * int array * int array
(** [prefix_groups ws r d] groups the points of [r] by their first [d]
    coordinates ([d < dim]): [(first, group, lo, hi)] are each group's
    first run, each run's group, and each group's min and max of
    coordinate [d].  Groups are numbered in the order their prefixes
    first appear. *)

val encode_slices : Runs.t -> int array -> Runs.t
(** [encode_slices r part]: the part [part] of [r] encoded as the split
    search encodes a candidate part.  [part] is a canonical list of run
    slices, flat: the triple [(j, f, l)] stands for the points
    [f .. f + l - 1] of run [j]; the triples are in stream order, and two
    slices of one run that touch are one slice.  The result holds the
    same runs as pushing the part's points one at a time. *)

val part_groups : Ws.t -> Runs.t -> int array -> int -> int array * int array * int array * int array
(** [part_groups ws r part d]: what {!prefix_groups} gives on
    [encode_slices r part] at [d], grouped as the split search groups a
    part: by the prefix groups of the runs of [r] the part's runs start
    in, so no prefix is hashed. *)

val fit_points : Ws.t -> Runs.t -> int -> Minisl.Affine.t option
(** [fit_points ws r k]: label component [k] of the points of [r] as an
    affine function of the whole point, found by the sampled fit and
    verified at every point in stream order, or [None].
    @raise Pp_util.Rat.Overflow where the fit's arithmetic overflows *)

val nest_polyhedron : (Minisl.Affine.t * Minisl.Affine.t) array -> Minisl.Polyhedron.t
(** [nest_polyhedron bounds]: the nest [bounds] (as for {!implied_count})
    as a folded piece's domain, the constraints [c_d - lo_d >= 0] and
    [hi_d - c_d >= 0] of each dim [d] cleared of denominators.  The
    integer arithmetic is the one a split-search verdict runs to check,
    without building it, that a domain can be written down.
    @raise Pp_util.Rat.Overflow where [Minisl.Constr.of_affine] of
    [Minisl.Affine.sub] would *)

val implied_count :
  (Minisl.Affine.t * Minisl.Affine.t) array -> limit:int -> int option
(** [implied_count bounds ~limit]: the number of integer points of the
    nest [ceil lo_d(c_0..c_{d-1}) <= c_d <= floor hi_d(c_0..c_{d-1})]
    ([bounds.(d) = (lo_d, hi_d)], each over all [dim] coordinates), or
    [None] once it passes [limit] or the enumeration work passes
    [4 * (limit + dim + 1)].
    @raise Invalid_argument on a bound of another dimension *)
