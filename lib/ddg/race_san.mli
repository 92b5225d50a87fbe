(** Dynamic race sanitizer for claimed-parallel loop dimensions.

    Each claim names a loop (function id + header block).  During one
    interpreted run, every dynamic activation of a claimed loop gets a
    fresh {e epoch serial}, and each of its iterations is treated as a
    logical thread: memory accesses executed inside the activation are
    checked against an epoch-tagged shadow memory, and any
    cross-iteration W/W or R/W pair on the same address within the same
    activation is a {e conflict} — stale entries from earlier
    activations are ignored, so only true same-instance interleavings
    count.

    Conflicts covered by the claim's certificate — the address lies in
    a privatised region, or both endpoints belong to the certified
    reduction chains — are suppressed (counted, not reported).  What
    remains is a race, reported with both accesses' full iteration
    vectors (from {!Iiv}).

    The sanitizer is the dynamic half of the parallelism certifier: a
    race on a statically certified dimension is a soundness failure
    (the cross-check is [Analysis.Parcheck.crosscheck]); a race on an uncertified dimension is dynamic evidence
    confirming the static race witness. *)

type claim = {
  cl_fid : int;
  cl_header : int;  (** header block of the claimed loop *)
  cl_label : string;  (** free-form, used in reports *)
  cl_certified : bool;  (** statically certified (for cross-checking) *)
  cl_private : (int * int) list;
      (** covered address ranges, inclusive (privatised regions) *)
  cl_reductions : Vm.Isa.Sid.t list;  (** covered reduction accesses *)
}

type race = {
  rc_addr : int;
  rc_ww : bool;  (** both endpoints are writes *)
  rc_src : Vm.Isa.Sid.t;
  rc_src_iter : int;  (** iteration of the claimed loop, earlier access *)
  rc_src_iiv : int array;  (** full IIV coordinates at the earlier access *)
  rc_dst : Vm.Isa.Sid.t;
  rc_dst_iter : int;
  rc_dst_iiv : int array;
}

type claim_stats = {
  cs_claim : claim;
  cs_instances : int;  (** dynamic activations of the loop *)
  cs_iterations : int;  (** total iterations across activations *)
  cs_covered : int;  (** conflicts suppressed by the certificate *)
  cs_races : race list;  (** first few uncovered conflicts *)
  cs_n_races : int;  (** all uncovered conflicts *)
}

type report = {
  sr_claims : claim_stats list;  (** in claim order *)
  sr_accesses : int;  (** dynamic memory accesses checked *)
}

val run :
  ?max_steps:int ->
  ?max_races:int ->
  ?args:int list ->
  ?structure:Cfg.Cfg_builder.structure ->
  Vm.Prog.t ->
  claims:claim list ->
  report
(** One interpreted run under the sanitizer ([max_races] caps the
    per-claim reported race list, default 5; totals are exact).  The
    loop structure is [structure] when given.  Otherwise the run
    speculates the static one and checks it in the same run
    ({!Cfg.Cfg_builder.speculate}), running once more under the
    observed structure if the run refutes it; the report is the one
    the observed structure gives either way. *)

val ok : report -> bool
(** No uncovered race on any {e certified} claim. *)

val races_on_certified : report -> int
val pp_race : Format.formatter -> race -> unit
val pp_report : Format.formatter -> report -> unit
