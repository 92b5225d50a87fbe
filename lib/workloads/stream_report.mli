(** The trace codec's report ([polyprof trace stats], [bench stream],
    BENCH_stream.json): record a workload's trace to disk, decode it
    back, profile it by replaying the file and compare the result with
    the in-process profile. *)

type row = {
  r_name : string;
  r_events : int;
  r_disk_bytes : int;
  r_record_s : float;  (** run + encode, straight to the file *)
  r_decode_s : float;  (** replay into no instrumentation *)
  r_replay_s : float;  (** out-of-core profile from the file *)
  r_stmts : int;  (** of the replayed profile *)
  r_deps : int;
  r_dep_edges : int;
  r_identical : bool;  (** replayed profile == in-process profile *)
}

val measure : Workload.t -> row

val check : row list -> string list
(** One message per row whose replayed profile differs. *)

val table : row list -> string
(** Text table with a suite summary line. *)

val json : row list -> Obs.Json_emit.t
(** The BENCH_stream.json document. *)
