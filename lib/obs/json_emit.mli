(** Minimal JSON emission and validation.

    One shared emitter for every machine-readable report the tree
    produces ([bench staticdep --json],
    [bench obs --json], the Chrome trace exporter, the CLI [--json]
    outputs), replacing per-call-site [Printf] JSON with its scattered
    escaping bugs.  The container ships no [yojson], so a small
    recursive-descent {!parse} is included for round-trip validation of
    emitted documents (used by [make obs-smoke] and the tests). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape_string : string -> string
(** RFC 8259 string escaping, including the quotes. *)

val to_string : ?pretty:bool -> t -> string
val to_channel : ?pretty:bool -> out_channel -> t -> unit
val write_file : ?pretty:bool -> string -> t -> unit

val parse : string -> (t, string) result
(** Strict parser for the subset this module emits (all of JSON except
    exotic number forms; numbers with [. e E] parse as [Float], others
    as [Int]).  Returns a description of the first defect. *)

val parse_file : string -> (t, string) result

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] elsewhere. *)

val strip_fields : names:string list -> t -> t
(** Recursively remove every object field whose key is in [names], at
    any depth. *)

val equal_ignoring : ignore:string list -> t -> t -> bool
(** Structural equality after {!strip_fields} — the comparison every
    rerun-stability consumer (perf diffing, stable benchmark rewrites)
    uses to disregard volatile fields like
    [generated_utc]. *)

val write_file_stable : ?pretty:bool -> ?ignore:string list -> string -> t -> bool
(** Write [v] to [path] unless the file already holds a document equal
    up to the ignored fields (default [["generated_utc"]]), in which
    case the file is left byte-untouched so reruns diff clean.  Returns
    [true] when the file was (re)written. *)

val schema_header : schema_version:int -> (string * t) list
(** The uniform report preamble every benchmark JSON carries:
    [schema_version], [host_cores]
    ([Domain.recommended_domain_count]) and [generated_utc]
    (ISO-8601). *)
