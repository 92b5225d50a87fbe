(** Aligned plain-text tables for the benchmark harness output. *)

val render : header:string list -> string list list -> string
(** Column-aligned rendering with a separator line under the header. *)
