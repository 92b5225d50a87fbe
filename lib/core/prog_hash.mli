(** SHA-256 digests of canonical profile text.

    The pipeline benchmark's output oracle and the fold, stream and
    random-program tests pin each folded profile by the digest of its
    canonical rendering.  The digest is a pure OCaml SHA-256 (the tree
    ships no crypto library), so pinned values are stable across runs
    and across machines. *)

val sha256_hex : string -> string
(** Lowercase 64-hex-char SHA-256 digest of a byte string. *)
