(** LEB128 varints + zigzag signed encoding + raw little-endian 64-bit
    floats, written through a byte cursor over a growable [Bytes] and
    read through a bounds-checked positioned reader.  All decode
    failures raise {!Error.Error}. *)

val max_u_bytes : int
(** Longest encoding of an unsigned varint (63-bit payload): 9 bytes. *)

(** {1 Writer} *)

type writer = { mutable buf : Bytes.t; mutable wpos : int }
(** The bytes written so far are [buf[0 .. wpos)]; a caller may move
    [wpos] back to overwrite a region it reserved earlier. *)

val writer : int -> writer
(** A writer with the given initial capacity. *)

val reserve : writer -> int -> unit
(** [reserve w n] makes room for [n] more bytes at [wpos], growing
    [buf] if needed.  The puts below do not check bounds: each must be
    covered by a preceding [reserve] (a varint needs {!max_u_bytes}, a
    float 8, a byte 1). *)

val put_byte : writer -> int -> unit
(** Low 8 bits of the argument. *)

val put_u : writer -> int -> unit
(** Unsigned varint; the int is read as a 63-bit unsigned payload. *)

val put_s : writer -> int -> unit
(** Signed varint via zigzag — full native int range. *)

val put_f64 : writer -> float -> unit
(** The float's IEEE bits, little-endian. *)

val size_u : int -> int
(** Byte length of [put_u v]. *)

val zigzag : int -> int
val unzigzag : int -> int

(** {1 Reader} *)

type reader = { rbuf : Bytes.t; mutable pos : int; limit : int }

val reader : ?pos:int -> ?limit:int -> Bytes.t -> reader
(** Reads [buf[pos .. limit)], by default to the end of the buffer. *)

val eof : reader -> bool

val get_byte : reader -> int
val get_u : reader -> int
val get_s : reader -> int
val get_f64 : reader -> float
