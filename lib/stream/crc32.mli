(** CRC-32 (IEEE, the zlib/PNG polynomial) over bytes, used to seal each
    trace chunk so truncation and corruption are detected instead of
    silently decoded. *)

val update_int : int -> Bytes.t -> pos:int -> len:int -> int
(** [update_int crc b ~pos ~len] extends a running checksum held in the
    low 32 bits of a native int.  Initial value: [0].
    @raise Invalid_argument if [pos]/[len] do not name a range of [b]. *)

val update : int32 -> Bytes.t -> pos:int -> len:int -> int32
(** {!update_int} on an [int32] checksum. Initial value: [0l]. *)

val bytes : ?crc:int32 -> Bytes.t -> int32
val string : ?crc:int32 -> string -> int32
