(* LEB128-style variable-length integers.  Unsigned varints carry 7 bits
   per byte, high bit = continuation.  Signed values go through zigzag
   so small negative deltas stay short.  OCaml ints are 63-bit here;
   [put_u]/[get_u] treat the int as an unsigned 63-bit payload (the
   zigzag layer is what gives negatives a meaning), so a varint is at
   most [max_u_bytes] long.

   The writer is a byte cursor over one growable [Bytes]: a caller
   [reserve]s room for everything it is about to write, and the puts
   after that store without bounds checks.  The reader checks every
   byte it consumes against [limit], and raises [Error.Error] past it. *)

let max_u_bytes = 9

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type writer = { mutable buf : Bytes.t; mutable wpos : int }

let writer n = { buf = Bytes.create (max 16 n); wpos = 0 }

let grow w n =
  let cap = ref (2 * Bytes.length w.buf) in
  while !cap < w.wpos + n do
    cap := 2 * !cap
  done;
  let b = Bytes.create !cap in
  Bytes.blit w.buf 0 b 0 w.wpos;
  w.buf <- b

let reserve w n = if w.wpos + n > Bytes.length w.buf then grow w n

let put_byte w c =
  Bytes.unsafe_set w.buf w.wpos (Char.unsafe_chr c);
  w.wpos <- w.wpos + 1

let put_u w v =
  let b = w.buf in
  let p = ref w.wpos in
  (* logical shift: the sign bit must not stick for the top chunk *)
  let v = ref v in
  while !v land lnot 0x7f <> 0 do
    Bytes.unsafe_set b !p (Char.unsafe_chr (!v land 0x7f lor 0x80));
    incr p;
    v := !v lsr 7
  done;
  Bytes.unsafe_set b !p (Char.unsafe_chr !v);
  w.wpos <- !p + 1

let size_u v =
  let n = ref 1 and v = ref (v lsr 7) in
  while !v <> 0 do
    incr n;
    v := !v lsr 7
  done;
  !n

(* Zigzag: 0, -1, 1, -2, 2 ... -> 0, 1, 2, 3, 4 ... *)
let zigzag v = (v lsl 1) lxor (v asr 62)
let unzigzag v = (v lsr 1) lxor - (v land 1)

let put_s w v = put_u w (zigzag v)

let put_f64 w f =
  Bytes.set_int64_le w.buf w.wpos (Int64.bits_of_float f);
  w.wpos <- w.wpos + 8

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type reader = { rbuf : Bytes.t; mutable pos : int; limit : int }

let reader ?(pos = 0) ?limit buf =
  let limit = match limit with Some l -> l | None -> Bytes.length buf in
  { rbuf = buf; pos; limit }

let eof r = r.pos >= r.limit

let get_byte r =
  if r.pos >= r.limit then Error.fail "varint: truncated at byte %d" r.pos;
  let c = Char.code (Bytes.get r.rbuf r.pos) in
  r.pos <- r.pos + 1;
  c

(* 9 bytes hold 63 bits; a continuation bit on the 9th is overlong *)
let get_u r =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !shift > 62 then Error.fail "varint: overlong encoding at byte %d" r.pos;
    let c = get_byte r in
    v := !v lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    if c land 0x80 = 0 then continue := false
  done;
  !v

let get_s r = unzigzag (get_u r)

let get_f64 r =
  if r.pos + 8 > r.limit then
    Error.fail "varint: truncated float at byte %d" r.pos;
  let f = Int64.float_of_bits (Bytes.get_int64_le r.rbuf r.pos) in
  r.pos <- r.pos + 8;
  f
