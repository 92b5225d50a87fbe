(* Bounded-memory streaming trace writer: events are encoded into an
   in-memory chunk payload and flushed to the channel every time the
   payload reaches the chunk budget.  Peak memory is one chunk,
   independent of trace length.

   The chunk is built in place in one reused byte buffer: the payload's
   events start at [frame_room], and a flush writes the event count and
   then the frame header (kind, length, CRC) right-aligned into the room
   before them, so the finished chunk is one contiguous slice handed to
   the channel in a single [output]. *)

type t = {
  oc : out_channel;
  chunk_bytes : int;
  w : Varint.writer;
  d : Codec.delta;
  mutable chunk_events : int;
  mutable n_events : int;
  mutable n_chunks : int;
  mutable bytes_written : int;
  mutable closed : bool;
}

let default_chunk_bytes = 64 * 1024

(* kind byte + length varint + CRC + event-count varint *)
let frame_room = 1 + Varint.max_u_bytes + 4 + Varint.max_u_bytes

let obs_events = Obs.Metrics.counter ~help:"events encoded to binary trace sinks" "stream.encode.events"
let obs_chunks = Obs.Metrics.counter ~help:"chunks written to binary trace sinks" "stream.encode.chunks"
let obs_bytes = Obs.Metrics.counter ~help:"bytes written to binary trace sinks" "stream.encode.bytes"
let obs_op_hits = Obs.Metrics.counter ~help:"operand-dictionary hits while encoding" "stream.encode.dict_op_hits"
let obs_op_misses = Obs.Metrics.counter ~help:"operand-dictionary misses while encoding" "stream.encode.dict_op_misses"
let obs_f_hits = Obs.Metrics.counter ~help:"float-dictionary hits while encoding" "stream.encode.dict_float_hits"
let obs_f_misses = Obs.Metrics.counter ~help:"float-dictionary misses while encoding" "stream.encode.dict_float_misses"

let create ?(chunk_bytes = default_chunk_bytes) path =
  let oc = open_out_bin path in
  output_string oc Codec.magic;
  output_char oc (Char.chr Codec.version);
  let chunk_bytes = max 512 chunk_bytes in
  let w = Varint.writer (frame_room + chunk_bytes + Codec.max_event_bytes) in
  w.Varint.wpos <- frame_room;
  { oc;
    chunk_bytes;
    w;
    d = Codec.delta ();
    chunk_events = 0;
    n_events = 0;
    n_chunks = 0;
    bytes_written = String.length Codec.magic + 1;
    closed = false }

(* Frame and write the payload [buf[payload .. wpos)], then rewind the
   writer to an empty payload. *)
let seal t kind payload =
  let w = t.w in
  let stop = w.Varint.wpos in
  let len = stop - payload in
  let crc = Crc32.update_int 0 w.Varint.buf ~pos:payload ~len in
  let start = payload - 1 - Varint.size_u len - 4 in
  w.Varint.wpos <- start;
  Varint.put_byte w (Char.code kind);
  Varint.put_u w len;
  for i = 0 to 3 do
    Varint.put_byte w (crc lsr (8 * i))
  done;
  output t.oc w.Varint.buf start (stop - start);
  t.bytes_written <- t.bytes_written + stop - start;
  t.n_chunks <- t.n_chunks + 1;
  w.Varint.wpos <- frame_room

let flush_events t =
  if t.chunk_events > 0 then begin
    let w = t.w in
    let stop = w.Varint.wpos in
    let payload = frame_room - Varint.size_u t.chunk_events in
    w.Varint.wpos <- payload;
    Varint.put_u w t.chunk_events;
    w.Varint.wpos <- stop;
    seal t Codec.kind_events payload;
    Codec.reset_delta t.d;
    t.chunk_events <- 0
  end

let check_open t =
  if t.closed then invalid_arg "Stream.Sink: sink is closed"

let count t =
  t.chunk_events <- t.chunk_events + 1;
  t.n_events <- t.n_events + 1;
  if t.w.Varint.wpos - frame_room >= t.chunk_bytes then flush_events t

let control t c =
  check_open t;
  Codec.encode_control t.d t.w c;
  count t

let exec t e =
  check_open t;
  Codec.encode_exec t.d t.w e;
  count t

let callbacks t = { Vm.Interp.on_control = control t; on_exec = exec t }

let close ?stats t =
  if not t.closed then begin
    flush_events t;
    (match stats with
    | Some s ->
        Codec.encode_stats t.w s;
        seal t Codec.kind_stats frame_room
    | None -> ());
    close_out t.oc;
    t.closed <- true;
    if Obs.Registry.enabled () then begin
      Obs.Metrics.add obs_events t.n_events;
      Obs.Metrics.add obs_chunks t.n_chunks;
      Obs.Metrics.add obs_bytes t.bytes_written;
      let oh, om, fh, fm = Codec.dict_stats t.d in
      Obs.Metrics.add obs_op_hits oh;
      Obs.Metrics.add obs_op_misses om;
      Obs.Metrics.add obs_f_hits fh;
      Obs.Metrics.add obs_f_misses fm
    end
  end

let bytes_written t = t.bytes_written
