(* Streaming trace reader: validates the header, then decodes chunk by
   chunk into one reused payload buffer — peak memory is one chunk
   payload, independent of trace length.  Every framing defect (bad
   magic, unsupported version, truncated chunk, CRC mismatch, malformed
   payload) raises [Error.Error] with a diagnostic.  A chunk length is
   checked against the bytes left in the file before the buffer grows,
   so a corrupt length cannot trigger a large allocation. *)

type t = {
  ic : in_channel;
  path : string;
  size : int;  (* file length *)
  d : Codec.delta;
  mutable buf : Bytes.t;  (* payload buffer, reused across chunks *)
  mutable stats : Vm.Interp.stats option;
  mutable n_events : int;
  mutable n_chunks : int;
  mutable consumed : bool;
}

let obs_events = Obs.Metrics.counter ~help:"events decoded from binary trace sources" "stream.decode.events"
let obs_chunks = Obs.Metrics.counter ~help:"chunks decoded from binary trace sources" "stream.decode.chunks"

let get_byte_ch ic what =
  try Char.code (input_char ic)
  with End_of_file -> Error.fail "trace: truncated file (%s)" what

let get_u_ch ic what =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !shift > 62 then Error.fail "trace: overlong varint (%s)" what;
    let c = get_byte_ch ic what in
    v := !v lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    if c land 0x80 = 0 then continue := false
  done;
  !v

let open_file path =
  let ic =
    try open_in_bin path
    with Sys_error e -> Error.fail "trace: cannot open %s: %s" path e
  in
  let m =
    try really_input_string ic (String.length Codec.magic)
    with End_of_file ->
      close_in_noerr ic;
      Error.fail "trace: %s: file too short for a trace header" path
  in
  if m <> Codec.magic then begin
    close_in_noerr ic;
    Error.fail "trace: %s: bad magic %S (not a polyprof binary trace)" path m
  end;
  let v =
    try Char.code (input_char ic)
    with End_of_file ->
      close_in_noerr ic;
      Error.fail "trace: %s: truncated file (missing version byte)" path
  in
  if v <> Codec.version then begin
    close_in_noerr ic;
    Error.fail "trace: %s: unsupported format version %d (expected %d)" path v
      Codec.version
  end;
  { ic; path; size = in_channel_length ic; d = Codec.delta ();
    buf = Bytes.empty; stats = None; n_events = 0; n_chunks = 0;
    consumed = false }

(* Read the next chunk's payload into [t.buf]; returns its length. *)
let read_payload t =
  let len = get_u_ch t.ic "chunk length" in
  if len < 0 || len > Codec.max_chunk_payload then
    Error.fail "trace: %s: corrupt chunk length %d" t.path len;
  let expect = ref 0 in
  for i = 0 to 3 do
    expect := !expect lor (get_byte_ch t.ic "chunk checksum" lsl (8 * i))
  done;
  let left = t.size - pos_in t.ic in
  if len > left then
    Error.fail "trace: %s: truncated file (chunk %d declares %d payload \
                bytes, %d left)" t.path t.n_chunks len left;
  (* chunk payloads differ by a few bytes: 1/64 slack saves regrowing *)
  if len > Bytes.length t.buf then t.buf <- Bytes.create (len + (len / 64));
  (try really_input t.ic t.buf 0 len
   with End_of_file -> Error.fail "trace: truncated file (chunk payload)");
  let crc = Crc32.update_int 0 t.buf ~pos:0 ~len in
  if crc <> !expect then
    Error.fail "trace: %s: chunk %d CRC mismatch (stored %08x, computed %08x)"
      t.path t.n_chunks !expect crc;
  len

let replay t (cb : Vm.Interp.callbacks) =
  if t.consumed then invalid_arg "Stream.Source.replay: source already consumed";
  t.consumed <- true;
  let continue = ref true in
  while !continue do
    match input_char t.ic with
    | exception End_of_file -> continue := false
    | kind ->
        let len = read_payload t in
        t.n_chunks <- t.n_chunks + 1;
        if kind = Codec.kind_events then
          t.n_events <- t.n_events + Codec.decode_events t.d t.buf ~len cb
        else if kind = Codec.kind_stats then
          t.stats <- Some (Codec.decode_stats t.buf ~len)
        else Error.fail "trace: %s: unknown chunk kind %C" t.path kind
  done;
  if Obs.Registry.enabled () then begin
    Obs.Metrics.add obs_events t.n_events;
    Obs.Metrics.add obs_chunks t.n_chunks
  end

let stats t = t.stats
let close t = close_in_noerr t.ic

let with_file path f =
  let t = open_file path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
