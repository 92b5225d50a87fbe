(* Binary trace wire format (version 1).

   File layout:

     +---------------------------+
     | magic   "PLYPROF1"  8 B   |
     | version u8          1 B   |
     +---------------------------+
     | chunk*                    |
     +---------------------------+

   Chunk layout:

     kind     u8       'E' = events, 'S' = stats trailer
     length   varint   payload byte count
     crc32    u32 LE   CRC-32 of the payload bytes
     payload  length bytes

   An events payload is [varint n] followed by [n] encoded events.  All
   per-chunk coding state — delta predictors and the two dictionaries —
   resets at each chunk boundary, so a chunk decodes without looking at
   any other chunk's payload; a truncated or corrupted file is detected
   by the framing (missing bytes or CRC mismatch) and rejected with a
   diagnostic instead of Marshal undefined behaviour.  The one piece of
   cross-chunk state is the call depth, which is not stored at all: it
   is re-derived by counting call/return events, exactly how the
   interpreter produced it.

   Event encoding: one tag byte (0 jump / 1 call / 2 return / 3 exec).
   Control fields are small varints, with the jump/call function id
   delta-coded against the previous function id.  Exec events carry a
   flags byte (value/addr presence, value kind, operand-dictionary miss,
   op class) and then:

   - the sid, delta-coded with a zigzag varint (small strides in loops);
   - the produced value: ints as zigzag varints; floats through a
     per-chunk dictionary — a varint index (0 = literal follows, 8 B
     little-endian IEEE bits, which also defines the next index) since
     traced programs churn through few distinct float values compared
     to the number of FP events;
   - read/written addresses, delta-coded (array walks are strided);
   - the register operand lists only on the first occurrence of the sid
     in the chunk (flag bit 4): operands of a static instruction never
     change, so later events reuse the dictionary entry.

   In-memory layout.  Encoding writes through a {!Varint.writer} byte
   cursor: each event reserves its worst case once ([max_event_bytes])
   and every put after that is unchecked.  Both dictionaries are
   open-addressing tables over native ints whose slots are live only
   while their stamp equals the current epoch, so a chunk reset is one
   increment and nothing hashes polymorphically.  The operand table
   keys on the sid and compares register lists register by register.
   The encoder's float table keys on the float's IEEE bits (never boxed
   as an [int64]) and holds dictionary indices into [f_vals], the
   float array that is the decoder's whole dictionary.  Decoding reads a
   caller-owned buffer and calls the instrumentation callbacks directly:
   the exec record (with its option and value boxes) is the only
   allocation per event. *)

let magic = "PLYPROF1"
let version = 1

let kind_events = 'E'
let kind_stats = 'S'

let max_chunk_payload = 1 lsl 30
(* sanity bound when decoding: a corrupt length field must not trigger a
   gigantic allocation *)

let max_float_dict = 1 lsl 20
(* bound on dictionary entries per chunk, so decoder memory stays small
   even for an adversarial maximum-size chunk *)

(* tag + flags + sid + float value (index + literal) + two addresses;
   a control event is a tag and four varints *)
let max_event_bytes = 2 + (4 * Varint.max_u_bytes) + 8

(* ------------------------------------------------------------------ *)
(* Coding state                                                        *)
(* ------------------------------------------------------------------ *)

type operands = { o_reads : Vm.Isa.reg list; o_writes : Vm.Isa.reg option }

type delta = {
  mutable prev_fid : int;
  mutable prev_sid : int;
  mutable prev_addr_r : int;
  mutable prev_addr_w : int;
  mutable depth : int;  (* derived call depth: persists across chunks *)
  mutable epoch : int;  (* dictionary slots stamped otherwise are free *)
  (* operand dictionary: sid -> operands, by open addressing *)
  mutable s_keys : int array;
  mutable s_ops : operands array;
  mutable s_stamps : int array;
  mutable n_sids : int;
  (* float dictionary: entry [k] is [f_vals.(k)]; the encoder finds
     entries through [f_slots], an open-addressing index over their
     bits *)
  mutable n_floats : int;
  mutable f_vals : float array;
  mutable f_slots : int array;
  mutable f_stamps : int array;
  (* cumulative encoder dictionary telemetry: survives [reset_delta] so
     a sink can report whole-stream hit rates *)
  mutable op_hits : int;
  mutable op_misses : int;
  mutable f_hits : int;
  mutable f_misses : int;
}

let no_ops = { o_reads = []; o_writes = None }

let delta () =
  { prev_fid = 0;
    prev_sid = 0;
    prev_addr_r = 0;
    prev_addr_w = 0;
    depth = 0;
    epoch = 1;
    s_keys = Array.make 256 0;
    s_ops = Array.make 256 no_ops;
    s_stamps = Array.make 256 0;
    n_sids = 0;
    n_floats = 0;
    f_vals = Array.make 128 0.0;
    f_slots = Array.make 256 0;
    f_stamps = Array.make 256 0;
    op_hits = 0;
    op_misses = 0;
    f_hits = 0;
    f_misses = 0 }

let dict_stats d = (d.op_hits, d.op_misses, d.f_hits, d.f_misses)

let reset_delta d =
  d.prev_fid <- 0;
  d.prev_sid <- 0;
  d.prev_addr_r <- 0;
  d.prev_addr_w <- 0;
  d.epoch <- d.epoch + 1;
  d.n_sids <- 0;
  d.n_floats <- 0
(* [depth] deliberately survives: the call stack spans chunks *)

(* ------------------------------------------------------------------ *)
(* Dictionaries                                                        *)
(* ------------------------------------------------------------------ *)

(* bit mixing as in [Ddg.Int_tbl]: fold the high half down, multiply by
   an odd constant, fold the product's high bits back *)
let[@inline] mix x =
  let h = x lxor (x lsr 31) in
  let h = h * 0x3C79AC492BA7B653 in
  h lxor (h lsr 29)

(* the slot holding [sid]'s operands, or the free slot where they
   belong *)
let sid_slot d sid =
  let mask = Array.length d.s_keys - 1 in
  let i = ref (mix sid land mask) in
  while d.s_stamps.(!i) = d.epoch && d.s_keys.(!i) <> sid do
    i := (!i + 1) land mask
  done;
  !i

(* enter [sid]'s operands, keeping the table at most half full *)
let rec add_ops d sid o =
  let i = sid_slot d sid in
  if d.s_stamps.(i) <> d.epoch then d.n_sids <- d.n_sids + 1;
  d.s_keys.(i) <- sid;
  d.s_ops.(i) <- o;
  d.s_stamps.(i) <- d.epoch;
  if 2 * d.n_sids > Array.length d.s_keys then begin
    let keys = d.s_keys and ops = d.s_ops and stamps = d.s_stamps in
    let n = 2 * Array.length keys in
    d.s_keys <- Array.make n 0;
    d.s_ops <- Array.make n no_ops;
    d.s_stamps <- Array.make n 0;
    d.n_sids <- 0;
    Array.iteri
      (fun j stamp -> if stamp = d.epoch then add_ops d keys.(j) ops.(j))
      stamps
  end

(* the slot holding [f]'s entry, or the free slot where it belongs *)
let float_slot d (f : float) =
  let bits = Int64.bits_of_float f in
  let mask = Array.length d.f_slots - 1 in
  let h =
    Int64.to_int bits lxor Int64.to_int (Int64.shift_right_logical bits 32)
  in
  let i = ref (mix h land mask) in
  while
    d.f_stamps.(!i) = d.epoch
    && not (Int64.equal (Int64.bits_of_float d.f_vals.(d.f_slots.(!i))) bits)
  do
    i := (!i + 1) land mask
  done;
  !i

(* append the next dictionary entry *)
let push_float d f =
  let k = d.n_floats in
  if k = Array.length d.f_vals then begin
    let bigger = Array.make (2 * k) 0.0 in
    Array.blit d.f_vals 0 bigger 0 k;
    d.f_vals <- bigger
  end;
  d.f_vals.(k) <- f;
  d.n_floats <- k + 1

(* keep the index at most half full: double it and re-insert this
   chunk's entries *)
let grow_float_index d =
  let n = 2 * Array.length d.f_slots in
  d.f_slots <- Array.make n 0;
  d.f_stamps <- Array.make n 0;
  for k = 0 to d.n_floats - 1 do
    let i = float_slot d d.f_vals.(k) in
    d.f_slots.(i) <- k;
    d.f_stamps.(i) <- d.epoch
  done

(* ------------------------------------------------------------------ *)
(* Byte cursor fast paths                                              *)
(* ------------------------------------------------------------------ *)

(* Most fields are one-byte varints.  These inline that case into the
   per-event code and leave the rest to [Varint], whose functions are
   not inlined across modules. *)

let[@inline] put_byte (w : Varint.writer) c =
  Bytes.unsafe_set w.buf w.wpos (Char.unsafe_chr c);
  w.wpos <- w.wpos + 1

let[@inline] put_u w v =
  if v land lnot 0x7f = 0 then put_byte w v else Varint.put_u w v

(* zigzag, spelled out so that it inlines: see {!Varint.zigzag} *)
let[@inline] put_s w v = put_u w ((v lsl 1) lxor (v asr 62))

let[@inline] get_u (r : Varint.reader) =
  let p = r.pos in
  if p < r.limit then begin
    let c = Char.code (Bytes.get r.rbuf p) in
    if c < 0x80 then begin
      r.pos <- p + 1;
      c
    end
    else Varint.get_u r
  end
  else Varint.get_u r

let[@inline] get_s r =
  let v = get_u r in
  (v lsr 1) lxor - (v land 1)

let[@inline] get_byte (r : Varint.reader) =
  let p = r.pos in
  if p < r.limit then begin
    r.pos <- p + 1;
    Char.code (Bytes.get r.rbuf p)
  end
  else Varint.get_byte r

(* ------------------------------------------------------------------ *)
(* Op class <-> 3 bits                                                 *)
(* ------------------------------------------------------------------ *)

let cls_to_int = function
  | Vm.Isa.Int_alu -> 0
  | Vm.Isa.Fp_alu -> 1
  | Vm.Isa.Mem_load -> 2
  | Vm.Isa.Mem_store -> 3
  | Vm.Isa.Other_op -> 4

let cls_of_int = function
  | 0 -> Vm.Isa.Int_alu
  | 1 -> Vm.Isa.Fp_alu
  | 2 -> Vm.Isa.Mem_load
  | 3 -> Vm.Isa.Mem_store
  | 4 -> Vm.Isa.Other_op
  | n -> Error.fail "codec: invalid op class %d" n

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let tag_jump = 0
let tag_call = 1
let tag_return = 2
let tag_exec = 3

let encode_control d w (c : Vm.Event.control) =
  Varint.reserve w max_event_bytes;
  match c with
  | Vm.Event.Jump { fid; src; dst } ->
      put_byte w tag_jump;
      put_s w (fid - d.prev_fid);
      d.prev_fid <- fid;
      put_u w src;
      put_u w dst
  | Vm.Event.Call { caller; site; callee; dst } ->
      put_byte w tag_call;
      put_s w (caller - d.prev_fid);
      put_u w site;
      put_u w callee;
      put_u w dst;
      d.prev_fid <- callee;
      d.depth <- d.depth + 1
  | Vm.Event.Return { callee; caller; dst } ->
      put_byte w tag_return;
      put_u w callee;
      put_u w caller;
      put_u w dst;
      d.prev_fid <- caller;
      d.depth <- d.depth - 1

let encode_float d w f =
  let i = float_slot d f in
  if d.f_stamps.(i) = d.epoch then begin
    d.f_hits <- d.f_hits + 1;
    put_u w (d.f_slots.(i) + 1)
  end
  else begin
    d.f_misses <- d.f_misses + 1;
    put_u w 0;
    Varint.put_f64 w f;
    if d.n_floats < max_float_dict then begin
      d.f_slots.(i) <- d.n_floats;
      d.f_stamps.(i) <- d.epoch;
      push_float d f;
      if 2 * d.n_floats > Array.length d.f_slots then grow_float_index d
    end
  end

let rec same_regs a b =
  match (a, b) with
  | [], [] -> true
  | (x : int) :: a, y :: b -> x = y && same_regs a b
  | _ -> false

let same_write a b =
  match (a, b) with
  | None, None -> true
  | Some (x : int), Some y -> x = y
  | _ -> false

let ops_known d (e : Vm.Event.exec) =
  let i = sid_slot d e.sid in
  d.s_stamps.(i) = d.epoch
  &&
  let o = d.s_ops.(i) in
  same_regs o.o_reads e.reads && same_write o.o_writes e.writes

let encode_exec d w (e : Vm.Event.exec) =
  Varint.reserve w max_event_bytes;
  let ops_known = ops_known d e in
  if ops_known then d.op_hits <- d.op_hits + 1
  else d.op_misses <- d.op_misses + 1;
  let flags =
    (cls_to_int e.cls lsl 5)
    lor (match e.value with
        | Some (Vm.Event.I _) -> 0x01
        | Some (Vm.Event.F _) -> 0x03
        | None -> 0)
    lor (if Option.is_some e.addr_read then 0x04 else 0)
    lor (if Option.is_some e.addr_written then 0x08 else 0)
    lor if ops_known then 0 else 0x10
  in
  put_byte w tag_exec;
  put_byte w flags;
  put_s w (e.sid - d.prev_sid);
  d.prev_sid <- e.sid;
  (match e.value with
  | Some (Vm.Event.I v) -> put_s w v
  | Some (Vm.Event.F f) -> encode_float d w f
  | None -> ());
  (match e.addr_read with
  | Some a ->
      put_s w (a - d.prev_addr_r);
      d.prev_addr_r <- a
  | None -> ());
  (match e.addr_written with
  | Some a ->
      put_s w (a - d.prev_addr_w);
      d.prev_addr_w <- a
  | None -> ());
  if not ops_known then begin
    Varint.reserve w (Varint.max_u_bytes * (List.length e.reads + 2));
    put_u w (List.length e.reads);
    List.iter (fun r -> put_u w r) e.reads;
    (match e.writes with
    | Some r -> put_u w (r + 1)
    | None -> put_u w 0);
    add_ops d e.sid { o_reads = e.reads; o_writes = e.writes }
  end

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let decode_float d (r : Varint.reader) =
  match get_u r with
  | 0 ->
      let f = Varint.get_f64 r in
      if d.n_floats < max_float_dict then push_float d f;
      Some (Vm.Event.F f)
  | k ->
      if k < 0 || k > d.n_floats then
        Error.fail "codec: float dictionary index %d out of range (%d entries)"
          k d.n_floats;
      Some (Vm.Event.F d.f_vals.(k - 1))

let decode_control d (r : Varint.reader) tag =
  if tag = tag_jump then begin
    let fid = d.prev_fid + get_s r in
    d.prev_fid <- fid;
    let src = get_u r in
    let dst = get_u r in
    Vm.Event.Jump { fid; src; dst }
  end
  else if tag = tag_call then begin
    let caller = d.prev_fid + get_s r in
    let site = get_u r in
    let callee = get_u r in
    let dst = get_u r in
    d.prev_fid <- callee;
    d.depth <- d.depth + 1;
    Vm.Event.Call { caller; site; callee; dst }
  end
  else if tag = tag_return then begin
    let callee = get_u r in
    let caller = get_u r in
    let dst = get_u r in
    d.prev_fid <- caller;
    d.depth <- d.depth - 1;
    Vm.Event.Return { callee; caller; dst }
  end
  else Error.fail "codec: unknown event tag %d" tag

let decode_operands d (r : Varint.reader) sid =
  let nreads = get_u r in
  if nreads < 0 || nreads > r.Varint.limit - r.Varint.pos then
    Error.fail "codec: corrupt read-list length %d" nreads;
  let reads = List.init nreads (fun _ -> get_u r) in
  let writes = match get_u r with 0 -> None | w -> Some (w - 1) in
  let o = { o_reads = reads; o_writes = writes } in
  add_ops d sid o;
  o

let decode_exec d (r : Varint.reader) : Vm.Event.exec =
  let flags = get_byte r in
  let cls = cls_of_int (flags lsr 5) in
  let sid = d.prev_sid + get_s r in
  d.prev_sid <- sid;
  let value =
    if flags land 0x01 = 0 then None
    else if flags land 0x02 <> 0 then decode_float d r
    else Some (Vm.Event.I (get_s r))
  in
  let addr_read =
    if flags land 0x04 = 0 then None
    else begin
      let a = d.prev_addr_r + get_s r in
      d.prev_addr_r <- a;
      Some a
    end
  in
  let addr_written =
    if flags land 0x08 = 0 then None
    else begin
      let a = d.prev_addr_w + get_s r in
      d.prev_addr_w <- a;
      Some a
    end
  in
  let o =
    if flags land 0x10 <> 0 then decode_operands d r sid
    else
      let i = sid_slot d sid in
      if d.s_stamps.(i) = d.epoch then d.s_ops.(i)
      else
        Error.fail "codec: exec of sid %d before its operand-dictionary \
                    entry" sid
  in
  { sid; cls; value; addr_read; addr_written; reads = o.o_reads;
    writes = o.o_writes; depth = d.depth }

let decode_events d payload ~len (cb : Vm.Interp.callbacks) =
  let r = Varint.reader ~limit:len payload in
  let n = get_u r in
  reset_delta d;
  for _ = 1 to n do
    if Varint.eof r then Error.fail "codec: truncated event payload";
    let tag = get_byte r in
    if tag = tag_exec then cb.on_exec (decode_exec d r)
    else cb.on_control (decode_control d r tag)
  done;
  if not (Varint.eof r) then
    Error.fail "codec: %d trailing bytes after %d events"
      (r.Varint.limit - r.Varint.pos) n;
  n

(* ------------------------------------------------------------------ *)
(* Stats trailer                                                       *)
(* ------------------------------------------------------------------ *)

let encode_stats w (s : Vm.Interp.stats) =
  Varint.reserve w (4 * Varint.max_u_bytes);
  put_u w s.Vm.Interp.dyn_instrs;
  put_u w s.Vm.Interp.dyn_mem_ops;
  put_u w s.Vm.Interp.dyn_fp_ops;
  put_u w s.Vm.Interp.max_depth

let decode_stats payload ~len : Vm.Interp.stats =
  let r = Varint.reader ~limit:len payload in
  let dyn_instrs = get_u r in
  let dyn_mem_ops = get_u r in
  let dyn_fp_ops = get_u r in
  let max_depth = get_u r in
  if not (Varint.eof r) then Error.fail "codec: trailing bytes in stats chunk";
  { Vm.Interp.dyn_instrs; dyn_mem_ops; dyn_fp_ops; max_depth }
