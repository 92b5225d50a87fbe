(* Tests for lib/stream: varint/zigzag extremes, the CRC against a
   bytewise reference, qcheck round-trip of the binary codec over random
   event streams, pinned trace digests, framing/corruption rejection
   with the typed [Stream.Error] (including fuzzed payloads), and the
   out-of-core profile's bit-identity with the in-process one, including
   the replay under a static-pruning plan. *)

module H = Vm.Hir

(* ------------------------------------------------------------------ *)
(* Varint / zigzag                                                     *)
(* ------------------------------------------------------------------ *)

let extreme_ints =
  [ 0; 1; -1; 2; -2; 63; 64; -64; -65; 127; 128; 255; 256; 1000000;
    -1000000; (1 lsl 30) - 1; 1 lsl 40; -(1 lsl 40); max_int - 1; max_int;
    min_int + 1; min_int ]

(* write with [put] through the byte cursor, read back through a reader
   over exactly the written bytes *)
let roundtrip put get v =
  let w = Stream.Varint.writer 1 in
  Stream.Varint.reserve w 16;
  put w v;
  let r = Stream.Varint.reader (Bytes.sub w.Stream.Varint.buf 0 w.wpos) in
  let v' = get r in
  (v', Stream.Varint.eof r)

let test_zigzag_extremes () =
  List.iter
    (fun v ->
      let v', consumed = roundtrip Stream.Varint.put_s Stream.Varint.get_s v in
      Alcotest.(check int) (Printf.sprintf "zigzag %d" v) v v';
      Alcotest.(check bool) "consumed" true consumed)
    extreme_ints

let test_varint_unsigned () =
  List.iter
    (fun v ->
      let v', consumed = roundtrip Stream.Varint.put_u Stream.Varint.get_u v in
      Alcotest.(check int) (Printf.sprintf "varint %d" v) v v';
      Alcotest.(check bool) "consumed" true consumed;
      let w = Stream.Varint.writer 16 in
      Stream.Varint.put_u w v;
      Alcotest.(check int) (Printf.sprintf "size_u %d" v) w.wpos
        (Stream.Varint.size_u v))
    (List.filter (fun v -> v >= 0) extreme_ints)

let test_f64_roundtrip () =
  List.iter
    (fun f ->
      let f', _ = roundtrip Stream.Varint.put_f64 Stream.Varint.get_f64 f in
      Alcotest.(check bool)
        (Printf.sprintf "f64 %h" f)
        true
        (Int64.bits_of_float f = Int64.bits_of_float f'))
    [ 0.0; -0.0; 1.0; -1.5; infinity; neg_infinity; nan; max_float;
      min_float; epsilon_float; 4e-324; 1.0000000000000002 ]

(* many puts into a small writer: [reserve] grows it and keeps what was
   written *)
let test_writer_grows () =
  let w = Stream.Varint.writer 1 in
  for v = 0 to 999 do
    Stream.Varint.reserve w Stream.Varint.max_u_bytes;
    Stream.Varint.put_s w (v * 1_000_003)
  done;
  let r = Stream.Varint.reader ~limit:w.wpos w.Stream.Varint.buf in
  for v = 0 to 999 do
    Alcotest.(check int) "value" (v * 1_000_003) (Stream.Varint.get_s r)
  done;
  Alcotest.(check bool) "consumed" true (Stream.Varint.eof r)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

(* the byte-at-a-time definition, independent of the library's tables *)
let crc_reference crc b ~pos ~len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc_known_answer () =
  Alcotest.(check int32) "crc32(\"123456789\")" 0xCBF43926l
    (Stream.Crc32.string "123456789");
  Alcotest.(check int32) "crc32(\"\")" 0l (Stream.Crc32.string "")

(* any window, aligned to 8 or not, checksummed in two pieces split
   anywhere, equals the bytewise reference in one piece *)
let prop_crc_slices =
  QCheck.Test.make ~name:"slicing-by-8 CRC = bytewise reference" ~count:300
    QCheck.(
      quad (string_of_size Gen.(int_range 0 100)) small_nat small_nat small_nat)
    (fun (s, a, b, c) ->
      let bytes = Bytes.of_string s in
      let n = Bytes.length bytes in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      let cut = if len = 0 then 0 else c mod (len + 1) in
      let head = Stream.Crc32.update 0l bytes ~pos ~len:cut in
      let whole =
        Stream.Crc32.update head bytes ~pos:(pos + cut) ~len:(len - cut)
      in
      Int32.to_int whole land 0xFFFFFFFF = crc_reference 0 bytes ~pos ~len)

(* ------------------------------------------------------------------ *)
(* Codec round-trip over random event streams                          *)
(* ------------------------------------------------------------------ *)

(* One interpreter event, as the callbacks deliver it. *)
type event = Control of Vm.Event.control | Exec of Vm.Event.exec

let collector () =
  let acc = ref [] in
  ( { Vm.Interp.on_control = (fun c -> acc := Control c :: !acc);
      on_exec = (fun e -> acc := Exec e :: !acc) },
    fun () -> List.rev !acc )

(* the events of a live run, with its stats *)
let live_events prog =
  let callbacks, events = collector () in
  let stats = Vm.Interp.run ~callbacks prog in
  (events (), stats)

(* write [events] through a sink's callbacks, as a live run would *)
let save ?chunk_bytes ?stats events path =
  let sink = Stream.Sink.create ?chunk_bytes path in
  let cb = Stream.Sink.callbacks sink in
  List.iter
    (function
      | Control c -> cb.Vm.Interp.on_control c | Exec e -> cb.Vm.Interp.on_exec e)
    events;
  Stream.Sink.close ?stats sink

(* replay a whole file into a list *)
let load path =
  Stream.Source.with_file path (fun src ->
      let callbacks, events = collector () in
      Stream.Source.replay src callbacks;
      (events (), Stream.Source.stats src))

(* Event streams whose exec depths are consistent with their own
   call/return events (as every interpreter-produced stream is): the
   codec derives depth from the control stream rather than storing it. *)
let gen_events : event list QCheck.Gen.t =
  let open QCheck.Gen in
  let big_int =
    oneof
      [ small_signed_int; int;
        oneofl [ max_int; min_int; max_int - 1; min_int + 1; 0; -1 ] ]
  in
  let gen_float =
    oneof
      [ float;
        oneofl
          [ 0.0; -0.0; 1.0; -1.0; infinity; neg_infinity; nan; max_float;
            min_float; 0.5; 0.25 ] ]
  in
  let gen_value =
    oneof
      [ return None;
        map (fun v -> Some (Vm.Event.I v)) big_int;
        map (fun f -> Some (Vm.Event.F f)) gen_float ]
  in
  let gen_opt_addr = oneof [ return None; map Option.some big_int ] in
  let gen_exec depth =
    int_range 0 40 >>= fun fid ->
    int_range 0 20 >>= fun bid ->
    int_range 0 30 >>= fun idx ->
    oneofl
      [ Vm.Isa.Int_alu; Vm.Isa.Fp_alu; Vm.Isa.Mem_load; Vm.Isa.Mem_store;
        Vm.Isa.Other_op ]
    >>= fun cls ->
    gen_value >>= fun value ->
    gen_opt_addr >>= fun addr_read ->
    gen_opt_addr >>= fun addr_written ->
    list_size (int_range 0 4) (int_range 0 30) >>= fun reads ->
    oneof [ return None; map Option.some (int_range 0 30) ] >>= fun writes ->
    return
      (Exec
         { sid = Vm.Isa.Sid.make ~fid ~bid ~idx;
           cls; value; addr_read; addr_written; reads; writes; depth })
  in
  let small = int_range 0 99 in
  int_range 0 250 >>= fun n ->
  let rec go depth acc k =
    if k = 0 then return (List.rev acc)
    else
      frequency
        [ (6, return `Exec); (2, return `Jump); (1, return `Call);
          ((if depth > 0 then 1 else 0), return `Return) ]
      >>= function
      | `Exec -> gen_exec depth >>= fun e -> go depth (e :: acc) (k - 1)
      | `Jump ->
          small >>= fun fid ->
          small >>= fun src ->
          small >>= fun dst ->
          go depth
            (Control (Vm.Event.Jump { fid; src; dst }) :: acc)
            (k - 1)
      | `Call ->
          small >>= fun caller ->
          small >>= fun site ->
          small >>= fun callee ->
          small >>= fun dst ->
          go (depth + 1)
            (Control (Vm.Event.Call { caller; site; callee; dst })
            :: acc)
            (k - 1)
      | `Return ->
          small >>= fun callee ->
          small >>= fun caller ->
          small >>= fun dst ->
          go (depth - 1)
            (Control (Vm.Event.Return { callee; caller; dst })
            :: acc)
            (k - 1)
  in
  go 0 [] n

let with_temp f =
  let path = Filename.temp_file "polyprof_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* polymorphic [compare] (not [=]) so that F nan compares equal to its
   round-tripped self *)
let prop_roundtrip =
  QCheck.Test.make ~name:"codec round-trips random event streams" ~count:150
    (QCheck.make gen_events) (fun events ->
      with_temp @@ fun path ->
      (* tiny chunks: force many chunk boundaries and dictionary resets *)
      save ~chunk_bytes:600 events path;
      let loaded, stats = load path in
      stats = None && compare loaded events = 0)

let prop_roundtrip_stats =
  QCheck.Test.make ~name:"stats trailer round-trips" ~count:30
    (QCheck.make QCheck.Gen.(quad nat nat nat nat))
    (fun (dyn_instrs, dyn_mem_ops, dyn_fp_ops, max_depth) ->
      with_temp @@ fun path ->
      let stats =
        { Vm.Interp.dyn_instrs; dyn_mem_ops; dyn_fp_ops; max_depth }
      in
      save ~stats [] path;
      let _, stats' = load path in
      stats' = Some stats)

(* ------------------------------------------------------------------ *)
(* Corruption / truncation rejection                                   *)
(* ------------------------------------------------------------------ *)

let program : H.program =
  let open Vm.Hir.Dsl in
  { H.funs =
      [ H.fundef "helper" [ "x" ] [ H.Return (Some (v "x" *! i 3)) ];
        H.fundef "main" []
          [ H.for_ "k" (i 0) (i 40)
              [ H.CallS (Some "y", "helper", [ v "k" ]);
                store "out" (v "k" %! i 8) (v "y") ] ] ];
    arrays = [ ("out", 8) ];
    main = "main" }

let write_valid_trace path =
  let prog = H.lower program in
  let (_ : Stream.Trace_file.write_info) =
    Stream.Trace_file.record_to_file ~chunk_bytes:600 prog path
  in
  ()

let expect_stream_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Stream.Error, got a value" name
  | exception Stream.Error msg ->
      Alcotest.(check bool)
        (name ^ ": diagnostic is not empty")
        true
        (String.length msg > 0)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_rejects_garbage () =
  with_temp @@ fun path ->
  write_file path "definitely not a polyprof trace file";
  expect_stream_error "garbage" (fun () -> load path)

let test_rejects_empty_and_short () =
  with_temp @@ fun path ->
  write_file path "";
  expect_stream_error "empty" (fun () -> load path);
  write_file path "PLYP";
  expect_stream_error "short magic" (fun () -> load path);
  write_file path "PLYPROF1";
  expect_stream_error "missing version" (fun () ->
      load path)

let test_rejects_bad_version () =
  with_temp @@ fun path ->
  write_valid_trace path;
  let s = read_file path in
  let b = Bytes.of_string s in
  Bytes.set b 8 (Char.chr 99);
  write_file path (Bytes.to_string b);
  expect_stream_error "future version" (fun () -> load path)

let test_rejects_truncation () =
  with_temp @@ fun path ->
  write_valid_trace path;
  let s = read_file path in
  (* drop the tail: mid-payload truncation must be caught by framing *)
  List.iter
    (fun keep ->
      write_file path (String.sub s 0 keep);
      expect_stream_error
        (Printf.sprintf "truncated to %d bytes" keep)
        (fun () -> load path))
    [ String.length s - 3; String.length s / 2; 12 ]

let test_rejects_bitflip () =
  with_temp @@ fun path ->
  write_valid_trace path;
  let s = read_file path in
  let b = Bytes.of_string s in
  let pos = (String.length s / 2) + 3 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  write_file path (Bytes.to_string b);
  expect_stream_error "bit flip (CRC)" (fun () -> load path)

let test_missing_trailer_refused () =
  with_temp @@ fun path ->
  let prog = H.lower program in
  let events, _stats = live_events prog in
  save events path;
  (* no ~stats *)
  let structure = Cfg.Cfg_builder.run prog in
  expect_stream_error "missing stats trailer" (fun () ->
      Stream.Par_profile.profile_file path prog ~structure)

(* a 30-byte file whose one chunk declares 2^29 payload bytes must be
   refused from the framing alone, before a payload buffer is sized *)
let test_corrupt_length_no_alloc () =
  with_temp @@ fun path ->
  let w = Stream.Varint.writer 16 in
  Stream.Varint.put_u w (1 lsl 29);
  let file =
    Stream.Codec.magic ^ "\001E" ^ Bytes.sub_string w.Stream.Varint.buf 0 w.wpos
    ^ "\000\000\000\000"
  in
  let file = file ^ String.make (30 - String.length file) '\000' in
  write_file path file;
  let top () = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  let top0 = top () and alloc0 = Gc.allocated_bytes () in
  expect_stream_error "2^29-byte chunk in a 30-byte file" (fun () ->
      load path);
  let mb = 1 lsl 20 in
  Alcotest.(check bool) "top heap grew by < 1 MB" true (top () - top0 < mb);
  Alcotest.(check bool) "allocated < 1 MB" true
    (Gc.allocated_bytes () -. alloc0 < float_of_int mb)

(* ------------------------------------------------------------------ *)
(* Fuzzing the decoder                                                 *)
(* ------------------------------------------------------------------ *)

(* a one-chunk trace file around [payload], sealed with a valid CRC so
   the payload reaches the decoder *)
let frame kind payload =
  let w = Stream.Varint.writer 16 in
  Stream.Varint.reserve w (1 + Stream.Varint.max_u_bytes + 4);
  Stream.Varint.put_byte w (Char.code kind);
  Stream.Varint.put_u w (String.length payload);
  let crc = Int32.to_int (Stream.Crc32.string payload) land 0xFFFFFFFF in
  for i = 0 to 3 do
    Stream.Varint.put_byte w (crc lsr (8 * i))
  done;
  Stream.Codec.magic
  ^ String.make 1 (Char.chr Stream.Codec.version)
  ^ Bytes.sub_string w.Stream.Varint.buf 0 w.wpos
  ^ payload

let events_payload events =
  let d = Stream.Codec.delta () and w = Stream.Varint.writer 64 in
  Stream.Varint.reserve w Stream.Varint.max_u_bytes;
  Stream.Varint.put_u w (List.length events);
  List.iter
    (function
      | Control c -> Stream.Codec.encode_control d w c
      | Exec e -> Stream.Codec.encode_exec d w e)
    events;
  Bytes.sub_string w.Stream.Varint.buf 0 w.wpos

(* any outcome but a [Stream.Error] escapes and fails the property *)
let decodes_or_stream_error file =
  with_temp @@ fun path ->
  write_file path file;
  match load path with
  | _ -> true
  | exception Stream.Error _ -> true

let prop_fuzz_random =
  QCheck.Test.make ~name:"random payloads: decode or Error"
    ~count:300
    QCheck.(pair bool (string_of_size Gen.(int_range 0 200)))
    (fun (events, payload) ->
      decodes_or_stream_error
        (frame
           (if events then Stream.Codec.kind_events
            else Stream.Codec.kind_stats)
           payload))

(* valid payloads with a few bytes flipped, maybe a 9-byte varint
   spliced in (it reads back as a huge or negative count, index or
   delta) and maybe a cut tail: gets past the first bytes into every
   field decoder *)
let prop_fuzz_mutated =
  QCheck.Test.make ~name:"mutated payloads: decode or Error"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         quad gen_events
           (list_size (int_range 0 6) (pair nat (int_range 1 255)))
           (opt (pair nat (int_range 0 127)))
           (opt nat)))
    (fun (events, flips, splice, cut) ->
      let b = Bytes.of_string (events_payload events) in
      let n = Bytes.length b in
      List.iter
        (fun (p, x) ->
          let p = p mod n in
          Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor x)))
        flips;
      let s = Bytes.to_string b in
      let s =
        match splice with
        | None -> s
        | Some (p, last) ->
            let p = p mod (n + 1) in
            String.sub s 0 p ^ String.make 8 '\xff'
            ^ String.make 1 (Char.chr last)
            ^ String.sub s p (n - p)
      in
      let n = String.length s in
      let keep = match cut with Some c -> c mod (n + 1) | None -> n in
      decodes_or_stream_error
        (frame Stream.Codec.kind_events (String.sub s 0 keep)))

(* ------------------------------------------------------------------ *)
(* Pinned wire format                                                  *)
(* ------------------------------------------------------------------ *)

(* SHA-256 of [record_to_file] output, recorded before the codec's
   allocation-lean rewrite: the encoder must stay byte-identical *)
let pinned_digests =
  [
    ("gemm", None, 282633, "c3e070af95221ebbc38f9641e7a6c3df849a6b4cfa29ff0628cb2e27b2588ef4");
    ("gemm", Some 600, 361544, "9abe1c0b038b5450c8fdb68614072584c5dbd4b0829986dd9738e48aa70d20a6");
    ("jacobi_2d", None, 244498, "bab3bd9f43385d46a2407cebc57cfdb4597a7e2364ab5c3ea1e5e58cc64fb477");
    ("jacobi_2d", Some 600, 356467, "bfbfc0b6800400b9d656b3199eca418b5b47edd32a2facad4820a93e85a788f8");
    ("atax", None, 109918, "e795b909304dee05260b4953fb569df16534f4696f30287e930d1cfe6fcc1faf");
    ("atax", Some 600, 138362, "8fc5b5514249d2ef6443edfbacc264a360a8f41715e34b85dcff6cad775538b8");
    ("mvt", None, 180911, "a6410928d61310baad4e80be278a188168121c27b20f20308ce32a316bf032be");
    ("mvt", Some 600, 229525, "5a4377dc881d1c3ae1a5eb319ff4bcc7e6828e92d20319c061beba1a14f522f8");
    ("gesummv", None, 154589, "9706dbf0489195b37c3e4ed4964cc176d5ecaefb257e733361b871636ca0cca1");
    ("gesummv", Some 600, 199724, "c97c92b102e722e391566f5c680dc9aa5d49c67b7d362c734260f98cecc10fc5");
    ("bicg", None, 127708, "a1e0c6d04e5de8cc68220145cb41c260855bbf37e71512a78a2734ad21d51e31");
    ("bicg", Some 600, 161028, "65364d90fc2c25dfb65b30b08dfe40123746e7d86b83f0608173af78590ef21d");
    ("seidel_1d", None, 31692, "53bf1fff028fca110adce43c8b2a21b7330e69ddf5c791825fcf20d2e66fcec5");
    ("seidel_1d", Some 600, 37758, "b555b576b427c999f943f8fb4bd9696e3f329f1da61f2c6d8d503940c861c879");
    ("trisolv", None, 73695, "18c90b83d9d0d108d036687d5b79ed433b2c817d3ec5dd41414d67ccc8d31f27");
    ("trisolv", Some 600, 94552, "5f596db38c527dd66c5ad63467920b169630d51c71116dcda63f556ff476de3a");
    ("cholesky", None, 867418, "30ef56481fa75530e0737fc36b800a3ca8faf09324d89e57b8306535756d5ebb");
    ("cholesky", Some 600, 1117769, "f753791ad4b7f4ece00bacf4a52e964fc3d3f4c8eb8821a8f182aa6dfe2f101a");
    ("trmm", None, 1101644, "b2058515e29c8f796cfe65fae1e6cca973d325ffcee7ba4d21e37806268aae19");
    ("trmm", Some 600, 1440714, "774c724faae53c85f526e294a4145b25c3440daadec9cfe694beaa6542a70223");
    ("lu", None, 1158786, "a12dc8798627f6ec221364baa50c42f1adf6d89f082955d73839b2d4f03298ba");
    ("lu", Some 600, 1439556, "ac611609ed409fa995e66a7c16601e6b52c4d9b2bfdd59636cd671b344a9a770");
    ("seidel_wd", None, 209270, "7d926c1ae9c3523afcbb84cc6cd17c66b3afb236e44a0c7de3eae34072ea13f0");
    ("seidel_wd", Some 600, 253248, "76ad23a2b8210999f69c384f3d5729b423048e1801faf8bb3aebb162a105c7cb");
    ("gems_fdtd", None, 1127942, "dc7c25111340a4cbf3d61fd05ad4f2dd88a509e7ed91097047e5ce66e90c0919");
    ("gems_fdtd", Some 600, 1773221, "7e8d845785cfac2fbdb348a8146faba3d28bdec22dc1455fc62b89ce3e11d195");
    ("backprop", None, 559193, "9800e73f1814d1c9fc70fbfeaa36b11e5a1ea59dc98a56b175340e0cfde6b9b9");
    ("backprop", Some 600, 723421, "0e2f0a1fd004fc02b59445406dd0bd6a47f12a4d017d4f81240a36544680a1f1");
    ("hotspot", None, 590506, "8407a1c2d4601ea7a84e2bde8eb76ecd1c2681bc9d0d0017d9d0b73be98883b7");
    ("hotspot", Some 600, 881216, "02674a396b4f63e2a7a8d1709c9707ae5441b1a03a3852588113a2eb7ecd9014");
    ("kmeans", None, 223381, "fe59a04d8f1ad1bc0c8b03b15f668d30b0d96d51480408acf995a006560338e1");
    ("kmeans", Some 600, 291481, "8451eeac29bd93954a01e9c23b77987c9ffaebfc1022dfb5d6a89798c9d69867");
    ("nn", None, 113322, "e9d5daae19cac2c80af3b26c6d561a7e939c44dc372e5d2b146679ec1db90cf0");
    ("nn", Some 600, 157753, "289044ffac444f97b2bec4d12eed9c9b16aa01dad21f372954359fceafdc29c8");
    ("pathfinder", None, 68774, "38817e320d352fda33c8c400d27848b4b271f87f3c64a42cd6c55260ff3e33b0");
    ("pathfinder", Some 600, 88230, "95094e348d4c839cdb5fc71982dde6ce5fe96c09c96228af71ac1734e635a92d");
  ]

let test_pinned_digests () =
  List.iter
    (fun (name, chunk_bytes, size, digest) ->
      with_temp @@ fun path ->
      let w = Result.get_ok (Workloads.Runner.find name) in
      let prog = Vm.Hir.lower w.Workloads.Workload.hir in
      let (_ : Stream.Trace_file.write_info) =
        Stream.Trace_file.record_to_file ?chunk_bytes prog path
      in
      let s = read_file path in
      let what =
        Printf.sprintf "%s at %s" name
          (match chunk_bytes with
          | None -> "the default chunk size"
          | Some c -> Printf.sprintf "%d-byte chunks" c)
      in
      Alcotest.(check int) (what ^ ": size") size (String.length s);
      Alcotest.(check string) (what ^ ": SHA-256") digest
        (Polyprof.Prog_hash.sha256_hex s))
    pinned_digests

(* ------------------------------------------------------------------ *)
(* Streaming replay / persistence on a real program                    *)
(* ------------------------------------------------------------------ *)

let test_record_to_file_matches_live () =
  with_temp @@ fun path ->
  let prog = H.lower program in
  let wi = Stream.Trace_file.record_to_file ~chunk_bytes:600 prog path in
  let live, stats = live_events prog in
  let loaded, loaded_stats = load path in
  Alcotest.(check int) "file size" (String.length (read_file path))
    wi.Stream.Trace_file.wi_bytes;
  Alcotest.(check bool) "stats trailer" true (loaded_stats = Some stats);
  Alcotest.(check bool) "same events" true (compare loaded live = 0);
  Alcotest.(check bool) "several chunks" true (wi.wi_bytes > 2 * 600)

(* ------------------------------------------------------------------ *)
(* Out-of-core replay == in-process profiling                          *)
(* ------------------------------------------------------------------ *)

let result_fingerprint (r : Ddg.Depprof.result) =
  ( r.Ddg.Depprof.stmts, r.deps, r.pruned_dep_edges, r.total_dep_edges,
    r.run_stats,
    (Ddg.Sched_tree.n_nodes r.stree, Ddg.Sched_tree.depth r.stree) )

let check_file_equals_live (w : Workloads.Workload.t) =
  with_temp @@ fun path ->
  let prog = Vm.Hir.lower w.Workloads.Workload.hir in
  let structure = Cfg.Cfg_builder.run prog in
  let live = Ddg.Depprof.profile prog ~structure in
  let (_ : Stream.Trace_file.write_info) =
    Stream.Trace_file.record_to_file prog path
  in
  let { Stream.Par_profile.result = ooc } =
    Stream.Par_profile.profile_file path prog ~structure
  in
  let name = w.Workloads.Workload.w_name in
  Alcotest.(check bool) (name ^ ": file replay equal_result to in-process")
    true
    (Ddg.Depprof.equal_result live ooc);
  Alcotest.(check bool) (name ^ ": file replay bit-identical to in-process")
    true
    (compare (result_fingerprint live) (result_fingerprint ooc) = 0)

(* every suite program: the mini-Rodinia, GemsFDTD and the PolyBench
   kernels *)
let test_file_equals_live_suite () =
  List.iter check_file_equals_live Workloads.Runner.suite

(* [Runner.run ~out_of_core:1 ~static_prune:true] records a trace with
   every address and replays it under the plan (with the
   witness-failure fallback): the profile must equal the unpruned
   in-process one *)
let check_pruned_replay ~witnesses (w : Workloads.Workload.t) =
  let name = w.Workloads.Workload.w_name in
  let o = Workloads.Runner.run ~out_of_core:1 ~static_prune:true w in
  let pruned =
    match o.Workloads.Runner.pipeline with
    | Some p -> p.Polyprof.profile
    | None -> Alcotest.failf "%s: the scheduler bailed out" name
  in
  let prog = Vm.Hir.lower w.Workloads.Workload.hir in
  let unpruned =
    Ddg.Depprof.profile prog ~structure:(Cfg.Cfg_builder.run prog)
  in
  Alcotest.(check bool) (name ^ ": accesses pruned") true
    (pruned.Ddg.Depprof.statically_pruned > 0);
  Alcotest.(check bool) (name ^ ": witness probes") witnesses
    (pruned.Ddg.Depprof.witnesses <> []);
  Alcotest.(check bool)
    (name ^ ": pruned replay = unpruned in-process")
    true
    (Ddg.Depprof.equal_result pruned unpruned)

let test_pruned_gemm () =
  check_pruned_replay ~witnesses:false Workloads.Polybench.gemm

let test_pruned_seidel_wd () =
  check_pruned_replay ~witnesses:true Workloads.Polybench.seidel_wd

(* the replay is sequential: one domain reproduces the in-process
   profile on backprop, and 2 or 5 domains (or [~out_of_core:2]) are
   refused *)
let test_domain_counts () =
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  let w = Workloads.Backprop.workload in
  expect_invalid "Runner.run ~out_of_core:2" (fun () ->
      Workloads.Runner.run ~out_of_core:2 w);
  with_temp @@ fun path ->
  let prog = Vm.Hir.lower w.Workloads.Workload.hir in
  let structure = Cfg.Cfg_builder.run prog in
  let (_ : Stream.Trace_file.write_info) =
    Stream.Trace_file.record_to_file prog path
  in
  List.iter
    (fun domains ->
      expect_invalid (Printf.sprintf "profile_file ~domains:%d" domains)
        (fun () -> Stream.Par_profile.profile_file ~domains path prog ~structure))
    [ 2; 5 ];
  let live = Ddg.Depprof.profile prog ~structure in
  let { Stream.Par_profile.result = ooc } =
    Stream.Par_profile.profile_file ~domains:1 path prog ~structure
  in
  Alcotest.(check bool) "1-domain file replay bit-identical to in-process"
    true
    (compare (result_fingerprint live) (result_fingerprint ooc) = 0)

let () =
  Alcotest.run "stream"
    [ ( "varint",
        [ Alcotest.test_case "zigzag extremes" `Quick test_zigzag_extremes;
          Alcotest.test_case "unsigned extremes" `Quick test_varint_unsigned;
          Alcotest.test_case "f64 bits" `Quick test_f64_roundtrip;
          Alcotest.test_case "writer grows" `Quick test_writer_grows;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_roundtrip_stats ] );
      ( "crc32",
        [ Alcotest.test_case "known answer" `Quick test_crc_known_answer;
          QCheck_alcotest.to_alcotest prop_crc_slices ] );
      ( "wire format",
        [ Alcotest.test_case "pinned trace digests" `Quick test_pinned_digests;
          QCheck_alcotest.to_alcotest prop_fuzz_random;
          QCheck_alcotest.to_alcotest prop_fuzz_mutated ] );
      ( "rejection",
        [ Alcotest.test_case "garbage" `Quick test_rejects_garbage;
          Alcotest.test_case "empty/short" `Quick test_rejects_empty_and_short;
          Alcotest.test_case "bad version" `Quick test_rejects_bad_version;
          Alcotest.test_case "truncation" `Quick test_rejects_truncation;
          Alcotest.test_case "bit flip" `Quick test_rejects_bitflip;
          Alcotest.test_case "missing trailer" `Quick
            test_missing_trailer_refused;
          Alcotest.test_case "corrupt length, no allocation" `Quick
            test_corrupt_length_no_alloc ] );
      ( "persistence",
        [ Alcotest.test_case "record_to_file matches live" `Quick
            test_record_to_file_matches_live ] );
      ( "parallel",
        [ Alcotest.test_case "1/2/5 domains on backprop" `Quick
            test_domain_counts ] );
      ( "out-of-core",
        [ Alcotest.test_case "pruned replay = unpruned, gemm" `Quick
            test_pruned_gemm;
          Alcotest.test_case "pruned replay = unpruned, witness" `Quick
            test_pruned_seidel_wd;
          Alcotest.test_case "file replay = in-process, whole suite" `Slow
            test_file_equals_live_suite ] ) ]
