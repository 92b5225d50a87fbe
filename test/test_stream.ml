(* Tests for lib/stream: varint/zigzag extremes, qcheck round-trip of
   the binary codec over random event streams, framing/corruption
   rejection with the typed [Stream.Error], and the out-of-core
   profile's bit-identity with the in-process one, including the
   address-elided replay under a static-pruning plan. *)

module H = Vm.Hir

(* ------------------------------------------------------------------ *)
(* Varint / zigzag                                                     *)
(* ------------------------------------------------------------------ *)

let extreme_ints =
  [ 0; 1; -1; 2; -2; 63; 64; -64; -65; 127; 128; 255; 256; 1000000;
    -1000000; (1 lsl 30) - 1; 1 lsl 40; -(1 lsl 40); max_int - 1; max_int;
    min_int + 1; min_int ]

let test_zigzag_extremes () =
  List.iter
    (fun v ->
      let b = Buffer.create 16 in
      Stream.Varint.put_s b v;
      let r = Stream.Varint.reader (Bytes.of_string (Buffer.contents b)) in
      Alcotest.(check int)
        (Printf.sprintf "zigzag %d" v)
        v (Stream.Varint.get_s r);
      Alcotest.(check bool) "consumed" true (Stream.Varint.eof r))
    extreme_ints

let test_varint_unsigned () =
  List.iter
    (fun v ->
      let b = Buffer.create 16 in
      Stream.Varint.put_u b v;
      let r = Stream.Varint.reader (Bytes.of_string (Buffer.contents b)) in
      Alcotest.(check int) (Printf.sprintf "varint %d" v) v
        (Stream.Varint.get_u r))
    (List.filter (fun v -> v >= 0) extreme_ints)

let test_f64_roundtrip () =
  List.iter
    (fun f ->
      let b = Buffer.create 16 in
      Stream.Varint.put_f64 b f;
      let r = Stream.Varint.reader (Bytes.of_string (Buffer.contents b)) in
      let f' = Stream.Varint.get_f64 r in
      Alcotest.(check bool)
        (Printf.sprintf "f64 %h" f)
        true
        (Int64.bits_of_float f = Int64.bits_of_float f'))
    [ 0.0; -0.0; 1.0; -1.5; infinity; neg_infinity; nan; max_float;
      min_float; epsilon_float; 4e-324; 1.0000000000000002 ]

(* ------------------------------------------------------------------ *)
(* Codec round-trip over random event streams                          *)
(* ------------------------------------------------------------------ *)

(* Event streams whose exec depths are consistent with their own
   call/return events (as every interpreter-produced stream is): the
   codec derives depth from the control stream rather than storing it. *)
let gen_events : Vm.Event.t list QCheck.Gen.t =
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
      (Vm.Event.Exec
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
            (Vm.Event.Control (Vm.Event.Jump { fid; src; dst }) :: acc)
            (k - 1)
      | `Call ->
          small >>= fun caller ->
          small >>= fun site ->
          small >>= fun callee ->
          small >>= fun dst ->
          go (depth + 1)
            (Vm.Event.Control (Vm.Event.Call { caller; site; callee; dst })
            :: acc)
            (k - 1)
      | `Return ->
          small >>= fun callee ->
          small >>= fun caller ->
          small >>= fun dst ->
          go (depth - 1)
            (Vm.Event.Control (Vm.Event.Return { callee; caller; dst })
            :: acc)
            (k - 1)
  in
  go 0 [] n

let events_to_list trace =
  let acc = ref [] in
  Vm.Trace.iter (fun e -> acc := e :: !acc) trace;
  List.rev !acc

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
      let trace = Vm.Trace.of_events (Array.of_list events) in
      (* tiny chunks: force many chunk boundaries and dictionary resets *)
      let (_ : int) = Stream.Trace_file.save ~chunk_bytes:600 trace path in
      let loaded, stats = Stream.Trace_file.load path in
      stats = None && compare (events_to_list loaded) events = 0)

let prop_roundtrip_stats =
  QCheck.Test.make ~name:"stats trailer round-trips" ~count:30
    (QCheck.make QCheck.Gen.(quad nat nat nat nat))
    (fun (dyn_instrs, dyn_mem_ops, dyn_fp_ops, max_depth) ->
      with_temp @@ fun path ->
      let stats =
        { Vm.Interp.dyn_instrs; dyn_mem_ops; dyn_fp_ops; max_depth }
      in
      let trace = Vm.Trace.of_events [||] in
      let (_ : int) = Stream.Trace_file.save ~stats trace path in
      let _, stats' = Stream.Trace_file.load path in
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
  let trace, stats = Vm.Trace.record prog in
  let (_ : int) = Stream.Trace_file.save ~stats ~chunk_bytes:600 trace path in
  Vm.Trace.n_events trace

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
  expect_stream_error "garbage" (fun () -> Stream.Trace_file.load path)

let test_rejects_empty_and_short () =
  with_temp @@ fun path ->
  write_file path "";
  expect_stream_error "empty" (fun () -> Stream.Trace_file.load path);
  write_file path "PLYP";
  expect_stream_error "short magic" (fun () -> Stream.Trace_file.load path);
  write_file path "PLYPROF1";
  expect_stream_error "missing version" (fun () ->
      Stream.Trace_file.load path)

let test_rejects_bad_version () =
  with_temp @@ fun path ->
  let (_ : int) = write_valid_trace path in
  let s = read_file path in
  let b = Bytes.of_string s in
  Bytes.set b 8 (Char.chr 99);
  write_file path (Bytes.to_string b);
  expect_stream_error "future version" (fun () -> Stream.Trace_file.load path)

let test_rejects_truncation () =
  with_temp @@ fun path ->
  let (_ : int) = write_valid_trace path in
  let s = read_file path in
  (* drop the tail: mid-payload truncation must be caught by framing *)
  List.iter
    (fun keep ->
      write_file path (String.sub s 0 keep);
      expect_stream_error
        (Printf.sprintf "truncated to %d bytes" keep)
        (fun () -> Stream.Trace_file.load path))
    [ String.length s - 3; String.length s / 2; 12 ]

let test_rejects_bitflip () =
  with_temp @@ fun path ->
  let (_ : int) = write_valid_trace path in
  let s = read_file path in
  let b = Bytes.of_string s in
  let pos = (String.length s / 2) + 3 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  write_file path (Bytes.to_string b);
  expect_stream_error "bit flip (CRC)" (fun () -> Stream.Trace_file.load path)

let test_missing_trailer_refused () =
  with_temp @@ fun path ->
  let prog = H.lower program in
  let trace, _stats = Vm.Trace.record prog in
  let (_ : int) = Stream.Trace_file.save trace path in
  (* no ~stats *)
  let structure = Cfg.Cfg_builder.run prog in
  expect_stream_error "missing stats trailer" (fun () ->
      Stream.Par_profile.profile_file path prog ~structure)

(* ------------------------------------------------------------------ *)
(* Streaming replay / persistence on a real program                    *)
(* ------------------------------------------------------------------ *)

let test_record_to_file_matches_live () =
  with_temp @@ fun path ->
  let prog = H.lower program in
  let wi = Stream.Trace_file.record_to_file ~chunk_bytes:600 prog path in
  let trace, stats = Vm.Trace.record prog in
  let loaded, loaded_stats = Stream.Trace_file.load path in
  Alcotest.(check int) "event count" (Vm.Trace.n_events trace)
    wi.Stream.Trace_file.wi_events;
  Alcotest.(check bool) "stats trailer" true (loaded_stats = Some stats);
  Alcotest.(check bool) "same events" true
    (compare (events_to_list loaded) (events_to_list trace) = 0);
  Alcotest.(check bool) "several chunks" true (wi.wi_chunks > 1)

(* ------------------------------------------------------------------ *)
(* Out-of-core replay == in-process profiling                          *)
(* ------------------------------------------------------------------ *)

let result_fingerprint (r : Ddg.Depprof.result) =
  ( r.Ddg.Depprof.stmts, r.deps, r.pruned_dep_edges, r.total_dep_edges,
    r.run_stats,
    (Ddg.Sched_tree.n_nodes r.stree, Ddg.Sched_tree.depth r.stree),
    (Ddg.Cct.n_nodes r.cct, Ddg.Cct.max_depth r.cct) )

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
  Alcotest.(check bool)
    (w.Workloads.Workload.w_name ^ ": file replay bit-identical to in-process")
    true
    (compare (result_fingerprint live) (result_fingerprint ooc) = 0)

let test_file_equals_live_suite () =
  List.iter check_file_equals_live
    (Workloads.Rodinia.all @ [ Workloads.Gems_fdtd.workload ])

(* the whole out-of-core pipeline, both instrumentation stages replayed
   from the file *)
let test_out_of_core_pipeline () =
  with_temp @@ fun path ->
  let w = Workloads.Backprop.workload in
  let prog = Vm.Hir.lower w.Workloads.Workload.hir in
  let (_ : Stream.Trace_file.write_info) =
    Stream.Trace_file.record_to_file prog path
  in
  let live = Polyprof.run prog in
  let from_file = Polyprof.run_trace_file ~path prog in
  Alcotest.(check bool) "pipeline profile identical" true
    (compare
       (result_fingerprint live.Polyprof.profile)
       (result_fingerprint from_file.Polyprof.profile)
    = 0)

(* [Runner.run ~out_of_core:1 ~static_prune:true] records a trace with
   the plan's addresses elided and replays it under the plan (with the
   witness-failure fallback): the profile must equal the unpruned
   in-process one *)
let check_elided_pruned_replay ~witnesses (w : Workloads.Workload.t) =
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
    (name ^ ": elided pruned replay = unpruned in-process")
    true
    (Ddg.Depprof.equal_result pruned unpruned)

let test_elided_gemm () =
  check_elided_pruned_replay ~witnesses:false Workloads.Polybench.gemm

let test_elided_seidel_wd () =
  check_elided_pruned_replay ~witnesses:true Workloads.Polybench.seidel_wd

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
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_roundtrip_stats ] );
      ( "rejection",
        [ Alcotest.test_case "garbage" `Quick test_rejects_garbage;
          Alcotest.test_case "empty/short" `Quick test_rejects_empty_and_short;
          Alcotest.test_case "bad version" `Quick test_rejects_bad_version;
          Alcotest.test_case "truncation" `Quick test_rejects_truncation;
          Alcotest.test_case "bit flip" `Quick test_rejects_bitflip;
          Alcotest.test_case "missing trailer" `Quick
            test_missing_trailer_refused ] );
      ( "persistence",
        [ Alcotest.test_case "record_to_file matches live" `Quick
            test_record_to_file_matches_live ] );
      ( "parallel",
        [ Alcotest.test_case "1/2/5 domains on backprop" `Quick
            test_domain_counts;
          Alcotest.test_case "out-of-core pipeline" `Quick
            test_out_of_core_pipeline ] );
      ( "out-of-core",
        [ Alcotest.test_case "elided pruned replay on gemm" `Quick
            test_elided_gemm;
          Alcotest.test_case "elided pruned replay, witness" `Quick
            test_elided_seidel_wd;
          Alcotest.test_case "file replay = in-process, whole suite" `Slow
            test_file_equals_live_suite ] ) ]
