(* Tests for the lib/obs telemetry subsystem:

   - the per-domain sink merge is deterministic, associative and
     order-insensitive: replaying the same update stream split across
     1, 2 or 5 sinks (with the partial sinks merged in any order)
     yields a bit-identical snapshot (qcheck property);
   - span nesting is enforced ([Unbalanced] on mismatched exits);
   - the Chrome trace exporter escapes hostile span names and survives
     a round-trip through the self-hosted JSON parser;
   - [Json_emit] escaping round-trips control characters and quotes;
   - the [Schemas] registry matches the committed BENCH files. *)

module M = Obs.Metrics
module J = Obs.Json_emit

(* --- deterministic merge (property) -------------------------------- *)

(* three metrics of each kind, registered once for the whole binary *)
let counters = Array.init 3 (fun i -> M.counter (Printf.sprintf "t.c%d" i))
let gauges = Array.init 3 (fun i -> M.gauge (Printf.sprintf "t.g%d" i))
let hists = Array.init 3 (fun i -> M.histogram (Printf.sprintf "t.h%d" i))

type update = Add of int * int | SetMax of int * int | Observe of int * int

let apply sink = function
  | Add (i, n) -> M.Sink.add sink counters.(i) n
  | SetMax (i, n) -> M.Sink.set_max sink gauges.(i) n
  | Observe (i, n) -> M.Sink.observe sink hists.(i) n

let update_gen =
  QCheck.Gen.(
    let idx = int_range 0 2 in
    let v = int_range 0 100_000 in
    oneof
      [ map2 (fun i n -> Add (i, n)) idx v;
        map2 (fun i n -> SetMax (i, n)) idx v;
        map2 (fun i n -> Observe (i, n)) idx v ])

let update_print = function
  | Add (i, n) -> Printf.sprintf "Add(c%d, %d)" i n
  | SetMax (i, n) -> Printf.sprintf "SetMax(g%d, %d)" i n
  | Observe (i, n) -> Printf.sprintf "Observe(h%d, %d)" i n

let updates_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map update_print l))
    QCheck.Gen.(list_size (int_range 0 200) update_gen)

(* split the update stream round-robin across [k] sinks and snapshot;
   [rev] merges the partial sinks in reverse order *)
let snapshot_split ~k ~rev updates =
  let sinks = Array.init k (fun _ -> M.Sink.create ()) in
  List.iteri (fun i u -> apply sinks.(i mod k) u) updates;
  let l = Array.to_list sinks in
  M.Sink.snapshot_of (if rev then List.rev l else l)

let prop_merge_deterministic updates =
  let reference = snapshot_split ~k:1 ~rev:false updates in
  List.for_all
    (fun (k, rev) -> snapshot_split ~k ~rev updates = reference)
    [ (2, false); (2, true); (5, false); (5, true) ]

let merge_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"sink merge is order-insensitive and split-invariant"
       updates_arb prop_merge_deterministic)

let test_merge_semantics () =
  (* counters add, gauges take max, histogram min/max/buckets merge *)
  let a = M.Sink.create () and b = M.Sink.create () in
  M.Sink.add a counters.(0) 3;
  M.Sink.add b counters.(0) 4;
  M.Sink.set_max a gauges.(0) 10;
  M.Sink.set_max b gauges.(0) 7;
  M.Sink.observe a hists.(0) 0;
  M.Sink.observe b hists.(0) 1000;
  let snap = M.Sink.snapshot_of [ a; b ] in
  let find name =
    List.find_map
      (fun ((d : M.desc), v) -> if d.M.d_name = name then Some v else None)
      snap
  in
  (match find "t.c0" with
  | Some (M.Vint 7) -> ()
  | _ -> Alcotest.fail "counter merge should sum to 7");
  (match find "t.g0" with
  | Some (M.Vint 10) -> ()
  | _ -> Alcotest.fail "gauge merge should take max 10");
  match find "t.h0" with
  | Some (M.Vhist h) ->
      Alcotest.(check int) "count" 2 h.M.h_count;
      Alcotest.(check int) "sum" 1000 h.M.h_sum;
      Alcotest.(check int) "min" 0 h.M.h_min;
      Alcotest.(check int) "max" 1000 h.M.h_max
  | _ -> Alcotest.fail "histogram summary missing"

(* --- spans --------------------------------------------------------- *)

let with_telemetry f =
  Obs.Registry.enable ();
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.Span.reset ();
      Obs.Registry.disable ())
    f

let test_span_unbalanced () =
  with_telemetry @@ fun () ->
  Obs.Span.enter "outer";
  Alcotest.check_raises "mismatched exit"
    (Obs.Span.Unbalanced "exit \"inner\": innermost open span is \"outer\"")
    (fun () -> Obs.Span.exit_ "inner");
  Obs.Span.exit_ "outer";
  Alcotest.check_raises "exit on empty stack"
    (Obs.Span.Unbalanced "exit \"outer\": no open span")
    (fun () -> Obs.Span.exit_ "outer")

let test_span_nesting () =
  with_telemetry @@ fun () ->
  Obs.Span.with_ ~cat:"test" "parent" (fun () ->
      Obs.Span.with_ "child1" (fun () -> ());
      Obs.Span.with_ "child2" (fun () -> ()));
  match Obs.Span.roots () with
  | [ p ] ->
      Alcotest.(check string) "root name" "parent" p.Obs.Span.sp_name;
      Alcotest.(check (list string))
        "children in start order" [ "child1"; "child2" ]
        (List.map (fun c -> c.Obs.Span.sp_name) p.Obs.Span.sp_children);
      Alcotest.(check bool) "duration non-negative" true
        (p.Obs.Span.sp_dur_ns >= 0)
  | l -> Alcotest.failf "expected one root span, got %d" (List.length l)

let test_span_disabled_noop () =
  Obs.Registry.disable ();
  Obs.Span.reset ();
  (* none of these may raise or record anything while disabled *)
  Obs.Span.enter "ghost";
  Obs.Span.exit_ "mismatched-and-ignored";
  Obs.Span.with_ "ghost2" (fun () -> ());
  Alcotest.(check int) "no spans recorded" 0 (List.length (Obs.Span.roots ()))

(* --- Chrome trace escaping ----------------------------------------- *)

let hostile = "we\"ird\nname\twith \\ control\x01chars"

let test_chrome_escaping () =
  with_telemetry @@ fun () ->
  Obs.Span.with_ ~cat:"test" hostile (fun () -> ());
  let s = Obs.Chrome.to_string ~process_name:hostile (Obs.Span.roots ()) in
  match J.parse s with
  | Error e -> Alcotest.failf "emitted trace does not parse: %s" e
  | Ok doc -> (
      match J.member "traceEvents" doc with
      | Some (J.List events) ->
          let names =
            List.filter_map
              (fun ev ->
                match J.member "name" ev with
                | Some (J.Str n) -> Some n
                | _ -> None)
              events
          in
          Alcotest.(check bool)
            "hostile span name survives the round-trip" true
            (List.mem hostile names)
      | _ -> Alcotest.fail "no traceEvents array")

let test_json_escape_roundtrip () =
  List.iter
    (fun s ->
      match J.parse (J.to_string (J.Str s)) with
      | Ok (J.Str s') -> Alcotest.(check string) "round-trip" s s'
      | Ok _ -> Alcotest.fail "parsed to a non-string"
      | Error e -> Alcotest.failf "parse error on %S: %s" s e)
    [ ""; hostile; "plain"; "\\"; "\""; "\x00\x1f"; "caf\xc3\xa9 \xe2\x82\xac" ]

(* --- quantiles ----------------------------------------------------- *)

(* the power-of-two buckets bound the estimate to the true value's
   bucket (one power of two); check against distributions with known
   quantiles *)
let hist_of values =
  let h = M.histogram "t.quant" in
  let sink = M.Sink.create () in
  List.iter (M.Sink.observe sink h) values;
  match
    List.find_map
      (fun ((d : M.desc), v) ->
        if d.M.d_name = "t.quant" then Some v else None)
      (M.Sink.snapshot_of [ sink ])
  with
  | Some (M.Vhist h) -> h
  | _ -> Alcotest.fail "histogram summary missing"

let bucket_of v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and x = ref v in
    while !x > 0 do incr i; x := !x lsr 1 done;
    !i
  end

let check_quantile ~what h q truth =
  let est = M.quantile h q in
  let bt = bucket_of truth and be = bucket_of (int_of_float est) in
  if abs (bt - be) > 1 then
    Alcotest.failf "%s: p%.0f estimate %.0f (bucket %d) vs truth %d (bucket %d)"
      what (q *. 100.) est be truth bt

let test_quantiles () =
  (* empty histogram (snapshots omit never-updated metrics, so build
     the summary directly) *)
  let empty =
    { M.h_count = 0; h_sum = 0; h_min = 0; h_max = 0;
      h_buckets = Array.make 63 0 }
  in
  Alcotest.(check (float 0.0)) "empty" 0.0 (M.quantile empty 0.5);
  (* constant distribution: every quantile is the value itself (exact,
     thanks to the min/max clamp) *)
  let const = hist_of (List.init 100 (fun _ -> 777)) in
  List.iter
    (fun q -> Alcotest.(check (float 0.0)) "constant" 777.0 (M.quantile const q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  (* uniform 1..4096: true p50 = 2048, p90 = 3687, p99 = 4056 *)
  let uni = hist_of (List.init 4096 (fun i -> i + 1)) in
  check_quantile ~what:"uniform" uni 0.5 2048;
  check_quantile ~what:"uniform" uni 0.9 3687;
  check_quantile ~what:"uniform" uni 0.99 4056;
  (* heavy tail: 99 fast samples, 1 slow outlier — p50 stays small,
     p100 hits the outlier *)
  let tail = hist_of (List.init 99 (fun i -> 10 + i) @ [ 1_000_000 ]) in
  check_quantile ~what:"tail" tail 0.5 59;
  Alcotest.(check (float 0.0)) "tail p100 is the observed max" 1_000_000.0
    (M.quantile tail 1.0);
  (* estimates are monotone in q *)
  List.iter
    (fun h ->
      ignore
        (List.fold_left
           (fun prev q ->
             let v = M.quantile h q in
             Alcotest.(check bool) "monotone in q" true (v >= prev);
             v)
           neg_infinity
           [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]))
    [ uni; tail ]

(* --- equal_ignoring / stable writes -------------------------------- *)

let test_equal_ignoring () =
  let doc utc =
    J.Obj
      [ ("schema_version", J.Int 1);
        ("generated_utc", J.Str utc);
        ( "nested",
          J.Obj [ ("generated_utc", J.Str (utc ^ "-nested")); ("v", J.Int 3) ]
        ) ]
  in
  Alcotest.(check bool) "differs only by timestamp" true
    (J.equal_ignoring ~ignore:[ "generated_utc" ] (doc "a") (doc "b"));
  let changed =
    J.Obj
      [ ("schema_version", J.Int 2);
        ("generated_utc", J.Str "a");
        ("nested", J.Obj [ ("generated_utc", J.Str "x"); ("v", J.Int 3) ]) ]
  in
  Alcotest.(check bool) "real change detected" false
    (J.equal_ignoring ~ignore:[ "generated_utc" ] (doc "a") changed);
  (* write_file_stable leaves the file untouched on a timestamp-only
     rerun *)
  let path = Filename.temp_file "polyprof_stable" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Alcotest.(check bool) "first write happens" true
    (J.write_file_stable path (doc "t0"));
  let bytes0 = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check bool) "timestamp-only rerun skipped" false
    (J.write_file_stable path (doc "t1"));
  let bytes1 = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "file bytes untouched" bytes0 bytes1;
  Alcotest.(check bool) "real change rewrites" true
    (J.write_file_stable path
       (J.Obj [ ("schema_version", J.Int 99); ("generated_utc", J.Str "t2") ]))

(* --- perfdiff bands ------------------------------------------------- *)

let test_perfdiff_floor () =
  let verdict metric b c =
    match Obs.Perfhist.diff ~baseline:[ (metric, b) ] ~current:[ (metric, c) ] with
    | [ r ] -> Obs.Perfhist.verdict_name r.r_verdict
    | _ -> Alcotest.fail "one row expected"
  in
  Alcotest.(check string) "0.4 ms doubling" "ok" (verdict "stage.seconds" 0.0004 0.0008);
  Alcotest.(check string) "0.4 ms halving" "ok" (verdict "stage.seconds" 0.0008 0.0004);
  Alcotest.(check string) "1.5 ms in ns" "ok" (verdict "stage.total_ns" 1e6 2.5e6);
  Alcotest.(check string) "200 ms growing 50%" "REGRESSED" (verdict "stage.seconds" 0.2 0.3);
  Alcotest.(check string) "3 ms in ns" "REGRESSED" (verdict "stage.total_ns" 1e6 4e6);
  Alcotest.(check string) "no floor on byte counts" "REGRESSED" (verdict "heap.bytes" 10. 20.)

(* --- schema registry vs the committed BENCH files ------------------- *)

(* every registry row that names a BENCH file matches that file's
   schema_version, and every BENCH file in the repo root has a row; the
   files are this stanza's dune deps, one directory up *)
let test_schemas_match_bench_files () =
  let is_bench f =
    String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json"
  in
  let on_disk =
    List.sort compare (List.filter is_bench (Array.to_list (Sys.readdir "..")))
  in
  let rows =
    List.filter (fun r -> is_bench r.Obs.Schemas.s_file) Obs.Schemas.all
  in
  Alcotest.(check (list string))
    "a row for every BENCH file" on_disk
    (List.sort compare (List.map (fun r -> r.Obs.Schemas.s_file) rows));
  List.iter
    (fun r ->
      let path = Filename.concat ".." r.Obs.Schemas.s_file in
      match J.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok doc -> (
          match J.member "schema_version" doc with
          | Some (J.Int v) ->
              Alcotest.(check int) r.Obs.Schemas.s_file r.Obs.Schemas.s_version v
          | _ -> Alcotest.failf "%s: no schema_version" path))
    rows

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ merge_qcheck;
          Alcotest.test_case "merge semantics" `Quick test_merge_semantics;
          Alcotest.test_case "quantile estimation" `Quick test_quantiles ] );
      ( "json",
        [ Alcotest.test_case "equal_ignoring + stable writes" `Quick
            test_equal_ignoring ] );
      ( "spans",
        [ Alcotest.test_case "unbalanced raises" `Quick test_span_unbalanced;
          Alcotest.test_case "nesting order" `Quick test_span_nesting;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_span_disabled_noop ] );
      ( "bands",
        [ Alcotest.test_case "wall-clock floor" `Quick test_perfdiff_floor ] );
      ( "schemas",
        [ Alcotest.test_case "registry matches the BENCH files" `Quick
            test_schemas_match_bench_files ] );
      ( "export",
        [ Alcotest.test_case "chrome escaping" `Quick test_chrome_escaping;
          Alcotest.test_case "json string round-trip" `Quick
            test_json_escape_roundtrip ] ) ]
