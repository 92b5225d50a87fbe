(* Tests for the lib/tune autotuning beam search: the enumerator's
   legality contract, seeded determinism of the search, and the gemm
   interchange anchor. *)

module S = Tune.Search
module C = Tune.Candidate

let suite = Workloads.Runner.autotune_suite
let n_workloads = List.length suite

(* Profiling a workload is the expensive part; do it at most once per
   workload across all qcheck iterations. *)
let analysed =
  let tbl =
    Array.of_list
      (List.map
         (fun (w : Workloads.Workload.t) ->
           lazy
             (let _prog, _profile, t = Xform.Driver.analyse_hir w.hir in
              (w, t)))
         suite)
  in
  fun i -> Lazy.force tbl.(i)

(* Every Nest_step the enumerator emits must already have passed the
   profiled-direction-vector legality gate: re-checking [Sched.Plan.legal]
   from the outside must agree. *)
let prop_enumerated_steps_legal =
  QCheck.Test.make ~name:"enumerated nest steps pass Plan.legal"
    ~count:(2 * n_workloads)
    (QCheck.int_bound (n_workloads - 1))
    (fun i ->
      let w, t = analysed i in
      let acts, _rejected = C.enumerate w.Workloads.Workload.hir t in
      List.for_all
        (function
          | C.Nest_step plan -> (Sched.Plan.legal t plan).Sched.Plan.lg_ok
          | C.Fuse _ | C.Distribute _ -> true)
        acts)

(* A deterministic projection of a search result: everything except the
   measured wall-clock numbers (scores and op counts come from exact
   probe-run instruction counts, so they must reproduce bit-for-bit).
   [r_best] is deliberately excluded — it is the argmin over measured
   seconds, so two verified candidates within timer noise of each other
   may legitimately swap between runs. *)
let fingerprint (r : S.t) =
  ( r.S.r_explored,
    r.S.r_illegal,
    r.S.r_apply_failed,
    List.map
      (fun (c : S.cand) ->
        (c.S.cd_level, c.S.cd_steps, S.status_string c.S.cd_status,
         c.S.cd_score, c.S.cd_ops))
      r.S.r_cands )

let search_config =
  { S.default with
    S.beam = 3;
    depth = 2;
    repeat = 1;
    (* a huge step/time budget so a slow CI machine cannot flip a
       candidate into Timed_out between the two runs *)
    timeout_factor = 64.0 }

let gemm () =
  (List.find
     (fun (w : Workloads.Workload.t) -> w.Workloads.Workload.w_name = "gemm")
     suite)
    .Workloads.Workload.hir

let test_seeded_determinism () =
  let run () =
    match S.run ~config:search_config ~name:"gemm" (gemm ()) with
    | Ok r -> fingerprint r
    | Error e -> Alcotest.failf "search bailed out: %s" e
  in
  let a = run () in
  let b = run () in
  Alcotest.(check bool)
    "same seed reproduces the search modulo timings" true (a = b)

let test_seed_changes_tiebreak () =
  (* a different seed must still explore the same legal moves (the
     enumerator is seed-independent); only ranking ties may move *)
  let explored seed =
    match
      S.run ~config:{ search_config with S.seed } ~name:"gemm" (gemm ())
    with
    | Ok r -> r.S.r_explored
    | Error e -> Alcotest.failf "search bailed out: %s" e
  in
  Alcotest.(check int) "explored count is seed-independent" (explored 1)
    (explored 99)

let test_gemm_interchange_anchor () =
  (* the textbook PGO win: gemm's innermost-stride interchange
     (d2 <-> d3) must survive the beam and verify at beam >= 2 *)
  let config = { search_config with S.beam = 4; depth = 1 } in
  match S.run ~config ~name:"gemm" (gemm ()) with
  | Error e -> Alcotest.failf "search bailed out: %s" e
  | Ok r ->
      let hit =
        List.exists
          (fun (c : S.cand) ->
            c.S.cd_status = S.Verified
            && List.exists
                 (fun s ->
                   String.length s >= 22
                   && String.sub s 0 22 = "interchange(d2 <-> d3)")
                 c.S.cd_steps)
          r.S.r_cands
      in
      Alcotest.(check bool) "interchange(d2 <-> d3) measured and verified"
        true hit

(* the autotune gate recomputes [all_best_verified] from the candidate
   list: a best whose step trail was only ever Rejected must fail it *)
let test_check_unverified_best () =
  let steps = [ "interchange(d0 <-> d1)" ] in
  let search status =
    { S.r_name = "w";
      r_config = S.default;
      r_identity_ops = 10;
      r_identity_seconds = 2e-3;
      r_explored = 1;
      r_illegal = 0;
      r_apply_failed = 0;
      r_pruned = 0;
      r_measured = 1;
      r_timeouts = 0;
      r_rejected = 0;
      r_verified = 0;
      r_cands =
        [ { S.cd_level = 1;
            cd_steps = steps;
            cd_status = status;
            cd_score = 0.;
            cd_ops = Some 10;
            cd_seconds = Some 1e-3;
            cd_speedup = Some 2.0 } ];
      r_best =
        Some
          { S.b_steps = steps; b_ops = 10; b_seconds = 1e-3; b_speedup = 2.0 };
      r_wall = 0. }
  in
  let verdict status =
    let results = [ ("w", Ok (search status)) ] in
    ( Tune.Tune_report.check results,
      Obs.Json_emit.member "all_best_verified"
        (Tune.Tune_report.suite_json ~config:S.default results) )
  in
  let failures, bit = verdict S.Verified in
  Alcotest.(check (list string)) "verified best passes" [] failures;
  Alcotest.(check bool) "all_best_verified true" true
    (bit = Some (Obs.Json_emit.Bool true));
  let failures, bit = verdict (S.Rejected "observable equivalence failed") in
  Alcotest.(check int) "rejected-only best fails the check" 1
    (List.length failures);
  Alcotest.(check bool) "all_best_verified false" true
    (bit = Some (Obs.Json_emit.Bool false))

let () =
  Alcotest.run "tune"
    [ ( "enumerator",
        [ QCheck_alcotest.to_alcotest prop_enumerated_steps_legal ] );
      ( "search",
        [ Alcotest.test_case "seeded determinism" `Quick
            test_seeded_determinism;
          Alcotest.test_case "seed-independent exploration" `Quick
            test_seed_changes_tiebreak;
          Alcotest.test_case "gemm interchange anchor" `Quick
            test_gemm_interchange_anchor ] );
      ( "report",
        [ Alcotest.test_case "unverified best fails the gate" `Quick
            test_check_unverified_best ] ) ]
