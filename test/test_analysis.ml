(* Tests for the static-analysis layer: bytecode verifier, definite
   initialization, dead-store lint, affine access classification and the
   static-vs-dynamic dependence cross-checker. *)

open Vm.Hir.Dsl
module H = Vm.Hir
module I = Vm.Isa
module P = Vm.Prog

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let expect_invalid_arg substr f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument mentioning %S" substr
  | exception Invalid_argument m ->
      if not (contains m substr) then
        Alcotest.failf "Invalid_argument %S does not mention %S" m substr

let blk bid instrs term =
  { P.bid; instrs = Array.of_list instrs; term; block_loc = None }

let raw_prog ?(n_params = 0) blocks =
  { P.funcs =
      [| { P.fid = 0;
           fname = "main";
           n_params;
           blocks = Array.of_list blocks;
           blacklisted = false } |];
    main = 0;
    globals = [];
    mem_size = 64 }

let with_code code diags =
  List.filter (fun (d : Analysis.Diag.t) -> d.code = code) diags

(* ---------------- structural verifier ---------------- *)

let test_builder_rejects_bad_target () =
  let pb = P.Builder.create () in
  let fid = P.Builder.declare_func pb "main" ~n_params:0 in
  let fb = P.Builder.define_func pb fid in
  P.Builder.terminate fb 0 (I.Br (I.Imm 1, 5, 0));
  P.Builder.finish_func fb;
  expect_invalid_arg "targets block b5" (fun () ->
      P.Builder.finish pb ~main:"main")

let test_builder_rejects_unterminated () =
  let pb = P.Builder.create () in
  let fid = P.Builder.declare_func pb "main" ~n_params:0 in
  let fb = P.Builder.define_func pb fid in
  P.Builder.emit fb 0 (I.Const (0, 1));
  expect_invalid_arg "not terminated" (fun () -> P.Builder.finish_func fb)

let test_builder_rejects_bad_arity () =
  let pb = P.Builder.create () in
  let f = P.Builder.declare_func pb "callee" ~n_params:2 in
  let m = P.Builder.declare_func pb "main" ~n_params:0 in
  let fb = P.Builder.define_func pb f in
  P.Builder.terminate fb 0 (I.Ret None);
  P.Builder.finish_func fb;
  let mb = P.Builder.define_func pb m in
  let cont = P.Builder.fresh_block mb in
  P.Builder.terminate mb 0
    (I.Call { dst = None; callee = f; args = [ I.Imm 1 ]; cont });
  P.Builder.terminate mb cont I.Halt;
  P.Builder.finish_func mb;
  expect_invalid_arg "passes 1 argument but it declares 2 parameters"
    (fun () -> P.Builder.finish pb ~main:"main")

let test_verify_struct_error () =
  let prog = raw_prog [ blk 0 [] (I.Jump 7) ] in
  let errs = P.wf_errors prog in
  Alcotest.(check int) "one structural error" 1 (List.length errs);
  let diags = Analysis.Verify.verify prog in
  Alcotest.(check bool) "E-struct emitted" true
    (with_code "E-struct" diags <> []);
  Alcotest.(check bool) "verifier rejects" false (Analysis.Verify.ok prog);
  expect_invalid_arg "jump targets block b7" (fun () -> P.validate prog)

let test_verify_reg_out_of_range () =
  let prog = raw_prog [ blk 0 [ I.Const (99999, 1) ] I.Halt ] in
  Alcotest.(check bool) "huge register index rejected" true
    (P.wf_errors prog <> [])

let test_verify_unreachable () =
  let prog =
    raw_prog [ blk 0 [] I.Halt; blk 1 [ I.Const (0, 1) ] I.Halt ]
  in
  Alcotest.(check int) "structurally fine" 0 (List.length (P.wf_errors prog));
  let diags = Analysis.Verify.verify prog in
  match with_code "W-unreachable" diags with
  | [ d ] ->
      Alcotest.(check bool) "still verifies" true (Analysis.Verify.ok prog);
      Alcotest.(check (option int))
        "located at block 1" (Some (I.Sid.make ~fid:0 ~bid:1 ~idx:0)) d.sid
  | ds -> Alcotest.failf "expected 1 W-unreachable, got %d" (List.length ds)

let test_verify_ret_in_main () =
  let prog = raw_prog [ blk 0 [] (I.Ret None) ] in
  let diags = Analysis.Verify.verify prog in
  Alcotest.(check int) "E-ret-in-main" 1
    (List.length (with_code "E-ret-in-main" diags))

(* ---------------- definite initialization ---------------- *)

let test_initdef_catches_conditional_init () =
  (* r0 is initialized on the then-path only; the read in the join block
     is flagged at its exact static id *)
  let prog =
    raw_prog
      [ blk 0 [] (I.Br (I.Imm 1, 1, 2));
        blk 1 [ I.Const (0, 5) ] (I.Jump 3);
        blk 2 [] (I.Jump 3);
        blk 3 [ I.Mov (1, I.Reg 0); I.Store (I.Imm 16, I.Reg 1) ] I.Halt ]
  in
  (match with_code "W-uninit" (Analysis.Initdef.check prog) with
  | [ d ] ->
      Alcotest.(check (option int))
        "flagged at the read" (Some (I.Sid.make ~fid:0 ~bid:3 ~idx:0)) d.sid;
      Alcotest.(check bool) "names r0" true (contains d.message "r0")
  | ds -> Alcotest.failf "expected 1 W-uninit, got %d" (List.length ds));
  (* initializing on both paths silences it *)
  let clean =
    raw_prog
      [ blk 0 [] (I.Br (I.Imm 1, 1, 2));
        blk 1 [ I.Const (0, 5) ] (I.Jump 3);
        blk 2 [ I.Const (0, 6) ] (I.Jump 3);
        blk 3 [ I.Mov (1, I.Reg 0); I.Store (I.Imm 16, I.Reg 1) ] I.Halt ]
  in
  Alcotest.(check int) "both-path init is clean" 0
    (List.length (with_code "W-uninit" (Analysis.Initdef.check clean)))

let test_initdef_params_arrive_assigned () =
  let prog =
    { (raw_prog ~n_params:1
         [ blk 0 [ I.Store (I.Imm 16, I.Reg 0) ] I.Halt ])
      with main = 0 }
  in
  (* main with a param is unusual but initdef only cares about the frame *)
  Alcotest.(check int) "no W-uninit" 0
    (List.length (with_code "W-uninit" (Analysis.Initdef.check prog)))

(* ---------------- liveness / dead stores ---------------- *)

let test_liveness_dead_store () =
  let prog =
    raw_prog
      [ blk 0
          [ I.Const (0, 1);  (* dead: overwritten before any read *)
            I.Const (0, 2);
            I.Store (I.Imm 16, I.Reg 0) ]
          I.Halt ]
  in
  match with_code "W-dead-store" (Analysis.Liveness.check prog) with
  | [ d ] ->
      Alcotest.(check (option int))
        "first const flagged" (Some (I.Sid.make ~fid:0 ~bid:0 ~idx:0)) d.sid
  | ds -> Alcotest.failf "expected 1 W-dead-store, got %d" (List.length ds)

let test_liveness_across_blocks () =
  (* a def consumed only around the loop back edge is live *)
  let prog =
    raw_prog
      [ blk 0 [ I.Const (0, 0) ] (I.Jump 1);
        blk 1
          [ I.Bin (I.Add, 0, I.Reg 0, I.Imm 1); I.Cmp (I.Clt, 1, I.Reg 0, I.Imm 9) ]
          (I.Br (I.Reg 1, 1, 2));
        blk 2 [ I.Store (I.Imm 16, I.Reg 0) ] I.Halt ]
  in
  Alcotest.(check int) "no dead stores" 0
    (List.length (with_code "W-dead-store" (Analysis.Liveness.check prog)));
  Alcotest.(check (list int))
    "r0 live into the loop header" [ 0 ]
    (Analysis.Liveness.live_in prog.P.funcs.(0) 1)

(* ---------------- affine classification ---------------- *)

let analyse_main hir =
  let prog = H.lower hir in
  let frs = Analysis.Affine_class.analyse_prog prog in
  let fid = (P.func_by_name prog "main").P.fid in
  (prog, frs.(fid))

let base_of prog name =
  match
    List.find_opt (fun (n, _, _) -> n = name) prog.P.globals
  with
  | Some (_, base, _) -> base
  | None -> Alcotest.failf "no global %s" name

let test_affine_2d_nest () =
  let hir : H.program =
    { H.funs =
        [ H.fundef "main" []
            [ H.for_ "r" (i 0) (i 4)
                [ H.for_ "c" (i 0) (i 8)
                    [ store "a" ((v "r" *! i 8) +! v "c") (i 1) ] ] ] ];
      arrays = [ ("a", 32) ];
      main = "main" }
  in
  let prog, fr = analyse_main hir in
  let stores =
    List.filter
      (fun (a : Analysis.Affine_class.access) -> a.acc_store)
      fr.Analysis.Affine_class.fr_accesses
  in
  match stores with
  | [ a ] ->
      (match Analysis.Affine_class.classify a with
      | `Affine _ -> ()
      | `Nonaffine _ ->
          Alcotest.failf "a[8r+c] not affine: %s"
            (Format.asprintf "%a" Analysis.Affine_class.pp_access a));
      Alcotest.(check int) "depth 2" 2 a.acc_depth;
      let base = base_of prog "a" in
      Alcotest.(check (option (pair int int)))
        "range covers exactly the array" (Some (base, base + 31)) a.acc_range
  | _ -> Alcotest.failf "expected 1 store, got %d" (List.length stores)

let test_affine_indirect_is_nonaffine () =
  let hir : H.program =
    { H.funs =
        [ H.fundef "main" []
            [ H.for_ "k" (i 0) (i 4)
                [ (* a[2*idx[k]] — a loaded value scaled: code F *)
                  store "a" ("idx".%[v "k"] *! i 2) (i 1);
                  (* b[idx[k]] — a loaded value as additive root: code P *)
                  store "b" ("idx".%[v "k"]) (i 1) ] ] ];
      arrays = [ ("idx", 4); ("a", 8); ("b", 8) ];
      main = "main" }
  in
  let _, fr = analyse_main hir in
  let codes =
    List.filter_map
      (fun (a : Analysis.Affine_class.access) ->
        if a.acc_store then Some (Analysis.Affine_class.class_code a) else None)
      fr.Analysis.Affine_class.fr_accesses
  in
  Alcotest.(check (list string)) "store classifications" [ "F"; "P" ] codes;
  (* the idx[k] loads themselves are affine *)
  List.iter
    (fun (a : Analysis.Affine_class.access) ->
      if not a.acc_store then
        Alcotest.(check string)
          "idx[k] load is affine" "-"
          (Analysis.Affine_class.class_code a))
    fr.Analysis.Affine_class.fr_accesses

let test_affine_interprocedural_constants () =
  (* the kernel sees its trip count and base offset only through call
     arguments; constant propagation across the call makes the access
     ranged anyway *)
  let hir : H.program =
    { H.funs =
        [ H.fundef "kern" [ "off"; "n" ]
            [ H.for_ "k" (i 0) (v "n")
                [ store "a" (v "off" +! v "k") (i 1) ] ];
          H.fundef "main" [] [ H.CallS (None, "kern", [ i 2; i 5 ]) ] ];
      arrays = [ ("a", 8) ];
      main = "main" }
  in
  let prog = H.lower hir in
  let frs = Analysis.Affine_class.analyse_prog prog in
  let fid = (P.func_by_name prog "kern").P.fid in
  let stores =
    List.filter
      (fun (a : Analysis.Affine_class.access) -> a.acc_store)
      frs.(fid).Analysis.Affine_class.fr_accesses
  in
  match stores with
  | [ a ] ->
      let base = base_of prog "a" in
      Alcotest.(check (option (pair int int)))
        "a[2+k], k<5" (Some (base + 2, base + 6)) a.acc_range
  | _ -> Alcotest.failf "expected 1 store, got %d" (List.length stores)

(* ---------------- cross-checker ---------------- *)

let two_array_hir : H.program =
  { H.funs =
      [ H.fundef "main" []
          [ H.for_ "k" (i 0) (i 4)
              [ store "a" (v "k") (i 1); store "b" (v "k") (i 2) ] ] ];
    arrays = [ ("a", 4); ("b", 4) ];
    main = "main" }

let test_crosscheck_clean_and_seeded_violation () =
  let prog = H.lower two_array_hir in
  let structure = Cfg.Cfg_builder.run prog in
  let profile = Ddg.Depprof.profile prog ~structure in
  let report = Analysis.Crosscheck.check prog profile in
  Alcotest.(check bool) "real profile is clean" true
    (Analysis.Crosscheck.ok report);
  Alcotest.(check bool) "has independence facts" true
    (report.Analysis.Crosscheck.facts > 0);
  (* seed a fabricated mem dependence between the two (provably
     disjoint) stores: the checker must call it out *)
  let frs = Analysis.Affine_class.analyse_prog prog in
  let fid = (P.func_by_name prog "main").P.fid in
  let stores =
    List.filter
      (fun (a : Analysis.Affine_class.access) ->
        a.acc_store && a.acc_range <> None)
      frs.(fid).Analysis.Affine_class.fr_accesses
  in
  match stores with
  | [ sa; sb ] ->
      let fake : Ddg.Depprof.dep_info =
        { dk =
            { src_sid = sa.acc_sid;
              src_ctx = 0;
              dst_sid = sb.acc_sid;
              dst_ctx = 0;
              kind = Ddg.Depprof.Mem_dep };
          d_count = 1;
          d_pieces = [];
          src_depth = 1;
          dst_depth = 1 }
      in
      let tampered =
        { profile with Ddg.Depprof.deps = fake :: profile.Ddg.Depprof.deps }
      in
      let report = Analysis.Crosscheck.check prog tampered in
      (match report.Analysis.Crosscheck.violations with
      | [ d ] ->
          Alcotest.(check string) "code" "E-crosscheck" d.code;
          Alcotest.(check bool) "is an error" true (Analysis.Diag.is_error d)
      | ds -> Alcotest.failf "expected 1 violation, got %d" (List.length ds))
  | _ -> Alcotest.failf "expected 2 ranged stores, got %d" (List.length stores)

(* ---------------- agreement with the static Polly baseline -------- *)

let nonaffine_reasons fr =
  List.filter_map
    (fun a ->
      match Analysis.Affine_class.classify a with
      | `Affine _ -> None
      | `Nonaffine r -> Some r)
    fr.Analysis.Affine_class.fr_accesses

let all_affine_in hir fname =
  let prog = H.lower hir in
  let frs = Analysis.Affine_class.analyse_prog prog in
  let fid = (P.func_by_name prog fname).P.fid in
  nonaffine_reasons frs.(fid) = []

let polly_has_f hir fname =
  let v = Staticbase.Polly_lite.analyse_function hir fname in
  List.mem Staticbase.Polly_lite.F_nonaffine_access
    v.Staticbase.Polly_lite.reasons

let test_agreement_figure3 () =
  (* fig. 3 ex1: both the loop in B (parametric base) and the loop in A
     are affine for the bytecode classifier, and Polly agrees that no
     access function is non-affine *)
  List.iter
    (fun fname ->
      Alcotest.(check bool)
        (fname ^ " classified affine") true
        (all_affine_in Workloads.Figure3.ex1 fname);
      Alcotest.(check bool)
        (fname ^ " polly agrees (no F)") false
        (polly_has_f Workloads.Figure3.ex1 fname))
    [ "B"; "A" ]

let test_agreement_rodinia () =
  (* fully-modeled kernel: classifier sees it all-affine too *)
  let gems = Workloads.Gems_fdtd.workload in
  Alcotest.(check bool) "gems_fdtd kernel all affine" true
    (all_affine_in gems.Workloads.Workload.hir
       gems.Workloads.Workload.kernel_func);
  Alcotest.(check bool) "gems_fdtd polly has no F" false
    (polly_has_f gems.Workloads.Workload.hir
       gems.Workloads.Workload.kernel_func);
  (* kernels Polly rejects with F: the classifier must also find at
     least one non-affine access there (agreement in the other
     direction) *)
  List.iter
    (fun name ->
      let w = Workloads.Rodinia.find name in
      Alcotest.(check bool)
        (name ^ " polly reports F") true
        (polly_has_f w.Workloads.Workload.hir w.Workloads.Workload.kernel_func);
      Alcotest.(check bool)
        (name ^ " classifier finds non-affine accesses") false
        (all_affine_in w.Workloads.Workload.hir
           w.Workloads.Workload.kernel_func))
    [ "bfs"; "cfd" ]

(* ---------------- new lint passes ---------------- *)

let test_lint_deadcode () =
  (* r0 := 0; br r0 ? b1 : b2 -- b1 is plain-reachable but the branch
     condition is a known constant, so only b2 can execute *)
  let prog =
    raw_prog
      [ blk 0 [ I.Const (0, 0) ] (I.Br (I.Reg 0, 1, 2));
        blk 1 [ I.Const (1, 7) ] I.Halt;
        blk 2 [] I.Halt ]
  in
  (match with_code "W-deadcode" (Analysis.Lint.deadcode prog) with
  | [ d ] -> Alcotest.(check bool) "warning" false (Analysis.Diag.is_error d)
  | ds -> Alcotest.failf "expected 1 W-deadcode, got %d" (List.length ds));
  (* a genuinely two-way branch must stay quiet *)
  let live =
    raw_prog
      [ blk 0 [ I.Load (0, I.Imm 0) ] (I.Br (I.Reg 0, 1, 2));
        blk 1 [ I.Const (1, 7) ] I.Halt;
        blk 2 [] I.Halt ]
  in
  Alcotest.(check int) "no false positive" 0
    (List.length (Analysis.Lint.deadcode live))

let test_lint_redundant_load () =
  let dup =
    raw_prog
      [ blk 0
          [ I.Load (0, I.Imm 5); I.Load (1, I.Imm 5) ]
          I.Halt ]
  in
  (match with_code "W-redundant-load" (Analysis.Lint.redundant_load dup) with
  | [ _ ] -> ()
  | ds -> Alcotest.failf "expected 1 W-redundant-load, got %d" (List.length ds));
  (* an intervening store (may alias) must reset availability, and a
     redefinition of the address register must kill its entry *)
  let quiet =
    raw_prog
      [ blk 0
          [ I.Load (0, I.Imm 5); I.Store (I.Imm 5, I.Imm 1);
            I.Load (1, I.Imm 5) ]
          I.Halt;
        blk 1 [] I.Halt ]
  in
  Alcotest.(check int) "store resets availability" 0
    (List.length (Analysis.Lint.redundant_load quiet))

(* ---------------- static dependence engine ---------------- *)

let profile_both prog =
  let sd = Analysis.Statdep.analyse prog in
  let structure = Cfg.Cfg_builder.run prog in
  let full = Ddg.Depprof.profile prog ~structure in
  let pruned =
    Ddg.Depprof.profile ~static_prune:sd.Analysis.Statdep.plan prog ~structure
  in
  (sd, full, pruned)

let test_statdep_gemm () =
  let w = Workloads.Polybench.gemm in
  let prog = H.lower w.Workloads.Workload.hir in
  let sd, full, pruned = profile_both prog in
  Alcotest.(check int) "all 7 accesses resolved" 7
    (Analysis.Statdep.n_resolved sd);
  Alcotest.(check int) "all 7 accesses pruned" 7 (Analysis.Statdep.n_pruned sd);
  Alcotest.(check (list string)) "all three arrays prunable" [ "A"; "B"; "C" ]
    (Analysis.Statdep.prunable_regions sd);
  Alcotest.(check bool) "every dynamic access skipped shadow tracking" true
    (pruned.Ddg.Depprof.statically_pruned
    = full.Ddg.Depprof.run_stats.Vm.Interp.dyn_mem_ops);
  Alcotest.(check bool) "pruned profile identical" true
    (Ddg.Depprof.equal_result full pruned);
  (* the C-reduction carries the classic (=, =, <) dependence with a
     provable distance of 0 on the two outer dimensions *)
  let module D = Sched.Depanalysis in
  Alcotest.(check bool) "found the (=, =, <) flow dependence" true
    (List.exists
       (fun (p : Analysis.Statdep.pair_dep) ->
         p.pd_kind = Ddg.Depprof.Mem_dep && p.pd_possible
         && p.pd_dirs = [| D.Dzero; D.Dzero; D.Dpos |]
         && p.pd_dists = [| Some 0; Some 0; None |])
       (Lazy.force sd.Analysis.Statdep.pairs))

let test_statdep_profile_skips_pairs () =
  (* the pruned profile reads only the plan: the hybrid driver must
     leave the LP-decided pair summaries unbuilt *)
  let prog = H.lower Workloads.Polybench.gemm.Workloads.Workload.hir in
  let structure = Cfg.Cfg_builder.run prog in
  let sd, _, _ =
    Analysis.Statdep.fallback_profile prog ~profile:(fun plan ->
        Ddg.Depprof.profile ~static_prune:plan prog ~structure)
  in
  Alcotest.(check bool) "pairs not forced by profiling" false
    (Lazy.is_val sd.Analysis.Statdep.pairs);
  Alcotest.(check bool) "pairs still available on demand" true
    (Lazy.force sd.Analysis.Statdep.pairs <> [])

let test_statdep_truncated_run () =
  (* a run that lost its last exec events must fail the plan's count
     check instead of injecting dependences for executions it never
     reported *)
  let prog = H.lower Workloads.Polybench.gemm.Workloads.Workload.hir in
  let structure = Cfg.Cfg_builder.run prog in
  let sd = Analysis.Statdep.analyse prog in
  let n_exec = ref 0 in
  ignore
    (Vm.Interp.run prog
       ~callbacks:
         { Vm.Interp.no_instrumentation with on_exec = (fun _ -> incr n_exec) });
  let keep = !n_exec - 50 in
  let feed (cb : Vm.Interp.callbacks) =
    let seen = ref 0 in
    Vm.Interp.run prog
      ~callbacks:
        { cb with
          on_exec =
            (fun ex ->
              incr seen;
              if !seen <= keep then cb.on_exec ex) }
  in
  match
    Ddg.Depprof.profile_replay ~static_prune:sd.Analysis.Statdep.plan ~feed
      prog ~structure
  with
  | _ -> Alcotest.fail "a truncated run produced a pruned profile"
  | exception Failure m ->
      Alcotest.(check bool)
        (Printf.sprintf "count-mismatch error (%s)" m)
        true
        (contains m "static plan simulated" && contains m "truncated run?")

let test_statdep_trisolv () =
  (* triangular nest: the non-rectangular domain encoding must make the
     forward-substitution kernel (inner trip = r) fully prunable — the
     rectangular engine managed under 5% here *)
  let module R = Workloads.Staticdep_report in
  match (R.measure ~prune:true Workloads.Polybench.trisolv).R.r_dynamic with
  | None -> Alcotest.fail "measure ~prune:true has no dynamic part"
  | Some d ->
      Alcotest.(check bool)
        (Printf.sprintf "trisolv >= 90%% pruned (%d/%d)" d.R.d_dyn_pruned
           d.R.d_dyn_mem)
        true
        (float_of_int d.R.d_dyn_pruned >= 0.9 *. float_of_int d.R.d_dyn_mem);
      Alcotest.(check bool) "pruned profile identical" true d.R.d_identical

let test_statdep_cholesky () =
  (* triangular 3-D nest (c <= r, k <= c): every access resolves over a
     non-rectangular domain, and the k-loop reduction on Ach[r,c]
     carries the same (=, =, <) anchor as gemm's C-reduction *)
  let w = Workloads.Polybench.cholesky in
  let prog = H.lower w.Workloads.Workload.hir in
  let sd, full, pruned = profile_both prog in
  Alcotest.(check (list string)) "Ach prunable" [ "Ach" ]
    (Analysis.Statdep.prunable_regions sd);
  Alcotest.(check bool) "every dynamic access skipped shadow tracking" true
    (pruned.Ddg.Depprof.statically_pruned
    = full.Ddg.Depprof.run_stats.Vm.Interp.dyn_mem_ops);
  Alcotest.(check bool) "pruned profile identical" true
    (Ddg.Depprof.equal_result full pruned);
  let module D = Sched.Depanalysis in
  Alcotest.(check bool) "found the (=, =, <) flow dependence" true
    (List.exists
       (fun (p : Analysis.Statdep.pair_dep) ->
         p.pd_kind = Ddg.Depprof.Mem_dep && p.pd_possible
         && p.pd_dirs = [| D.Dzero; D.Dzero; D.Dpos |]
         && p.pd_dists = [| Some 0; Some 0; None |])
       (Lazy.force sd.Analysis.Statdep.pairs))

(* ---------------- speculation + witness checks ---------------- *)

let profile_speculative w =
  let prog = H.lower w.Workloads.Workload.hir in
  let structure = Cfg.Cfg_builder.run prog in
  let full = Ddg.Depprof.profile prog ~structure in
  let sd, pruned, reruns =
    Analysis.Statdep.fallback_profile prog ~profile:(fun plan ->
        Ddg.Depprof.profile ~static_prune:plan prog ~structure)
  in
  (sd, full, pruned, reruns)

let test_witness_holds () =
  (* the guard in seidel_wd always fires, so the speculative plan prunes
     everything, its single witness probe holds and no rerun happens *)
  let sd, full, pruned, reruns =
    profile_speculative Workloads.Polybench.seidel_wd
  in
  Alcotest.(check int) "no witness-failure rerun" 0 reruns;
  Alcotest.(check bool) "plan carries a witness probe" true
    (sd.Analysis.Statdep.plan.Ddg.Depprof.sp_witnesses <> []);
  Alcotest.(check bool) "every dynamic access skipped shadow tracking" true
    (pruned.Ddg.Depprof.statically_pruned
    = full.Ddg.Depprof.run_stats.Vm.Interp.dyn_mem_ops);
  Alcotest.(check bool) "speculatively pruned profile identical" true
    (Ddg.Depprof.equal_result full pruned)

let test_witness_failure_fallback () =
  (* seeded witness failures: the mixed guard goes both ways (refined to
     Spec_off), the flipped guard never fires (refined to the other
     side); both must rerun deterministically and still match the
     unpruned profile bit for bit *)
  List.iter
    (fun w ->
      let _, full, pruned, reruns = profile_speculative w in
      Alcotest.(check bool)
        (w.Workloads.Workload.w_name ^ ": witness failed, fallback reran")
        true (reruns >= 1);
      Alcotest.(check bool)
        (w.Workloads.Workload.w_name ^ ": fallback profile identical")
        true
        (Ddg.Depprof.equal_result full pruned))
    [ Workloads.Polybench.seidel_wd_mixed; Workloads.Polybench.seidel_wd_skip ]

let alias_hir : H.program =
  (* the middle loop stores through a loaded index: the whole [data]
     region must fall back to dynamic tracking, while [idx] (all-affine
     accesses) stays statically prunable *)
  { H.funs =
      [ H.fundef "main" []
          [ H.for_ "k" (i 0) (i 8)
              [ store "idx" (v "k") ((v "k" *! i 3) %! i 8) ];
            H.for_ "k" (i 0) (i 8) [ store "data" ("idx".%[v "k"]) (i 1) ];
            H.for_ "k" (i 0) (i 8)
              [ store "data" (v "k") ("data".%[v "k"] +! i 1) ] ] ];
    arrays = [ ("idx", 8); ("data", 8) ];
    main = "main" }

let test_statdep_alias_fallback () =
  let prog = H.lower alias_hir in
  let sd, full, pruned = profile_both prog in
  let prunable = Analysis.Statdep.prunable_regions sd in
  Alcotest.(check bool) "idx region prunable" true (List.mem "idx" prunable);
  Alcotest.(check bool) "aliased data region not prunable" false
    (List.mem "data" prunable);
  Alcotest.(check bool) "fallback still matches the full profile" true
    (Ddg.Depprof.equal_result full pruned);
  Alcotest.(check bool) "cross-check clean" true
    (Analysis.Crosscheck.ok (Analysis.Crosscheck.check prog full))

(* random fully-affine nests: the static engine must over-approximate
   the dynamic DDG (cross-check clean) and pruning must never change
   the profile *)
let gen_affine_program seed : H.program =
  let st = Random.State.make [| seed |] in
  let rand n = Random.State.int st (max 1 n) in
  let fresh = ref 0 in
  let idx vars =
    List.fold_left
      (fun acc name ->
        if rand 3 = 0 then acc else acc +! (v name *! i (1 + rand 3)))
      (i (rand 8)) vars
  in
  let arr () = if rand 4 = 0 then "aux" else "data" in
  let rec stmts vars depth budget =
    if budget <= 0 then []
    else
      let s, cost = stmt vars depth budget in
      s :: stmts vars depth (budget - cost)
  and stmt vars depth budget =
    match if depth >= 3 then rand 3 else rand 5 with
    | 0 -> (store (arr ()) (idx vars) (i (rand 9)), 1)
    | 1 ->
        let a = arr () in
        (store a (idx vars) (a.%[idx vars] +! i (1 + rand 4)), 1)
    | 2 ->
        incr fresh;
        (H.Let (Printf.sprintf "t%d" !fresh, idx vars), 1)
    | _ ->
        incr fresh;
        let name = Printf.sprintf "k%d" !fresh in
        let body = stmts (name :: vars) (depth + 1) (budget / 2) in
        let body =
          if body = [] then [ store (arr ()) (idx (name :: vars)) (i 1) ]
          else body
        in
        (H.for_ name (i 0) (i (2 + rand 5)) body, 2 + (budget / 2))
  in
  let body = stmts [] 0 10 in
  let body = if body = [] then [ store "data" (i 0) (i 1) ] else body in
  { H.funs = [ H.fundef "main" [] body ];
    arrays = [ ("data", 64); ("aux", 64) ];
    main = "main" }

let check_affine_seed seed =
  let prog = H.lower (gen_affine_program seed) in
  let _, full, pruned = profile_both prog in
  Analysis.Crosscheck.ok (Analysis.Crosscheck.check prog full)
  && Ddg.Depprof.equal_result full pruned

let prop_affine_static_sound =
  QCheck.Test.make ~name:"static may-deps over-approximate dynamic DDG"
    ~count:40
    (QCheck.make (QCheck.Gen.int_bound 1_000_000))
    check_affine_seed

let test_affine_fixed_seeds () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d" seed)
        true (check_affine_seed seed))
    [ 1; 7; 42; 1234; 99991 ]

(* random triangular nests: inner loop bounds affine in the outer IVs
   (lower or upper), sometimes empty at runtime (lo >= hi); the
   non-rectangular engine must keep its verdicts a sound
   over-approximation of the dynamic DDG and pruning must never change
   the profile *)
let gen_triangular_program seed : H.program =
  let st = Random.State.make [| seed; 0x3a |] in
  let rand n = Random.State.int st (max 1 n) in
  let idx vars =
    List.fold_left
      (fun acc name ->
        if rand 3 = 0 then acc else acc +! (v name *! i (1 + rand 2)))
      (i (rand 8)) vars
  in
  let arr () = if rand 4 = 0 then "aux" else "data" in
  let store_stmt vars =
    if rand 2 = 0 then store (arr ()) (idx vars) (i (rand 9))
    else
      let a = arr () in
      store a (idx vars) (a.%[idx vars] +! i (1 + rand 4))
  in
  let rec nest vars depth =
    let name = Printf.sprintf "k%d" depth in
    let lo, hi =
      match vars with
      | outer :: _ when rand 2 = 0 ->
          if rand 2 = 0 then (i 0, v outer +! i (1 + rand 3))
          else (v outer, i (5 + rand 3))
      | _ -> (i 0, i (2 + rand 4))
    in
    let vars' = name :: vars in
    let body =
      store_stmt vars'
      :: (if depth < 2 && rand 2 = 0 then [ nest vars' (depth + 1) ] else [])
    in
    H.for_ name lo hi body
  in
  { H.funs = [ H.fundef "main" [] [ nest [] 0; store "data" (i 0) (i 1) ] ];
    arrays = [ ("data", 96); ("aux", 96) ];
    main = "main" }

let check_triangular_seed seed =
  let prog = H.lower (gen_triangular_program seed) in
  let _, full, pruned = profile_both prog in
  Analysis.Crosscheck.ok (Analysis.Crosscheck.check prog full)
  && Ddg.Depprof.equal_result full pruned

let prop_triangular_static_sound =
  QCheck.Test.make
    ~name:"triangular static may-deps over-approximate dynamic DDG" ~count:40
    (QCheck.make (QCheck.Gen.int_bound 1_000_000))
    check_triangular_seed

let test_triangular_fixed_seeds () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d" seed)
        true
        (check_triangular_seed seed))
    [ 2; 11; 42; 777; 31337 ]

let test_prune_equal_all_workloads () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let prog = H.lower w.Workloads.Workload.hir in
      let _, full, pruned = profile_both prog in
      Alcotest.(check bool)
        (w.w_name ^ ": pruned profile identical to unpruned") true
        (Ddg.Depprof.equal_result full pruned))
    Workloads.Runner.suite

(* ---------------- parallelism certifier ---------------- *)

module PC = Analysis.Parcheck

let parcheck_of (w : Workloads.Workload.t) =
  PC.analyse (H.lower w.Workloads.Workload.hir)

(* verdict of the single dim whose header carries [file:line] (the
   seeded kernels attach a unique source location to each loop) *)
let verdict_at pc file line =
  match
    List.filter
      (fun (d : PC.dim_report) ->
        match d.PC.dr_loc with
        | Some l -> l.P.file = file && l.P.line = line
        | None -> false)
      pc.PC.pc_dims
  with
  | [ d ] -> d.PC.dr_verdict
  | ds -> Alcotest.failf "%s:%d: expected 1 dim, got %d" file line (List.length ds)

let test_parcheck_gemm () =
  let pc = parcheck_of Workloads.Polybench.gemm in
  Alcotest.(check int) "6 chain dims" 6 (List.length pc.PC.pc_dims);
  Alcotest.(check int) "all certified" 6 (PC.n_certified pc);
  Alcotest.(check int) "no races" 0 (PC.n_races pc);
  let has_reduction =
    List.exists
      (fun (d : PC.dim_report) ->
        match d.PC.dr_verdict with
        | PC.Certified c -> c.PC.ct_reductions <> []
        | _ -> false)
      pc.PC.pc_dims
  in
  Alcotest.(check bool) "k dim certified as reduction" true has_reduction;
  let san = PC.sanitize pc in
  Alcotest.(check int) "sanitizer: no races on certified dims" 0
    (Ddg.Race_san.races_on_certified san);
  Alcotest.(check bool) "crosscheck ok" true
    (PC.crosscheck_ok (PC.crosscheck pc san))

let test_parcheck_jacobi () =
  let pc = parcheck_of Workloads.Polybench.jacobi_2d in
  Alcotest.(check int) "6 certified dims (the parallel space dims)" 6
    (PC.n_certified pc);
  let san = PC.sanitize pc in
  Alcotest.(check int) "sanitizer: no races on certified dims" 0
    (Ddg.Race_san.races_on_certified san);
  Alcotest.(check bool) "crosscheck ok" true
    (PC.crosscheck_ok (PC.crosscheck pc san))

let test_parcheck_seeded_race () =
  let pc = parcheck_of Workloads.Polybench.par_racy in
  (match verdict_at pc "par-racy.c" 5 with
  | PC.Race (w :: _) ->
      Alcotest.(check bool) "witness endpoints differ" true (w.PC.w_src <> w.PC.w_dst)
  | v -> Alcotest.failf "expected race witness, got %s" (PC.verdict_code v));
  let san = PC.sanitize pc in
  let stats =
    List.find
      (fun (s : Ddg.Race_san.claim_stats) ->
        not s.Ddg.Race_san.cs_claim.Ddg.Race_san.cl_certified)
      san.Ddg.Race_san.sr_claims
  in
  Alcotest.(check bool) "sanitizer confirms the race dynamically" true
    (stats.Ddg.Race_san.cs_n_races > 0);
  Alcotest.(check bool) "crosscheck ok (confirmed, not unsound)" true
    (PC.crosscheck_ok (PC.crosscheck pc san))

let test_parcheck_seeded_reduction () =
  let pc = parcheck_of Workloads.Polybench.par_reduction in
  (match verdict_at pc "par-reduction.c" 5 with
  | PC.Certified c ->
      Alcotest.(check bool) "non-empty reduction access set" true
        (c.PC.ct_reductions <> [])
  | v -> Alcotest.failf "expected reduction certificate, got %s" (PC.verdict_code v));
  let san = PC.sanitize pc in
  Alcotest.(check int) "sanitizer: reduction accesses covered" 0
    (Ddg.Race_san.races_on_certified san)

let test_parcheck_seeded_private () =
  let pc = parcheck_of Workloads.Polybench.par_private in
  (match verdict_at pc "par-private.c" 5 with
  | PC.Certified c ->
      Alcotest.(check bool) "non-empty private region set" true
        (c.PC.ct_private <> [])
  | v -> Alcotest.failf "expected privatisation certificate, got %s" (PC.verdict_code v));
  let san = PC.sanitize pc in
  Alcotest.(check int) "sanitizer: private scratch covered" 0
    (Ddg.Race_san.races_on_certified san)

(* the one parcheck report: the single-workload view that
   [polyprof parcheck --json] prints round-trips and pins the seeded
   race *)
let test_parcheck_report_racy () =
  let module J = Obs.Json_emit in
  let r = Workloads.Parcheck_report.measure Workloads.Polybench.par_racy in
  let doc = Workloads.Parcheck_report.workload_json r in
  Alcotest.(check bool) "view round-trips through Json_emit.parse" true
    (J.parse (J.to_string doc) = Ok doc);
  let races =
    match J.member "dims" doc with
    | Some (J.List ds) ->
        List.filter (fun d -> J.member "verdict" d = Some (J.Str "race")) ds
    | _ -> Alcotest.fail "no dims array"
  in
  (match races with
  | [ d ] ->
      Alcotest.(check bool) "race dim has a witness" true
        (match J.member "witnesses" d with
        | Some (J.Int n) -> n >= 1
        | _ -> false)
  | ds -> Alcotest.failf "expected 1 race dim, got %d" (List.length ds));
  Alcotest.(check bool) "crosscheck_ok" true
    (J.member "crosscheck_ok" doc = Some (J.Bool true))

(* the suite gates, on hand-built rows (no profiling) *)
let test_report_checks () =
  let module S = Workloads.Staticdep_report in
  let sd_row ~pruned ~identical =
    { S.r_name = "w";
      r_accesses = 1;
      r_resolved = 1;
      r_pruned = 1;
      r_regions = [];
      r_pairs = 0;
      r_possible = 0;
      r_dynamic =
        Some
          { S.d_dyn_mem = 1000;
            d_dyn_pruned = pruned;
            d_full_s = 0.;
            d_pruned_s = 0.;
            d_trace_bytes = 0;
            d_elided_bytes = 0;
            d_witnesses = 0;
            d_reruns = 0;
            d_identical = identical } }
  in
  let fails check rows = List.length (check rows) in
  Alcotest.(check int) "staticdep: 60% identical passes" 0
    (fails S.check [ sd_row ~pruned:600 ~identical:true ]);
  Alcotest.(check int) "staticdep: divergent row fails" 1
    (fails S.check [ sd_row ~pruned:600 ~identical:false ]);
  Alcotest.(check int) "staticdep: 49.9% pruned fails" 1
    (fails S.check [ sd_row ~pruned:499 ~identical:true ]);
  let module P = Workloads.Parcheck_report in
  let dim i =
    { PC.dr_fid = 0;
      dr_header = i;
      dr_loc = None;
      dr_depth = 0;
      dr_verdict =
        PC.Certified
          { PC.ct_level = 0; ct_pairs = 1; ct_private = []; ct_reductions = [] }
    }
  in
  let claim races =
    { Ddg.Race_san.cs_claim =
        { Ddg.Race_san.cl_fid = 0;
          cl_header = 0;
          cl_label = "f0.b0";
          cl_certified = true;
          cl_private = [];
          cl_reductions = [] };
      cs_instances = 1;
      cs_iterations = 4;
      cs_covered = 0;
      cs_races = [];
      cs_n_races = races }
  in
  let pc_row ~certified ~races =
    { P.r_name = "w";
      r_dims = List.init certified dim;
      r_static_s = 0.;
      r_dynamic =
        Some
          { P.d_sanitizer =
              { Ddg.Race_san.sr_claims = [ claim races ]; sr_accesses = 8 };
            d_diags = [];
            d_seconds = 0. } }
  in
  Alcotest.(check int) "parcheck: 5 certified, sound passes" 0
    (fails P.check [ pc_row ~certified:5 ~races:0 ]);
  Alcotest.(check int) "parcheck: 4 certified fails" 1
    (fails P.check [ pc_row ~certified:4 ~races:0 ]);
  Alcotest.(check int) "parcheck: race on a certified dim fails" 1
    (fails P.check [ pc_row ~certified:5 ~races:1 ])

(* random single-loop reduction nests: [S[0] <- S[0] op A[a*r+b] ...]
   must always certify with a non-empty reduction set, and the
   sanitizer must agree (no uncovered dynamic race) *)
let gen_reduction_program seed : H.program =
  let st = Random.State.make [| seed; 0x5d |] in
  let rand n = Random.State.int st (max 1 n) in
  let n = 4 + rand 12 in
  let addr = (v "r" *! i (1 + rand 2)) +! i (rand 4) in
  let combine =
    let t = v "a" *! v "a" in
    if rand 2 = 0 then v "acc" +! t else v "acc" *! t
  in
  let body =
    [ H.Let ("a", "A".%[addr]);
      H.Let ("acc", "S".%[i 0]);
      store "S" (i 0) combine ]
  in
  { H.funs = [ H.fundef "main" [] [ H.for_ "r" (i 0) (i n) body ] ];
    arrays = [ ("A", 64); ("S", 1) ];
    main = "main" }

let check_reduction_seed seed =
  let prog = H.lower (gen_reduction_program seed) in
  let pc = PC.analyse prog in
  let certified_with_reduction =
    List.for_all
      (fun (d : PC.dim_report) ->
        match d.PC.dr_verdict with
        | PC.Certified c -> c.PC.ct_reductions <> []
        | _ -> false)
      pc.PC.pc_dims
  in
  let san = PC.sanitize pc in
  certified_with_reduction
  && pc.PC.pc_dims <> []
  && Ddg.Race_san.races_on_certified san = 0
  && PC.crosscheck_ok (PC.crosscheck pc san)

let prop_reduction_certifies =
  QCheck.Test.make ~name:"injected reduction idioms always certify" ~count:40
    (QCheck.make (QCheck.Gen.int_bound 1_000_000))
    check_reduction_seed

(* random seeded races: [A[r] <- A[r-d] + c] carries a true dependence
   at distance d >= 1 -- the certifier must produce a race witness and
   never a certificate, and the sanitizer must observe it *)
let gen_racy_program seed : H.program =
  let st = Random.State.make [| seed; 0x7b |] in
  let rand n = Random.State.int st (max 1 n) in
  let d = 1 + rand 3 in
  let n = d + 4 + rand 12 in
  let body =
    [ H.Let ("p", "A".%[v "r" -! i d]);
      store "A" (v "r") (v "p" +! i 1) ]
  in
  { H.funs = [ H.fundef "main" [] [ H.for_ "r" (i d) (i n) body ] ];
    arrays = [ ("A", 64) ];
    main = "main" }

let check_racy_seed seed =
  let prog = H.lower (gen_racy_program seed) in
  let pc = PC.analyse prog in
  let raced =
    List.for_all
      (fun (d : PC.dim_report) ->
        match d.PC.dr_verdict with
        | PC.Race (_ :: _) -> true
        | _ -> false)
      pc.PC.pc_dims
  in
  let san = PC.sanitize pc in
  raced
  && pc.PC.pc_dims <> []
  && PC.n_certified pc = 0
  && Ddg.Race_san.races_on_certified san = 0
  && PC.crosscheck_ok (PC.crosscheck pc san)

let prop_seeded_race_never_certifies =
  QCheck.Test.make ~name:"seeded races yield a witness, never a certificate"
    ~count:40
    (QCheck.make (QCheck.Gen.int_bound 1_000_000))
    check_racy_seed

(* ---------------- whole-workload sweep ---------------- *)

let test_sweep_all_workloads () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let e =
        Analysis.Lint.of_hir ~name:w.w_name ~profile:true w.Workloads.Workload.hir
      in
      Alcotest.(check int)
        (w.w_name ^ ": no verifier/analysis errors") 0
        (Analysis.Diag.count Analysis.Diag.Error e.Analysis.Lint.e_diags);
      Alcotest.(check int)
        (w.w_name ^ ": no warnings") 0
        (Analysis.Diag.count Analysis.Diag.Warning e.Analysis.Lint.e_diags);
      match e.Analysis.Lint.e_xcheck with
      | None -> Alcotest.failf "%s: cross-check did not run" w.w_name
      | Some r ->
          Alcotest.(check int)
            (w.w_name ^ ": no cross-check violations") 0
            (List.length r.Analysis.Crosscheck.violations))
    Workloads.Runner.suite

let test_runner_carries_lint () =
  let w = Workloads.Rodinia.find "hotspot" in
  let o = Workloads.Runner.run ~crosscheck:true w in
  match o.Workloads.Runner.lint with
  | None -> Alcotest.fail "runner did not attach a lint entry"
  | Some e ->
      Alcotest.(check bool) "lint passes" true (Analysis.Lint.passed e);
      Alcotest.(check bool) "cross-check ran on the runner's profile" true
        (e.Analysis.Lint.e_xcheck <> None)

let () =
  Alcotest.run "analysis"
    [ ( "verifier",
        [ Alcotest.test_case "builder rejects bad branch target" `Quick
            test_builder_rejects_bad_target;
          Alcotest.test_case "builder rejects unterminated block" `Quick
            test_builder_rejects_unterminated;
          Alcotest.test_case "builder rejects call-arity mismatch" `Quick
            test_builder_rejects_bad_arity;
          Alcotest.test_case "jump out of range" `Quick test_verify_struct_error;
          Alcotest.test_case "register index out of range" `Quick
            test_verify_reg_out_of_range;
          Alcotest.test_case "unreachable block" `Quick test_verify_unreachable;
          Alcotest.test_case "ret in main" `Quick test_verify_ret_in_main ] );
      ( "initdef",
        [ Alcotest.test_case "conditional init flagged" `Quick
            test_initdef_catches_conditional_init;
          Alcotest.test_case "params arrive assigned" `Quick
            test_initdef_params_arrive_assigned ] );
      ( "liveness",
        [ Alcotest.test_case "dead store flagged" `Quick
            test_liveness_dead_store;
          Alcotest.test_case "loop-carried liveness" `Quick
            test_liveness_across_blocks ] );
      ( "affine",
        [ Alcotest.test_case "2-D nest with range" `Quick test_affine_2d_nest;
          Alcotest.test_case "indirect accesses are F/P" `Quick
            test_affine_indirect_is_nonaffine;
          Alcotest.test_case "interprocedural constants" `Quick
            test_affine_interprocedural_constants ] );
      ( "crosscheck",
        [ Alcotest.test_case "clean profile + seeded violation" `Quick
            test_crosscheck_clean_and_seeded_violation ] );
      ( "lints",
        [ Alcotest.test_case "W-deadcode constant branch" `Quick
            test_lint_deadcode;
          Alcotest.test_case "W-redundant-load in block" `Quick
            test_lint_redundant_load ] );
      ( "statdep",
        [ Alcotest.test_case "gemm fully resolved + (=,=,<)" `Quick
            test_statdep_gemm;
          Alcotest.test_case "profiling leaves pair summaries unbuilt" `Quick
            test_statdep_profile_skips_pairs;
          Alcotest.test_case "truncated run fails the plan count check" `Quick
            test_statdep_truncated_run;
          Alcotest.test_case "seeded alias forces dynamic fallback" `Quick
            test_statdep_alias_fallback;
          Alcotest.test_case "trisolv triangular nest >= 90% pruned" `Quick
            test_statdep_trisolv;
          Alcotest.test_case "cholesky fully resolved + (=,=,<)" `Quick
            test_statdep_cholesky;
          Alcotest.test_case "witness holds on seidel_wd" `Quick
            test_witness_holds;
          Alcotest.test_case "witness failure falls back bit-exact" `Quick
            test_witness_failure_fallback;
          Alcotest.test_case "affine fixed seeds" `Quick
            test_affine_fixed_seeds;
          Alcotest.test_case "triangular fixed seeds" `Quick
            test_triangular_fixed_seeds;
          QCheck_alcotest.to_alcotest prop_affine_static_sound;
          QCheck_alcotest.to_alcotest prop_triangular_static_sound;
          Alcotest.test_case "pruned == unpruned on every workload" `Slow
            test_prune_equal_all_workloads ] );
      ( "parcheck",
        [ Alcotest.test_case "gemm fully certified (k as reduction)" `Quick
            test_parcheck_gemm;
          Alcotest.test_case "jacobi_2d space dims certified" `Quick
            test_parcheck_jacobi;
          Alcotest.test_case "seeded race: witness + dynamic confirm" `Quick
            test_parcheck_seeded_race;
          Alcotest.test_case "seeded reduction certificate" `Quick
            test_parcheck_seeded_reduction;
          Alcotest.test_case "seeded privatisation certificate" `Quick
            test_parcheck_seeded_private;
          Alcotest.test_case "par_racy report: JSON view" `Quick
            test_parcheck_report_racy;
          Alcotest.test_case "report gates on hand-built rows" `Quick
            test_report_checks;
          QCheck_alcotest.to_alcotest prop_reduction_certifies;
          QCheck_alcotest.to_alcotest prop_seeded_race_never_certifies ] );
      ( "polly-agreement",
        [ Alcotest.test_case "figure 3" `Quick test_agreement_figure3;
          Alcotest.test_case "rodinia kernels" `Quick test_agreement_rodinia ] );
      ( "sweep",
        [ Alcotest.test_case "all workloads lint clean" `Slow
            test_sweep_all_workloads;
          Alcotest.test_case "runner cross-check integration" `Quick
            test_runner_carries_lint ] ) ]
