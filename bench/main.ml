(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (PPoPP 2019, "Data-Flow/Dependence Profiling for Structured
   Transformations").

   - Tables 1 & 2 (+ Fig. 6): raw dependence stream of bpnn_layerforward
     and its folded polyhedral form.
   - Table 3: backprop case study - feedback + measured interchange
     speedups (Bechamel, this machine).
   - Table 4: GemsFDTD case study - tiling feedback + measured speedups.
   - Table 5: the full mini-Rodinia summary, measured vs. paper.
   - Fig. 7: annotated flame graph for backprop (SVG + ASCII).
   - Section 8 overhead: instrumentation slowdown over native execution.

   Absolute numbers differ from the paper (the substrate is MiniVM, the
   machine is not the authors' Xeon); the comparison targets are the
   shapes: who wins, what is suggested, which reasons block Polly. *)

open Bechamel
open Bechamel.Toolkit

let section title =
  Format.printf "@.=======================================================@.";
  Format.printf "== %s@." title;
  Format.printf "=======================================================@."

(* ------------------------------------------------------------------ *)
(* Bechamel helper: nanoseconds per run                                *)
(* ------------------------------------------------------------------ *)

let time_ns ~name fn =
  let test = Test.make ~name (Staged.stage fn) in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  match Hashtbl.fold (fun _ v acc -> v :: acc) results [] with
  | v :: _ -> (
      match Analyze.OLS.estimates v with
      | Some (e :: _) -> e
      | _ -> nan)
  | [] -> nan

(* ------------------------------------------------------------------ *)
(* Tables 1 & 2: dependency stream and folded dependences (Fig. 6)     *)
(* ------------------------------------------------------------------ *)

(* the Fig. 6 kernel at the paper's size: n2 = 16, n1 = 42 *)
let fig6_hir : Vm.Hir.program =
  let open Vm.Hir.Dsl in
  let module H = Vm.Hir in
  let n1 = 42 and n2 = 16 in
  { H.funs =
      Workloads.Workload.libm
      @ [ H.fundef "bpnn_layerforward" [ "l1"; "l2"; "conn"; "n1"; "n2" ]
            [ H.Store (v "l1", f 1.0);
              H.for_ ~loc:(Workloads.Workload.loc "backprop.c" 253) "j" (i 1)
                (v "n2" +! i 1)
                [ H.Let ("sum", f 0.0);
                  H.for_ ~loc:(Workloads.Workload.loc "backprop.c" 254) "k"
                    (i 0) (v "n1" +! i 1)
                    [ H.Let ("tmp1", load (v "conn" +! v "k"));
                      H.Let ("tmp2", load (v "tmp1" +! v "j"));
                      H.Let ("tmp3", load (v "l1" +! v "k"));
                      H.Let ("sum", v "sum" +? (v "tmp2" *? v "tmp3")) ];
                  H.CallS (Some "sq", "squash", [ v "sum" ]);
                  H.Store (v "l2" +! v "j", v "sq") ] ];
          H.fundef "main" []
            (Workloads.Workload.init_float_array "l1v" (n1 + 1)
            @ Workloads.Workload.init_float_array "rows" ((n1 + 1) * (n2 + 1))
            @ [ (* conn is a row-pointer table, exactly like Fig. 6's
                   two-level array *)
                Workloads.Workload.init_int_array "connp" (n1 + 1) (fun t ->
                    base "rows" +! (t *! i (n2 + 1)));
                H.CallS
                  ( None, "bpnn_layerforward",
                    [ base "l1v"; base "l2v"; base "connp"; i n1; i n2 ] ) ]) ];
    arrays =
      [ ("l1v", n1 + 1); ("l2v", n2 + 1); ("rows", (n1 + 1) * (n2 + 1));
        ("connp", n1 + 1) ];
    main = "main" }

let tables_1_and_2 () =
  section "Tables 1 & 2: dependency stream of bpnn_layerforward (Fig. 6)";
  let prog = Vm.Hir.lower fig6_hir in
  let kernel_fid = (Vm.Prog.func_by_name prog "bpnn_layerforward").Vm.Prog.fid in
  (* Table 1: tap the raw dependence stream with a bespoke pass built
     from the public Instrumentation-II pieces *)
  let tap structure tee =
    let iiv = Ddg.Iiv.create () in
    let levents = Ddg.Loop_events.create structure ~main:prog.Vm.Prog.main in
    let shadow = Ddg.Shadow.create () in
    let samples : (string, (int array * int array) list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let emit = Ddg.Iiv.update iiv in
    Ddg.Loop_events.start levents ~emit;
    let on_control ev =
      (match ev with
      | Vm.Event.Call _ -> Ddg.Shadow.push_frame shadow
      | Vm.Event.Return _ -> Ddg.Shadow.pop_frame shadow
      | Vm.Event.Jump _ -> ());
      Ddg.Loop_events.feed levents ~emit ev
    in
    (* shadow tags are the producer's sid *)
    let on_exec (e : Vm.Event.exec) =
      let coords = Ddg.Iiv.coords iiv in
      let record tag src_coords =
        if
          tag >= 0
          && Vm.Isa.Sid.fid e.sid = kernel_fid
          && Vm.Isa.Sid.fid tag = kernel_fid
          && Array.length src_coords = 2
          && Array.length coords = 2
        then begin
          let key =
            Printf.sprintf "I%d -> I%d"
              (Vm.Isa.Sid.idx tag + 1)
              (Vm.Isa.Sid.idx e.sid + 1)
          in
          let cell =
            match Hashtbl.find_opt samples key with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.add samples key r;
                r
          in
          cell := (coords, src_coords) :: !cell
        end
      in
      List.iter
        (fun reg ->
          record (Ddg.Shadow.reg_tag shadow ~reg) (Ddg.Shadow.reg_coords shadow ~reg))
        e.reads;
      (match e.addr_read with
      | Some addr ->
          record (Ddg.Shadow.mem_tag shadow ~addr) (Ddg.Shadow.mem_coords shadow ~addr)
      | None -> ());
      (match e.addr_written with
      | Some addr -> Ddg.Shadow.write_mem shadow ~addr ~tag:e.sid ~coords
      | None -> ());
      match e.writes with
      | Some reg -> Ddg.Shadow.write_reg shadow ~reg ~tag:e.sid ~coords
      | None -> ()
    in
    let (_ : Vm.Interp.stats) =
      Vm.Interp.run ~callbacks:(tee { Vm.Interp.on_control; on_exec }) prog
    in
    samples
  in
  let samples, _, _ = Cfg.Cfg_builder.speculate prog tap in
  Format.printf
    "Table 1 (input dependency stream; first samples per dependence):@.";
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) samples []) in
  List.iter
    (fun key ->
      let all = List.rev !(Hashtbl.find samples key) in
      Format.printf "  %s   (%d dynamic edges)@." key (List.length all);
      List.iteri
        (fun k (c, p) ->
          if k < 3 then
            Format.printf "    (cj,ck) = %s   <- (cj',ck') = %s@."
              (Pp_util.Vecint.to_string c) (Pp_util.Vecint.to_string p))
        all)
    keys;
  (* Table 2: the folded output, straight from the pipeline *)
  Format.printf "@.Table 2 (folded dependences of the kernel):@.";
  let res = Ddg.Depprof.profile prog in
  List.iter
    (fun (d : Ddg.Depprof.dep_info) ->
      if
        Vm.Isa.Sid.fid d.dk.src_sid = kernel_fid
        && Vm.Isa.Sid.fid d.dk.dst_sid = kernel_fid
        && d.dst_depth = 2 && d.src_depth = 2
      then begin
        Format.printf "  I%d -> I%d:@."
          (Vm.Isa.Sid.idx d.dk.src_sid + 1)
          (Vm.Isa.Sid.idx d.dk.dst_sid + 1);
        List.iter
          (fun p ->
            Format.printf "    %a@."
              (Fold.pp_piece ~names:[| "cj"; "ck" |]
                 ~label_names:[| "cj'"; "ck'" |])
              p)
          d.d_pieces
      end)
    res.Ddg.Depprof.deps;
  Format.printf
    "@.(SCEV recognition pruned %d of %d dynamic dependence edges)@."
    res.Ddg.Depprof.pruned_dep_edges res.Ddg.Depprof.total_dep_edges

(* ------------------------------------------------------------------ *)
(* Table 3: backprop case study                                        *)
(* ------------------------------------------------------------------ *)

let table_3 () =
  section "Table 3: backprop case study";
  let o = Workloads.Runner.run Workloads.Backprop.workload in
  (match o.pipeline with
  | Some t ->
      Format.printf "%a@." (Sched.Feedback.render ?fname:None) t.Polyprof.feedback
  | None -> Format.printf "(pipeline bailed out?)@.");
  (* measured speedups of the suggested interchange, like the paper's
     GFlop/s comparison on its Xeon *)
  let n1 = 32768 and n2 = 16 in
  let inst = Kernels.Backprop_kernels.create ~n1 ~n2 in
  let t_lf_orig =
    time_ns ~name:"layerforward-original" (fun () ->
        Kernels.Backprop_kernels.layerforward_original inst)
  in
  let t_lf_int =
    time_ns ~name:"layerforward-interchanged" (fun () ->
        Kernels.Backprop_kernels.layerforward_interchanged inst)
  in
  let t_aw_orig =
    time_ns ~name:"adjust-original" (fun () ->
        Kernels.Backprop_kernels.adjust_original inst)
  in
  let t_aw_int =
    time_ns ~name:"adjust-interchanged" (fun () ->
        Kernels.Backprop_kernels.adjust_interchanged inst)
  in
  Format.printf
    "measured on this machine (n1=%d, n2=%d):@.\
    \  bpnn_layerforward : %.0f ns -> %.0f ns  (speedup %.2fx; paper: 5.3x \
     on a Xeon)@.\
    \  bpnn_adjust_weights: %.0f ns -> %.0f ns  (speedup %.2fx; paper: 7.8x)@."
    n1 n2 t_lf_orig t_lf_int (t_lf_orig /. t_lf_int) t_aw_orig t_aw_int
    (t_aw_orig /. t_aw_int)

(* ------------------------------------------------------------------ *)
(* Table 4: GemsFDTD case study                                        *)
(* ------------------------------------------------------------------ *)

let table_4 () =
  section "Table 4: GemsFDTD case study";
  let o = Workloads.Runner.run Workloads.Gems_fdtd.workload in
  (match o.pipeline with
  | Some t -> Format.printf "%a@." (Sched.Feedback.render ?fname:None) t.Polyprof.feedback
  | None -> Format.printf "(pipeline bailed out?)@.");
  let n = 256 in
  let inst = Kernels.Gems_kernels.create ~n in
  let t_orig =
    time_ns ~name:"gems-update-original" (fun () ->
        Kernels.Gems_kernels.update_original inst)
  in
  let t_tiled =
    time_ns ~name:"gems-update-tiled" (fun () ->
        Kernels.Gems_kernels.update_tiled ~tile:12 inst)
  in
  Format.printf
    "measured on this machine (n=%d):@.\
    \  update kernel: %.0f ns -> %.0f ns  (speedup %.2fx; paper: 2.6x / 1.9x \
     with OMP wavefront)@."
    n t_orig t_tiled (t_orig /. t_tiled)

(* ------------------------------------------------------------------ *)
(* Table 5: Rodinia summary                                            *)
(* ------------------------------------------------------------------ *)

let table_5 () =
  section "Table 5: mini-Rodinia summary (measured, with paper reference rows)";
  let results = Workloads.Runner.run_all () in
  print_string (Workloads.Runner.table5_with_paper results);
  (* Experiment II summary *)
  Format.printf
    "@.Experiment II (static Polly baseline): failure reasons per benchmark@.";
  List.iter
    (fun ((w : Workloads.Workload.t), (o : Workloads.Runner.outcome)) ->
      Format.printf "  %-14s measured %-7s paper %-7s %s@." w.w_name
        (Staticbase.Polly_lite.reasons_string o.polly)
        (match w.paper with Some p -> p.p_polly | None -> "?")
        (if
           match w.paper with
           | Some p -> Staticbase.Polly_lite.reasons_string o.polly = p.p_polly
           | None -> false
         then "[match]"
         else "[differs]"))
    results

(* ------------------------------------------------------------------ *)
(* Case studies, closed loop: apply the feedback and verify it         *)
(* ------------------------------------------------------------------ *)

let casestudy_verify () =
  section
    "Case studies I & II, closed loop: apply the suggested schedules and \
     verify them differentially";
  let detailed =
    [ Workloads.Backprop.workload; Workloads.Gems_fdtd.workload ]
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let s = Polyprof.apply_and_verify ~name:w.w_name w.hir in
      Format.printf "%a@." Xform.Driver.pp_summary s)
    detailed;
  Format.printf
    "@.Suite-wide summary (every benchmark, every suggested plan):@.";
  let results = Workloads.Runner.run_all ~xverify:true () in
  print_string (Workloads.Runner.verify_table results)

(* ------------------------------------------------------------------ *)
(* Fig. 7: annotated flame graph                                        *)
(* ------------------------------------------------------------------ *)

let fig_7 () =
  section "Fig. 7: annotated flame graph for backprop";
  let t = Polyprof.run_hir Workloads.Backprop.workload.Workloads.Workload.hir in
  let path = "docs/fig7_backprop.svg" in
  (if not (Sys.file_exists "docs") then
     try Sys.mkdir "docs" 0o755 with Sys_error _ -> ());
  let annot = Report.Flamegraph.annot_of_analysis t.Polyprof.prog t.Polyprof.analysis in
  Report.Flamegraph.write_svg ~path ~annot
    ~name:(Polyprof.ctx_name t) t.Polyprof.profile.Ddg.Depprof.stree;
  Format.printf "SVG written to %s@.ASCII rendering:@.%s@." path
    (Polyprof.flamegraph_ascii ~width:40 t)

(* ------------------------------------------------------------------ *)
(* Pipeline micro-benchmarks (Bechamel)                                 *)
(* ------------------------------------------------------------------ *)

let perf () =
  section "Pipeline micro-benchmarks";
  let backprop = Vm.Hir.lower Workloads.Backprop.workload.Workloads.Workload.hir in
  let structure = Cfg.Cfg_builder.run backprop in
  let t_interp =
    time_ns ~name:"interp-backprop" (fun () ->
        ignore (Vm.Interp.run backprop))
  in
  let t_instr1 =
    time_ns ~name:"instrumentation-I" (fun () ->
        ignore (Cfg.Cfg_builder.run backprop))
  in
  let t_instr2 =
    time_ns ~name:"instrumentation-II+fold" (fun () ->
        ignore (Ddg.Depprof.profile backprop ~structure))
  in
  (* folding throughput on a 10k-point triangle *)
  let tri_points =
    let pts = ref [] in
    for i = 0 to 140 do
      for j = 0 to i do
        pts := ([| i; j |], [| (17 * i) + j |]) :: !pts
      done
    done;
    List.rev !pts
  in
  let t_fold =
    time_ns ~name:"fold-10k-triangle" (fun () ->
        ignore (Fold.fold_points ~dim:2 ~label_dim:1 tri_points))
  in
  (* FM vs LP bounds on a 3-D triangle-ish polyhedron *)
  let p3 =
    Minisl.Polyhedron.make 3
      [ Minisl.Constr.make Ge [| 1; 0; 0 |] 0;
        Minisl.Constr.make Ge [| -1; 0; 0 |] 50;
        Minisl.Constr.make Ge [| 1; -1; 0 |] 0;
        Minisl.Constr.make Ge [| 0; 1; 0 |] 0;
        Minisl.Constr.make Ge [| 0; 1; -1 |] 0;
        Minisl.Constr.make Ge [| 0; 0; 1 |] 0 ]
  in
  let obj = Minisl.Affine.of_int_coeffs [| 1; -2; 3 |] 0 in
  let t_fm =
    time_ns ~name:"bounds-FM" (fun () -> ignore (Minisl.Polyhedron.bounds p3 obj))
  in
  let t_lp =
    time_ns ~name:"bounds-LP" (fun () ->
        ignore
          ( Minisl.Polyhedron.minimize p3 obj,
            Minisl.Polyhedron.maximize p3 obj ))
  in
  let n_ops = float_of_int (Vm.Interp.run backprop).Vm.Interp.dyn_instrs in
  Format.printf "interpreter            : %8.0f ns/run (%.0f Mops/s)@." t_interp
    (n_ops /. t_interp *. 1e3);
  Format.printf "instrumentation I      : %8.0f ns/run@." t_instr1;
  Format.printf "instrumentation II+fold: %8.0f ns/run (%.1fx the plain run)@."
    t_instr2 (t_instr2 /. t_interp);
  Format.printf "fold 10k-point triangle: %8.0f ns/run@." t_fold;
  Format.printf "bounds, 3-D, FM        : %8.0f ns@." t_fm;
  Format.printf "bounds, 3-D, LP        : %8.0f ns@." t_lp

(* ------------------------------------------------------------------ *)
(* Section 8: profiling overhead                                        *)
(* ------------------------------------------------------------------ *)

let overhead () =
  section "Section 8: profiling overhead (paper: 3h06' CPU for the suite)";
  let measured = List.map Workloads.Overhead.measure Workloads.Rodinia.all in
  let total mode =
    List.fold_left
      (fun acc (o : Workloads.Overhead.t) ->
        List.fold_left
          (fun acc (r : Workloads.Overhead.row) ->
            if r.r_mode = mode then acc +. r.r_seconds else acc)
          acc o.o_rows)
      0.0 measured
  in
  let total_plain = total "native" and total_prof = total "instrumented" in
  Format.printf
    "uninstrumented MiniVM execution of the suite: %.2fs@.\
     instrumentation I+II (CFG recovery + DDG profiling + folding): %.2fs@.\
     slowdown factor: %.1fx@."
    total_plain total_prof
    (total_prof /. max 1e-9 total_plain)

(* ------------------------------------------------------------------ *)
(* Fig. 5a: schedule tree vs calling-context tree                       *)
(* ------------------------------------------------------------------ *)

let fig_5 () =
  section "Fig. 5a: dynamic schedule tree vs calling-context tree";
  Format.printf
    "The CCT encodes calling contexts but no loops; its depth grows with \
     recursion.@.The dynamic schedule tree folds recursion into loop \
     dimensions.@.@.";
  let header = [ "benchmark"; "CCT depth"; "CCT nodes"; "stree depth"; "stree nodes" ] in
  let row name hir =
    let prog = Vm.Hir.lower hir in
    let res = Ddg.Depprof.profile prog in
    let cct = Ddg.Cct.create ~main:prog.Vm.Prog.main in
    let (_ : Vm.Interp.stats) =
      Vm.Interp.run prog
        ~callbacks:{ Vm.Interp.on_control = Ddg.Cct.on_control cct; on_exec = ignore }
    in
    [ name;
      string_of_int (Ddg.Cct.max_depth cct);
      string_of_int (Ddg.Cct.n_nodes cct);
      string_of_int (Ddg.Sched_tree.depth res.Ddg.Depprof.stree);
      string_of_int (Ddg.Sched_tree.n_nodes res.Ddg.Depprof.stree) ]
  in
  let rows =
    List.map
      (fun (w : Workloads.Workload.t) -> row w.w_name w.hir)
      [ Workloads.Backprop.workload; Workloads.Heartwall.workload;
        Workloads.Cfd.workload; Workloads.Lud.workload ]
    (* and the recursive example, where the contrast is the point *)
    @ [ row "fig3-ex2 (recursive)" Workloads.Figure3.ex2 ]
  in
  print_string (Report.Texttable.render ~header rows)

(* ------------------------------------------------------------------ *)
(* Ablations: the folding design choices DESIGN.md calls out           *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablations: folding design choices";
  let variants =
    [ ("full folding", Ddg.Depprof.default_config);
      ( "no boundary splits",
        { Ddg.Depprof.default_config with boundary_splits = false } );
      ( "all-or-nothing labels",
        { Ddg.Depprof.default_config with per_component_labels = false } );
      ( "no SCEV pruning",
        { Ddg.Depprof.default_config with scev_prune = false } );
      ( "max_pieces = 2",
        { Ddg.Depprof.default_config with max_pieces = 2 } ) ]
  in
  let benches =
    [ Workloads.Backprop.workload; Workloads.Lavamd.workload;
      Workloads.Srad.v2; Workloads.Bfs.workload ]
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      Format.printf "@.%s:@." w.w_name;
      let prog = Vm.Hir.lower w.hir in
      let header =
        [ "variant"; "%Aff"; "dep rels"; "exact deps"; "TileD"; "%||ops" ]
      in
      let rows =
        List.map
          (fun (name, config) ->
            let res = Ddg.Depprof.profile ~config prog in
            let analysis = Sched.Depanalysis.analyse prog res in
            let row =
              Sched.Metrics.compute ~name:w.w_name
                ~ld_src:(Workloads.Workload.src_loop_depth w.hir)
                ~fusion_strategy:w.fusion prog res analysis
            in
            let exact_deps =
              List.length
                (List.filter
                   (fun (d : Sched.Depanalysis.dep_ext) -> not d.approx)
                   analysis.Sched.Depanalysis.deps)
            in
            [ name;
              Printf.sprintf "%.0f%%" row.Sched.Metrics.aff_pct;
              string_of_int (List.length res.Ddg.Depprof.deps);
              string_of_int exact_deps;
              Printf.sprintf "%dD" row.Sched.Metrics.tile_depth;
              Printf.sprintf "%.0f%%" row.Sched.Metrics.par_ops_pct ])
          variants
      in
      print_string (Report.Texttable.render ~header rows))
    benches

(* ------------------------------------------------------------------ *)
(* BENCH_<section>.json documents and their perf history               *)
(* ------------------------------------------------------------------ *)

let json_out = ref false
let record_history = ref false

(* write BENCH_<name>.json only when its content changed modulo
   generated_utc (so reruns diff clean), and append the flattened
   metrics to the perf history when --record was given *)
let emit_bench name doc =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let wrote = Obs.Json_emit.write_file_stable ~pretty:true path doc in
  Format.printf "%s %s@." (if wrote then "wrote" else "unchanged") path;
  if !record_history then begin
    Obs.Perfhist.record ~dir:(Filename.concat "bench" "history") ~bench:name doc;
    Format.printf "recorded %s into bench/history/%s.jsonl@." name name
  end

(* a report section's gate: print every failure and exit nonzero *)
let gate name failures =
  List.iter (fun f -> Format.printf "FAIL %s: %s@." name f) failures;
  if failures <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* lib/analysis: static dependence engine + instrumentation pruning     *)
(* ------------------------------------------------------------------ *)

let staticdep_bench () =
  section
    "lib/analysis: static polyhedral dependences + instrumentation pruning";
  let module R = Workloads.Staticdep_report in
  let rows = List.map (R.measure ~prune:true) Workloads.Runner.suite in
  print_string (R.table rows);
  if !json_out then emit_bench "staticdep" (R.json rows);
  gate "staticdep" (R.check rows)

(* ------------------------------------------------------------------ *)
(* lib/obs: self-profiling telemetry over the whole workload suite      *)
(* ------------------------------------------------------------------ *)

let obs_bench () =
  section "lib/obs: self-profiling telemetry (spans + metrics)";
  let ws =
    [ Workloads.Backprop.workload; Workloads.Gems_fdtd.workload ]
    @ Workloads.Polybench.all
  in
  Obs.Registry.enable ();
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  List.iter
    (fun (w : Workloads.Workload.t) ->
      ignore (Workloads.Runner.run w))
    ws;
  let roots = Obs.Span.roots () in
  let metrics = Obs.Metrics.snapshot () in
  Obs.Registry.disable ();
  print_string (Report.Obs_report.summary ~metrics roots);
  if !json_out then
    emit_bench "obs"
      (Report.Obs_report.json
         ~workloads:(List.map (fun (w : Workloads.Workload.t) -> w.w_name) ws)
         ~metrics roots)

(* ------------------------------------------------------------------ *)
(* lib/tune: autotuning beam search over the suite                      *)
(* ------------------------------------------------------------------ *)

let autotune_bench () =
  section "lib/tune: verified beam search over the schedule space";
  let config = Tune.Search.default in
  let results = Workloads.Runner.autotune_all ~config () in
  print_string (Workloads.Runner.autotune_table results);
  let improved = Tune.Tune_report.improved results in
  Format.printf
    "@.%d of %d workloads got a verified non-identity schedule beating \
     identity by >= %.0f%%@."
    improved (List.length results)
    ((config.Tune.Search.margin -. 1.0) *. 100.);
  if !json_out then
    emit_bench "autotune" (Tune.Tune_report.suite_json ~config results);
  gate "autotune" (Tune.Tune_report.check results)

(* ------------------------------------------------------------------ *)
(* lib/analysis: parallelism certifier + dynamic race sanitizer         *)
(* ------------------------------------------------------------------ *)

let parcheck_bench () =
  section "lib/analysis: parallelism certifier + dynamic race sanitizer";
  let module R = Workloads.Parcheck_report in
  let rows =
    List.map R.measure (Workloads.Runner.suite @ Workloads.Polybench.seeded)
  in
  print_string (R.table rows);
  if !json_out then emit_bench "parcheck" (R.json rows);
  gate "parcheck" (R.check rows)

let () =
  let sections =
    [ ("table1-2", tables_1_and_2); ("table3", table_3); ("table4", table_4);
      ("table5", table_5); ("casestudy-verify", casestudy_verify);
      ("fig5", fig_5); ("fig7", fig_7);
      ("ablation", ablation); ("perf", perf); ("overhead", overhead);
      ("staticdep", staticdep_bench);
      ("obs", obs_bench); ("autotune", autotune_bench);
      ("parcheck", parcheck_bench) ]
  in
  let argv = Array.to_list Sys.argv in
  json_out := List.mem "--json" argv;
  record_history := List.mem "--record" argv;
  let requested =
    match List.filter (fun a -> a <> "--json" && a <> "--record") argv with
    | _ :: (_ :: _ as rest) -> rest
    | _ -> []
  in
  List.iter
    (fun (name, fn) ->
      if requested = [] || List.mem name requested then fn ())
    sections
