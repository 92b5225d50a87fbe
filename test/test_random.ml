(* End-to-end fuzzing: generate random structured programs (nested
   loops, conditionals, calls, loads/stores with mixed affine and
   irregular indexing), run the full pipeline, and check the global
   invariants that must hold for ANY program:

   - the interpreter, loop-event generation, IIV maintenance, folding and
     feedback never raise;
   - loop events balance (no loop is left live at the end);
   - per-statement folded point counts equal the interpreter's dynamic
     instruction count;
   - every executed statement instance is covered by its folded domain
     (checked on a sample);
   - metrics percentages are within [0, 100]. *)

open Random_gen
module H = Vm.Hir

(* --- invariants ---------------------------------------------------- *)

let check_program seed =
  let hir = gen_program seed in
  let prog = H.lower hir in
  (* 1. loop events balance *)
  let structure = Cfg.Cfg_builder.run prog in
  let st = Ddg.Loop_events.create structure ~main:prog.Vm.Prog.main in
  Ddg.Loop_events.start st ~emit:ignore;
  let callbacks =
    { Vm.Interp.on_control = (fun ev -> Ddg.Loop_events.feed st ~emit:ignore ev);
      on_exec = ignore }
  in
  let (_ : Vm.Interp.stats) = Vm.Interp.run ~callbacks prog in
  Ddg.Loop_events.finish st ~emit:ignore;
  if Ddg.Loop_events.live_depth st <> 0 then false
  else begin
    (* 2. full pipeline runs and counts agree *)
    let res = Ddg.Depprof.profile prog ~structure in
    let total =
      List.fold_left
        (fun acc (s : Ddg.Depprof.stmt_info) -> acc + s.s_count)
        0 res.stmts
    in
    if total <> res.run_stats.Vm.Interp.dyn_instrs then false
    else begin
      (* 3. folded domains cover their own sampled points *)
      let covered =
        List.for_all
          (fun (s : Ddg.Depprof.stmt_info) ->
            s.s_pieces = []
            || List.exists
                 (fun (p : Fold.piece) ->
                   if Minisl.Polyhedron.dim p.Fold.dom > 4 then true
                   else
                     match Minisl.Polyhedron.sample p.Fold.dom with
                     | Some pt -> Minisl.Polyhedron.mem p.Fold.dom pt
                     | None -> p.Fold.points = 0)
                 s.s_pieces)
          res.stmts
      in
      if not covered then false
      else begin
        (* 4. feedback + metrics never raise, percentages bounded *)
        let analysis = Sched.Depanalysis.analyse prog res in
        let (_ : Sched.Feedback.t) = Sched.Feedback.make prog res analysis in
        let row =
          Sched.Metrics.compute ~name:"fuzz" prog res analysis
        in
        let ok_pct v = v >= 0.0 && v <= 100.0 in
        ok_pct row.Sched.Metrics.aff_pct
        && ok_pct row.Sched.Metrics.par_ops_pct
        && ok_pct row.Sched.Metrics.simd_ops_pct
        && ok_pct row.Sched.Metrics.reuse_pct
        && ok_pct row.Sched.Metrics.preuse_pct
        && ok_pct row.Sched.Metrics.tile_ops_pct
      end
    end
  end

let prop_pipeline_invariants =
  QCheck.Test.make ~name:"pipeline invariants on random programs" ~count:60
    (QCheck.make (QCheck.Gen.int_bound 1_000_000))
    (fun seed -> check_program seed)

(* --- profile parity ------------------------------------------------ *)

(* The canonical profile text of the pipeline benchmark's oracle
   (bench/pipeline/oracle.ml): every statement and dependence with its
   counts and folded pieces, in the result's sorted order. *)
let canonical_text (r : Ddg.Depprof.result) =
  let module D = Ddg.Depprof in
  let label_kind = function D.Lvalue -> "value" | D.Laddr -> "addr" | D.Lnone -> "none" in
  let dep_kind = function D.Reg_dep -> "reg" | D.Mem_dep -> "mem" | D.Out_dep -> "out" in
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  Format.pp_set_margin fmt 100_000;
  let pieces ps =
    List.iter (fun p -> Format.fprintf fmt "  %a@\n" (Fold.pp_piece ?names:None ?label_names:None) p) ps
  in
  List.iter
    (fun (s : D.stmt_info) ->
      Format.fprintf fmt "stmt %d %a count=%d label=%s scev=%b affine=%b depth=%d@\n"
        s.D.sk.D.s_ctx Vm.Isa.Sid.pp s.D.sk.D.s_sid s.D.s_count
        (label_kind s.D.label_kind) s.D.is_scev s.D.affine_exact s.D.depth;
      pieces s.D.s_pieces)
    r.D.stmts;
  List.iter
    (fun (d : D.dep_info) ->
      let k = d.D.dk in
      Format.fprintf fmt "dep %s %d %a -> %d %a count=%d depth=%d,%d@\n"
        (dep_kind k.D.kind) k.D.src_ctx Vm.Isa.Sid.pp k.D.src_sid k.D.dst_ctx
        Vm.Isa.Sid.pp k.D.dst_sid d.D.d_count d.D.src_depth d.D.dst_depth;
      pieces d.D.d_pieces)
    r.D.deps;
  Format.fprintf fmt "edges total=%d scev_pruned=%d@." r.D.total_dep_edges
    r.D.pruned_dep_edges;
  Buffer.contents buf

(* Two profiles per program: the default one, and one that also tracks
   output dependences with caps small enough that collectors spill into
   over-approximation, and keeps the dependences SCEV pruning drops. *)
let parity_digest seed =
  let prog = H.lower (gen_program_rec seed) in
  let structure = Cfg.Cfg_builder.run prog in
  let spilling =
    { Ddg.Depprof.default_config with
      track_waw = true; scev_prune = false; stmt_cap = 16; dep_cap = 16 }
  in
  Polyprof.Prog_hash.sha256_hex
    (canonical_text (Ddg.Depprof.profile prog ~structure)
    ^ canonical_text (Ddg.Depprof.profile ~config:spilling prog ~structure))

let parity_seeds = List.init 40 (fun k -> 101 + (7919 * k))

(* Digests of [parity_digest] for [parity_seeds], generated before the
   Instrumentation-II engine moved to int-keyed tables and shared
   coordinate arrays: the engine's output must not change. *)
let pinned_digests =
  [ (101, "e7565084b4aa18ed0f49ffb509011b070e65c867e94320c3b2d0a1a144d1057b");
    (8020, "1dfeb794d40b8968caaa82d1b6e7602cac8fc025e9c6c1996b728fae6f0195d0");
    (15939, "63e287cddc96058cf6d2015b1e1ce2920b751301d676217f7f36b63523357e12");
    (23858, "8b70618911139f4c890a92b09ebaecf1fb9220edaa52a9992bba04129821c11d");
    (31777, "3cf3850a224e2e9ac6b519835c4980c034b915bd6330c586766632862b6246d0");
    (39696, "04704761fa18577aaa7a47f5e48a9e062083b98b0a9202f5c63e73e27b399050");
    (47615, "e6341f3c6858aea3e54bead7681646018901070999a988df8899a298559f03d0");
    (55534, "40bffca19d9ea998f4ef92b0553acc5d854fce52e9cd978bc624dfc9edd40065");
    (63453, "517cb71afdc95242facd87b451f304608859bee43f2bef5e4a176c56806dc10e");
    (71372, "b39001146c0df30b3c11bf4ff60cd12b7d236a70330a1244f5dae9c6de8b5920");
    (79291, "046545291bb0eb5d8da52b5822759eb55af40b263a069288e854146ec6ba85df");
    (87210, "ab0d407169ac6bc708eca656637803770b1d868b49220f19a87133e8bab61295");
    (95129, "629f8cbcc450d15ea0beada99e66cd6482df475335785a937d8e79c5d1c57cfb");
    (103048, "e4463b8b54067b4aa78e332332971d1364e671732ce1f978dd65adfdee10fbb1");
    (110967, "d15f18aefc1f087247eaa7d8811e3344266f99e1f667fd43f57f92854901c825");
    (118886, "7dfd766c9f7d44cedb1e64add076b72d1224dbd68216c7481d6e8d82d530692c");
    (126805, "d560977bced9b187570c79bda57237e5cf605f02e87dff1e6ce777b55e7550b2");
    (134724, "5cd89d765dc57515c995024b6165c48ebb18fcc687cb3cdb1a79ce4eceb9fd49");
    (142643, "fd3cf24d79eefbeed791281562c6351035daef5189919aaa805e80107a95d1b8");
    (150562, "264cd306cc58c67db80389f89c69de42b670b7a624d29972e9c05e5f491f9b50");
    (158481, "28a8caa9bf1b8bf90caaeb717cb4f0f85d62edcda918640fdef0fe7ad976d5b6");
    (166400, "0cd93723bc2aca21e42461efbe260c9262ba3fc8e219c2b9e33b4e592415ebe4");
    (174319, "67731880526a77ccae47794c7ce9915375b9678f016d5a3e5305ffded15037ae");
    (182238, "283801ebf751421afca0bc5934d723bc7baf6769ef270a9bd74e041225b1a04e");
    (190157, "ed4f88a1dd6d06293cec240190c74c578a2245f730480d1cac2084d8aabd446a");
    (198076, "e50c659e841195ad9713da3fb763ba06c7c6642edeac47d4a08d0092f0b6361e");
    (205995, "57de7b672faee3e8973eaba26e310d67f47cc0c5c5c4efb06887581b6872a82e");
    (213914, "0afa2df0626e60a10f10c150a3aa3d31069d91c4abf8fc1c55387c65ae00948c");
    (221833, "32ca6ae2d51c879ef50586e38c007e87d33cdf504d100f16a0b9df543b194a22");
    (229752, "c017612efb7d70a663b721e73387863cb4ccc4f759e3227fdce701862bbe5b65");
    (237671, "59ce6504c2f6a8c4a6f2110016c95f9bf43dad1871e9b5bd4d3fa23fbe55be6d");
    (245590, "bdea248795f67a5443d54d15eb89ca84a2debfe5cb2ae076a3b473440a21f0ba");
    (253509, "7fea683d606893c98b052a2f82fdef317e71d10049fa245a8fee388c09ba3076");
    (261428, "1d499e180c8262f8ff3dd6800b738ac3f8928b7d3b4ec28e8e62f4ab059c6830");
    (269347, "a10614d6defd737fa5f95c99df486f12853fa99b9e329433bf3de55b59a7d35d");
    (277266, "5d0057769bf225a70ca4856ceaddd1985d0f93e2d42ab4a9317ea4bc0c7103b8");
    (285185, "90fd39c33be17c646a4b405c50de9c956b794fec09aa64d57f36416ee10ebcbc");
    (293104, "e1ac8d3f9a27f5a334351d3fcf131d2a3d7b962c60f0e143c5b5a0ab6a0c5f7f");
    (301023, "933e96455114e2534576203f3a859feab3623035d4f92711119766ce732f9933");
    (308942, "6824ea10d505d0ae773d3eb4a246f3ffd79a4727d01d43a42265604541d0f04a") ]

let test_profile_parity () =
  Alcotest.(check int) "one digest per seed" (List.length parity_seeds)
    (List.length pinned_digests);
  List.iter2
    (fun seed (pinned_seed, digest) ->
      Alcotest.(check int) "seed order" pinned_seed seed;
      Alcotest.(check string) (Printf.sprintf "seed %d" seed) digest (parity_digest seed))
    parity_seeds pinned_digests

(* a couple of fixed seeds as fast regression anchors *)
let test_fixed_seeds () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d" seed)
        true (check_program seed))
    [ 1; 7; 42; 1234; 99991 ]

let () =
  Alcotest.run "random_programs"
    [ ( "fuzz",
        [ Alcotest.test_case "fixed seeds" `Quick test_fixed_seeds;
          QCheck_alcotest.to_alcotest prop_pipeline_invariants ] );
      ( "parity",
        [ Alcotest.test_case "pinned profile digests" `Quick test_profile_parity ] ) ]
