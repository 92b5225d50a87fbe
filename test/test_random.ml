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

(* A third profile: statement collectors keep buffering after the
   dependence collectors (cap 37) spill, so a dependence the engine
   derives without tracking must spill while its statement does not. *)
let capped =
  { Ddg.Depprof.default_config with Ddg.Depprof.stmt_cap = 200; dep_cap = 37 }

let capped_digest seed =
  let prog = H.lower (gen_program_rec seed) in
  let structure = Cfg.Cfg_builder.run prog in
  Polyprof.Prog_hash.sha256_hex
    (canonical_text (Ddg.Depprof.profile ~config:capped prog ~structure))

(* The three profiles of a program without recursion. *)
let flat_digest seed =
  let prog = H.lower (gen_program seed) in
  let structure = Cfg.Cfg_builder.run prog in
  let spilling =
    { Ddg.Depprof.default_config with
      track_waw = true; scev_prune = false; stmt_cap = 16; dep_cap = 16 }
  in
  Polyprof.Prog_hash.sha256_hex
    (String.concat ""
       (List.map
          (fun config -> canonical_text (Ddg.Depprof.profile ~config prog ~structure))
          [ Ddg.Depprof.default_config; spilling; capped ]))

let flat_seeds = List.init 30 (fun k -> 17 + (104_729 * k))

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

(* The capped profile of every polybench kernel: their inner loops run
   far past both caps. *)
let kernel_digest (w : Workloads.Workload.t) =
  let prog = H.lower w.Workloads.Workload.hir in
  let structure = Cfg.Cfg_builder.run prog in
  Polyprof.Prog_hash.sha256_hex
    (canonical_text (Ddg.Depprof.profile ~config:capped prog ~structure))

(* Digests of [capped_digest] for [parity_seeds], of [flat_digest] for
   [flat_seeds] and of [kernel_digest] for the polybench kernels,
   generated before the Instrumentation-II engine translated each block
   once. *)
let pinned_capped =
  [ (101, "a61cf2b09f932e731a9a14062b9a20ad0aee8d7bb220d62798ceff883ac46b44");
    (8020, "5f7c602a75fe16953be84bce33800b274ef868511738bd3a6d0299d85b414a41");
    (15939, "ab22ccbf615f97cad98ba7794b0e3259f95fd890a319a880ff2d4cfae96c9c59");
    (23858, "570220eaef452f79f6ce3b1002bc65f29892551fc990066d4a24d9b5f3fe45b7");
    (31777, "512a74352a0bd96851775f570a59a0929a24a4ebbd7a3a20dc8504c286d06d8d");
    (39696, "ab7f1fe1961e825f44fe198c4d44ec4018a503280bc554cfe0c7741ea435066b");
    (47615, "d6101c146f05100e0faa47bf8623bf7a0b642a601b1d0163d2ec8dea8fd26d78");
    (55534, "6e190543851072cae0057d5ed2ed67bdeb6ffeb3fd277bb4cda432938b561d8e");
    (63453, "5ed4103062d4325e55163f58563208e6d3be3f43aea04f11fe37e9866c354352");
    (71372, "676f8aebd9fb868fd7010fdc191201adc1ef3a260da74720975ae3a35363f1eb");
    (79291, "1e6d539be598385ffa8c3ca88786682ed50335bceb16b85f870f06bbaeabd6e9");
    (87210, "bb5e5bac1c46eb37aee2966c66f75f2779cf13b170d6ff1c8368ea0ef32685c0");
    (95129, "680e797042fa8921001593ad8a0c385b51f3929c8aa18de08e4acae843b42bdf");
    (103048, "c0131329512c51f2339a49bb33f4e318aabc4af8f69f18277c3362920ebbe480");
    (110967, "9ab6ec48032e73d5933d20b3091d499ca7698d49e832dd1194b523df05648e18");
    (118886, "1e07e0b4d35b670de659859028c007aa9fd74816a54bb515cf86d46c0124568e");
    (126805, "d1177d520c999e6f95a212724895fcc47b58de6285142fb3186261f630bad50d");
    (134724, "2215dc23920b17b5f19f4d7bba7adbbb04121060be84b5b4809412a645654a8f");
    (142643, "3ea19a3fccb9641db92ab8948c73ca14ea200f2456b8fb350f8df610725ff83c");
    (150562, "37b109f76fca8f3a7c9b4e058b1a257a8181cdfab8d768b3ad9c7476c4976042");
    (158481, "307053937d60d6ac81a3d12dbad3ba947ffaf583c72809f97e26c5efc8224063");
    (166400, "91e73e4f521cb1d425f953d17ffdf2f0cc21c5ba80f2a79011411e5f28d56168");
    (174319, "c69bac7d346965122a10eefed1af125e9394ad3d8af06e86d2181b35e0d74195");
    (182238, "79b55d726d18da0c99e7a98d1b17626a81fb44da62996d3907c99d6e1e5aea13");
    (190157, "e745a074f07795e5985182335c441eeb89936b7db06b2228250bf88d29503bd5");
    (198076, "cafa9ba7762f9de063c1f23ad860660eee2f75d9d9b0632f4364d0b835f09ba3");
    (205995, "66cc2a8e27e23f2a9e42e9aa4458d8a334b529fdc67cd8ba5fa6a55056152cd8");
    (213914, "ffe7a6124e39df945ea4d5e021648911270d4b8aef19c5c0ab9b8f5106053931");
    (221833, "baf2bae266ef1ddcb11ef5055ce56e45792106352621819dd199db0c0d812262");
    (229752, "8fcff469e69a01addd3b9a44e47025f2151456b0f9bff8f5fe01e5b832cd9807");
    (237671, "31422dfbfc7da56857d208d5fca5486d447af771e659e54426469931424b2bd0");
    (245590, "ad4b1585d96b2f14c5fc8e509e0c3750f0c6a53808664e8c51c6751b00ec99c4");
    (253509, "91a1dd7924833f224dc236e551ddae8bf18a52a07f6de6a2bd8204aa6206a857");
    (261428, "1caeb01a3f7ea7baeb9f2f805755b4cf4d8b496084d42f513ae79b60ce95dccf");
    (269347, "3b00426ee5957feb8bdd054b9f920a7ed7908b80d8e30e99323802a1aa3c952e");
    (277266, "cb3d8084bdbb2d7f0d3b2393d7c467610ea1965f2ef2c871e77a7495a838835b");
    (285185, "2f2131801e8058a9c215d198df38ad93775f30b22ac5409ad8d375b383173048");
    (293104, "1180a9c50f4488e899d8a31a6088484a7c37fdff1b2258731dcfc60c43b73ee1");
    (301023, "5ac5f30d391b70a18e12ba78c53b63d5139305e04469b7619d630b76bc6e81fb");
    (308942, "072ffe119fb60d5b377ccdc0208b0200d891fb304e559994329303924517863b") ]

let pinned_flat =
  [ (17, "23c52df8dda89bd95cb445adbef21d98eba440b0a2ed285c77abe3a6c0a89ba3");
    (104746, "b17825662c99726d623a975b924beb64bdb2c523c019a5a0240f1ba136e529e3");
    (209475, "be7786386281e04ba04ed9e3525cc5009620c45388d727f4310a615153907a80");
    (314204, "a5b3782d12cb78db651480cbd81fc691cd019d686514264a0cfc3e3985229108");
    (418933, "ad56d3f4698b9128925cd28de0c63d0f04cf14a0b7f45fa20a5b594ed7b16be2");
    (523662, "7f95fab2ba8e94b06d1ccda4c78431795d81e00f1526e8268bcab98f66d3c8e8");
    (628391, "d5504abe591bded419e6be7ed0ef2ba54a948cf3d6a312240141df782411f23c");
    (733120, "e88aecf6f36af08f8d60175aaa1115080d65afd0baa4472cb423f47bb5b51c7b");
    (837849, "3044493e6f906b2d3b16adafd6c085fdbf0e27ad0f8eda263d2f251af8de946a");
    (942578, "6a92308ee319ca95dedac1f063a229b4102a6c32b3e290946fdff4f8c354b6ed");
    (1047307, "e8829a4cf5115040869d598bf5b4afdeeea9f0c75a588bcf3b31665e925828eb");
    (1152036, "4355bde71e48b5756aaa750e39cfd17feead8a0f978e1944ab3a77df28a68a7e");
    (1256765, "c5c906a8548b7399dc78841889d712ad69db39710ddc9e85f3a7031d4c5a1d53");
    (1361494, "abcb6cbd4b7d7b1adf53262efcd96451dd76906e89517e67e19d45eeec5d0497");
    (1466223, "20bd19787befc105e8116eb5a9d13f7d757d5b36308c83cac834e4790300855e");
    (1570952, "557d278f27fea9782b23fbd1d2e4dcceed3fe12f1011562afe5b2d39c851f99e");
    (1675681, "20716d40e7c5ce283b479b2d1a2bdc02771d910524e83f542795ebe30ad75c9d");
    (1780410, "9e57cb66e42334f30fca72d18ffdba16a7ce831da4455fdf06cad5318654a170");
    (1885139, "b4e6aff789fa3d743d8ba0fe46ad579a0305038b486f74067e0e0edc690c29db");
    (1989868, "7901a80569e0cb8679dfa164e7d1cc55b64dba1afa871073b46b19ba63180b05");
    (2094597, "b6000003b6872c74f0472667b9a389c139e1e0dc773ebb5fdc9f382b37a20ef4");
    (2199326, "f7d9c7990375de3ca32c0b52b0157580078a2835371b1dad96907579c226e13c");
    (2304055, "72be7cd86ade56e7815757e8870052cb6c006442a5f302d9ad666d2769fc86df");
    (2408784, "702f2cd867832f798468cba22c496e1d44a7f47ac9ca7ad2f4118b5bdc599984");
    (2513513, "a204e3bbb0c054ecf8785ddf2562c4fa12d549b5a7f615833c0aca0be8a73859");
    (2618242, "800ff81d9c7f1c74c76a76268484db13705a58579fde0c255c57e10797d0e38b");
    (2722971, "805233244db2481266b296399a1cbb5667d66dafa0a0bdaca049eb9357b197bd");
    (2827700, "567090c344b9fb8d053fee444be2a821a5cf1b0ffa7ebad7251d16dbbe0ce9f3");
    (2932429, "1f510bdf3795a10035743c8f43c99fefcfe881108f19ddd5d2b35a95e1e9f3ae");
    (3037158, "4b94a9293582b814e3717e276a82cab0fc1c3ecbe91c767947ef98199976f864") ]

let pinned_kernels =
  [ ("gemm", "945c0f6f163015d623f979ea2484e2c3a7d75881d46153c277c81bb6e8d3d5ba");
    ("jacobi_2d", "78a43c81ea3c9bd71bafff363e01e9061ec0df8522ee9c0a3c9d396e7da53d94");
    ("atax", "5736a611b50917d9725c6bbbf41c473d6eef8c0d37e461748ab9362ececbc883");
    ("mvt", "20cab3d11dc0c1ad71c784a7fca4879ef0765f0c69edd10bb709502bc1ead2e0");
    ("gesummv", "40d7af4db5dbb7abb10b1108090f2efc35d3acb52afc6139d3379df07ab1e4e7");
    ("bicg", "6cd0a47588c6595515a11bc283d4a09478aa6512f95f52ce937100973d0a6a31");
    ("seidel_1d", "cf3e44933346386b04582cba701ba3b35f2225a6f5633bab9c688ed312f8d3b4");
    ("trisolv", "02429d37f7a4e60038cc89355413a1df1f2143a663616556d8ec9f78702ad27d");
    ("cholesky", "7fb024f07bc5fd0f1a2acbab2c286a1743a04722074452698fa99cd6c338c001");
    ("trmm", "70bfb254d1ed35c47129b0bbc6127abe5a6a5c81f62e2f0bbd7b86cdc736b418");
    ("lu", "ead307bf76fad7d121acba31ea0b239bffe5425550005ff742260955e86c591e");
    ("seidel_wd", "ea0b01d9d3d3f71af6fcfbfd4f5933a58b6f0c697c92f0f572b51457d483f297") ]

(* Caps of 0 and 1 spill a collector at its first point, 3 at its
   third: each configuration as (stmt_cap, dep_cap). *)
let tiny_caps = [ (0, 0); (1, 0); (0, 5); (3, 1) ]

let tiny_caps_digest seed =
  let prog = H.lower (gen_program_rec seed) in
  let structure = Cfg.Cfg_builder.run prog in
  Polyprof.Prog_hash.sha256_hex
    (String.concat ""
       (List.map
          (fun (stmt_cap, dep_cap) ->
            let config = { Ddg.Depprof.default_config with stmt_cap; dep_cap } in
            canonical_text (Ddg.Depprof.profile ~config prog ~structure))
          tiny_caps))

let tiny_seeds = List.filteri (fun k _ -> k < 8) parity_seeds

(* Digests of [tiny_caps_digest] for [tiny_seeds], generated with the
   per-instruction engine. *)
let pinned_tiny =
  [ (101, "9fbd0ab47fc10ff28215043bb71384ae55ad5e012e44a835dcedf915beb2944a");
    (8020, "6b69fb9def97258a0e3bfc6ab860dff35a271788c1482f009c0249e74943a3c7");
    (15939, "e1577e7552c61c34dbb496923e29009f2bf6914fcd121db51e72de73401596e3");
    (23858, "6d8ad27960396ba89eb3b035b586951f9a9734a10654de85373862c84a3148b3");
    (31777, "20dd3df88d9265e8384a4551fd88dcb47319361f5568c770e3bb77f8bcc2ec3b");
    (39696, "4109263a53b2097009e41e2ee29ffe7f8e209955263bb1cbb223d6de815be1e3");
    (47615, "d5c5a68bdfc8495d2d028709f3d5cebaaecd8b7b9f5de277068f4ce902f59e4b");
    (55534, "58146d188fd7520973a89e3fb8a67f2ae27898200afd91c16b0cc5f9a4169606") ]

let check_pins name digest seeds pins =
  Alcotest.(check int) (name ^ ": one digest per seed") (List.length seeds) (List.length pins);
  List.iter2
    (fun seed (pinned_seed, pinned) ->
      Alcotest.(check int) (name ^ ": seed order") pinned_seed seed;
      Alcotest.(check string) (Printf.sprintf "%s seed %d" name seed) pinned (digest seed))
    seeds pins

let test_capped_parity () =
  check_pins "capped" capped_digest parity_seeds pinned_capped;
  check_pins "flat" flat_digest flat_seeds pinned_flat;
  check_pins "tiny caps" tiny_caps_digest tiny_seeds pinned_tiny;
  Alcotest.(check int) "one digest per kernel" (List.length Workloads.Polybench.all)
    (List.length pinned_kernels);
  List.iter2
    (fun (w : Workloads.Workload.t) (name, pinned) ->
      Alcotest.(check string) name w.Workloads.Workload.w_name name;
      Alcotest.(check string) (name ^ " capped") pinned (kernel_digest w))
    Workloads.Polybench.all pinned_kernels

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
        [ Alcotest.test_case "pinned profile digests" `Quick test_profile_parity;
          Alcotest.test_case "pinned capped and flat digests" `Quick test_capped_parity ] ) ]
