(* Grab-bag unit tests for the smaller substrate pieces: Sid packing,
   the program builder's error handling, vectors, affine algebra, hulls,
   calling-context trees, domain parameter rendering, SHA-256. *)

module Rat = Pp_util.Rat
module A = Minisl.Affine
module V = Pp_util.Vecint

(* --- Isa.Sid --------------------------------------------------------- *)

let test_sid_roundtrip () =
  List.iter
    (fun (fid, bid, idx) ->
      let s = Vm.Isa.Sid.make ~fid ~bid ~idx in
      Alcotest.(check int) "fid" fid (Vm.Isa.Sid.fid s);
      Alcotest.(check int) "bid" bid (Vm.Isa.Sid.bid s);
      Alcotest.(check int) "idx" idx (Vm.Isa.Sid.idx s))
    [ (0, 0, 0); (1, 2, 3); (4095, 4095, 4095); (7, 0, 4095); (100, 200, 300) ]

let test_sid_distinct () =
  let a = Vm.Isa.Sid.make ~fid:1 ~bid:2 ~idx:3 in
  let b = Vm.Isa.Sid.make ~fid:1 ~bid:3 ~idx:2 in
  Alcotest.(check bool) "different blocks differ" true (a <> b)

let test_op_classes () =
  Alcotest.(check bool) "const is int alu" true
    (Vm.Isa.class_of_instr (Vm.Isa.Const (0, 1)) = Vm.Isa.Int_alu);
  Alcotest.(check bool) "fconst is fp" true
    (Vm.Isa.is_fp (Vm.Isa.Fconst (0, 1.0)));
  Alcotest.(check bool) "load is mem" true
    (Vm.Isa.is_mem (Vm.Isa.Load (0, Vm.Isa.Imm 5)));
  Alcotest.(check bool) "store is mem" true
    (Vm.Isa.is_mem (Vm.Isa.Store (Vm.Isa.Imm 5, Vm.Isa.Imm 1)))

(* --- Prog builder ---------------------------------------------------- *)

let test_builder_unterminated_block () =
  let pb = Vm.Prog.Builder.create () in
  let fid = Vm.Prog.Builder.declare_func pb "f" ~n_params:0 in
  let fb = Vm.Prog.Builder.define_func pb fid in
  Vm.Prog.Builder.emit fb 0 (Vm.Isa.Const (0, 1));
  Alcotest.(check bool) "unterminated rejected" true
    (try
       Vm.Prog.Builder.finish_func fb;
       false
     with Invalid_argument _ -> true)

let test_builder_double_terminate () =
  let pb = Vm.Prog.Builder.create () in
  let fid = Vm.Prog.Builder.declare_func pb "f" ~n_params:0 in
  let fb = Vm.Prog.Builder.define_func pb fid in
  Vm.Prog.Builder.terminate fb 0 Vm.Isa.Halt;
  Alcotest.(check bool) "double terminate rejected" true
    (try
       Vm.Prog.Builder.terminate fb 0 Vm.Isa.Halt;
       false
     with Invalid_argument _ -> true)

let test_builder_undefined_function () =
  let pb = Vm.Prog.Builder.create () in
  let _ = Vm.Prog.Builder.declare_func pb "ghost" ~n_params:0 in
  Alcotest.(check bool) "undefined function rejected" true
    (try
       ignore (Vm.Prog.Builder.finish pb ~main:"ghost");
       false
     with Invalid_argument _ -> true)

let test_globals_disjoint () =
  let pb = Vm.Prog.Builder.create () in
  let a = Vm.Prog.Builder.alloc_global pb "a" 10 in
  let b = Vm.Prog.Builder.alloc_global pb "b" 5 in
  Alcotest.(check bool) "non-overlapping" true (b >= a + 10)

(* --- Vecint ---------------------------------------------------------- *)

let test_vecint () =
  Alcotest.(check bool) "lex order" true (V.compare_lex [| 1; 2 |] [| 1; 3 |] < 0);
  Alcotest.(check bool) "prefix shorter" true (V.compare_lex [| 1 |] [| 1; 0 |] < 0);
  Alcotest.(check int) "dot" 11 (V.dot [| 1; 2 |] [| 3; 4 |]);
  Alcotest.(check (array int)) "add" [| 4; 6 |] (V.add [| 1; 2 |] [| 3; 4 |]);
  Alcotest.(check bool) "first nonzero" true
    (V.first_nonzero [| 0; 0; 5 |] = Some 2);
  Alcotest.(check bool) "all zero" true (V.first_nonzero [| 0; 0 |] = None);
  Alcotest.(check string) "pp" "(1, -2)" (V.to_string [| 1; -2 |])

(* --- Affine ---------------------------------------------------------- *)

let test_affine_algebra () =
  let x = A.var ~dim:2 0 and y = A.var ~dim:2 1 in
  let e = A.add (A.scale (Rat.of_int 3) x) (A.sub y (A.const ~dim:2 (Rat.of_int 5))) in
  (* 3x + y - 5 *)
  Alcotest.(check bool) "eval" true
    (Rat.equal (A.eval e [| 2; 4 |]) (Rat.of_int 5));
  let e' = A.substitute e 0 (A.add y (A.const ~dim:2 Rat.one)) in
  (* x := y + 1  =>  3y + 3 + y - 5 = 4y - 2 *)
  Alcotest.(check bool) "substitute" true
    (Rat.equal (A.eval e' [| 99; 3 |]) (Rat.of_int 10));
  let ext = A.extend e 4 in
  Alcotest.(check int) "extend dim" 4 (A.dim ext);
  Alcotest.(check bool) "extend preserves value" true
    (Rat.equal (A.eval ext [| 2; 4; 7; 7 |]) (Rat.of_int 5));
  Alcotest.(check bool) "constant detection" true
    (A.is_constant (A.const ~dim:3 (Rat.of_int 9)));
  Alcotest.(check string) "pp" "3i0 + i1 - 5" (A.to_string e)

(* --- Hull.widen_union ------------------------------------------------ *)

let test_widen_union () =
  let module P = Minisl.Polyhedron in
  let module C = Minisl.Constr in
  let box a b =
    P.make 1 [ C.make Ge [| 1 |] (-a); C.make Ge [| -1 |] b ]
  in
  let u = Minisl.Pset.union (Minisl.Pset.singleton (box 0 2)) (Minisl.Pset.singleton (box 8 10)) in
  let w = Minisl.Hull.widen_union u in
  Alcotest.(check int) "one disjunct" 1 (Minisl.Pset.n_disjuncts w);
  Alcotest.(check bool) "covers the gap" true (Minisl.Pset.mem w [| 5 |]);
  Alcotest.(check bool) "still bounded" false (Minisl.Pset.mem w [| 11 |])

(* --- Cct --------------------------------------------------------- *)

let test_cct_contexts_distinguished () =
  (* the same callee from two different sites gives two CCT nodes *)
  let open Vm.Hir.Dsl in
  let module H = Vm.Hir in
  let prog =
    H.lower
      { H.funs =
          [ H.fundef "g" [] [ H.Let ("x", i 1) ];
            H.fundef "main" []
              [ H.CallS (None, "g", []); H.CallS (None, "g", []) ] ];
        arrays = [];
        main = "main" }
  in
  let cct = Ddg.Cct.create ~main:prog.Vm.Prog.main in
  let callbacks =
    { Vm.Interp.on_control = Ddg.Cct.on_control cct; on_exec = ignore }
  in
  let (_ : Vm.Interp.stats) = Vm.Interp.run ~callbacks prog in
  (* root + two site-labelled children *)
  Alcotest.(check int) "three nodes" 3 (Ddg.Cct.n_nodes cct);
  let children = Ddg.Cct.children_in_order (Ddg.Cct.root cct) in
  Alcotest.(check int) "two call sites" 2 (List.length children);
  match children with
  | [ a; b ] ->
      Alcotest.(check bool) "both call g" true (a.func = b.func);
      Alcotest.(check bool) "children in first-call order" true
        (a.site < b.site)
  | _ -> Alcotest.fail "two children expected"

(* --- Prog_hash.sha256_hex ---------------------------------------------- *)

(* FIPS 180-4 vectors: every digest in bench/pipeline/expected.json
   rests on this implementation *)
let test_sha256 () =
  let check = Alcotest.check and ss = Alcotest.string in
  check ss "empty string"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Polyprof.Prog_hash.sha256_hex "");
  check ss "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Polyprof.Prog_hash.sha256_hex "abc");
  check ss "448-bit vector"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Polyprof.Prog_hash.sha256_hex
       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  (* crosses the 64-byte block boundary *)
  check ss "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Polyprof.Prog_hash.sha256_hex (String.make 1_000_000 'a'))

let () =
  Alcotest.run "units"
    [ ( "isa",
        [ Alcotest.test_case "sid roundtrip" `Quick test_sid_roundtrip;
          Alcotest.test_case "sid distinct" `Quick test_sid_distinct;
          Alcotest.test_case "op classes" `Quick test_op_classes ] );
      ( "builder",
        [ Alcotest.test_case "unterminated block" `Quick
            test_builder_unterminated_block;
          Alcotest.test_case "double terminate" `Quick test_builder_double_terminate;
          Alcotest.test_case "undefined function" `Quick
            test_builder_undefined_function;
          Alcotest.test_case "globals disjoint" `Quick test_globals_disjoint ] );
      ( "vectors & affine",
        [ Alcotest.test_case "vecint" `Quick test_vecint;
          Alcotest.test_case "affine algebra" `Quick test_affine_algebra ] );
      ( "hulls & trees",
        [ Alcotest.test_case "widen_union" `Quick test_widen_union;
          Alcotest.test_case "CCT call-site contexts" `Quick
            test_cct_contexts_distinguished ] );
      ( "prog_hash",
        [ Alcotest.test_case "sha256 vectors" `Quick test_sha256 ] ) ]
