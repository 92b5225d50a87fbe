(* Tests for the MiniVM: ISA semantics, interpreter, event stream. *)

open Vm.Hir.Dsl
module H = Vm.Hir

let run_hir ?args hir = Vm.Interp.run_with_memory ?args (H.lower hir)

let mem_int mem addr =
  match mem addr with
  | Some (Vm.Event.I v) -> v
  | Some (Vm.Event.F _) -> Alcotest.fail "expected int in memory"
  | None -> Alcotest.fail (Printf.sprintf "no value at %d" addr)

let mem_float mem addr =
  match mem addr with
  | Some (Vm.Event.F v) -> v
  | _ -> Alcotest.fail "expected float in memory"

let simple_main body arrays : H.program =
  { H.funs = [ H.fundef "main" [] body ]; arrays; main = "main" }

let test_arith () =
  let hir =
    simple_main
      [ store "out" (i 0) (((i 7 +! i 5) *! i 3) -! (i 20 /! i 4));
        store "out" (i 1) (i 17 %! i 5);
        store "out" (i 2) ((i 1 <! i 2) +! ((i 2 <=! i 2) +! ((i 3 ==! i 4) +! (i 3 <>! i 4))))
      ]
      [ ("out", 4) ]
  in
  let _, mem = run_hir hir in
  let base = 16 in
  Alcotest.(check int) "(7+5)*3 - 20/4" 31 (mem_int mem base);
  Alcotest.(check int) "17 mod 5" 2 (mem_int mem (base + 1));
  Alcotest.(check int) "comparisons" 3 (mem_int mem (base + 2))

let test_float_arith () =
  let hir =
    simple_main
      [ store "out" (i 0) ((f 1.5 +? f 2.5) *? f 2.0);
        store "out" (i 1) (Itof (i 7) /? f 2.0);
        store "out" (i 2) (Ftoi (f 3.9)) ]
      [ ("out", 4) ]
  in
  let _, mem = run_hir hir in
  let base = 16 in
  Alcotest.(check (float 1e-9)) "float mul" 8.0 (mem_float mem base);
  Alcotest.(check (float 1e-9)) "itof/div" 3.5 (mem_float mem (base + 1));
  Alcotest.(check int) "ftoi truncates" 3 (mem_int mem (base + 2))

let test_loop_sum () =
  let hir =
    simple_main
      [ H.Let ("acc", i 0);
        H.for_ "k" (i 0) (i 10) [ H.Let ("acc", v "acc" +! v "k") ];
        store "out" (i 0) (v "acc") ]
      [ ("out", 1) ]
  in
  let _, mem = run_hir hir in
  Alcotest.(check int) "sum 0..9" 45 (mem_int mem 16)

let test_while_break () =
  let hir =
    simple_main
      [ H.Let ("x", i 0);
        H.while_ (i 1)
          [ H.Let ("x", v "x" +! i 1);
            H.If (v "x" >=! i 7, [ H.Break ], []) ];
        store "out" (i 0) (v "x") ]
      [ ("out", 1) ]
  in
  let _, mem = run_hir hir in
  Alcotest.(check int) "break at 7" 7 (mem_int mem 16)

let test_call_and_return () =
  let hir : H.program =
    { H.funs =
        [ H.fundef "add3" [ "a"; "b"; "c" ]
            [ H.Return (Some ((v "a" +! v "b") +! v "c")) ];
          H.fundef "main" []
            [ H.CallS (Some "r", "add3", [ i 1; i 2; i 3 ]);
              store "out" (i 0) (v "r") ] ];
      arrays = [ ("out", 1) ];
      main = "main" }
  in
  let _, mem = run_hir hir in
  Alcotest.(check int) "1+2+3" 6 (mem_int mem 16)

let test_recursion () =
  let hir : H.program =
    { H.funs =
        [ H.fundef "fib" [ "n" ]
            [ H.If (v "n" <! i 2, [ H.Return (Some (v "n")) ], []);
              H.Let ("a", Callf ("fib", [ v "n" -! i 1 ]));
              H.Let ("b", Callf ("fib", [ v "n" -! i 2 ]));
              H.Return (Some (v "a" +! v "b")) ];
          H.fundef "main" []
            [ H.CallS (Some "r", "fib", [ i 10 ]); store "out" (i 0) (v "r") ] ];
      arrays = [ ("out", 1) ];
      main = "main" }
  in
  let stats, mem = run_hir hir in
  Alcotest.(check int) "fib 10" 55 (mem_int mem 16);
  Alcotest.(check bool) "deep call stack" true (stats.Vm.Interp.max_depth >= 9)

let test_stats () =
  let hir =
    simple_main
      [ H.for_ "k" (i 0) (i 5)
          [ store "a" (v "k") (Itof (v "k") *? f 2.0) ] ]
      [ ("a", 8) ]
  in
  let stats, _ = run_hir hir in
  Alcotest.(check int) "5 stores + 5 loads?" 5 stats.Vm.Interp.dyn_mem_ops;
  Alcotest.(check bool) "fp ops counted" true (stats.Vm.Interp.dyn_fp_ops >= 10)

let test_trap_on_div_zero () =
  let hir = simple_main [ store "out" (i 0) (i 1 /! i 0) ] [ ("out", 1) ] in
  Alcotest.(check bool) "div by zero traps" true
    (try
       ignore (run_hir hir);
       false
     with Vm.Interp.Trap _ -> true)

let test_trap_type_confusion () =
  let hir = simple_main [ store "out" (i 0) (f 1.0 +? "out".%[i 0]) ] [ ("out", 1) ] in
  (* out[0] is uninitialised integer 0: fadd must trap *)
  Alcotest.(check bool) "type confusion traps" true
    (try
       ignore (run_hir hir);
       false
     with Vm.Interp.Trap _ -> true)

let test_step_budget () =
  let hir = simple_main [ H.while_ (i 1) [ H.Let ("x", i 0) ] ] [] in
  Alcotest.(check bool) "budget exceeded traps" true
    (try
       ignore (Vm.Interp.run ~max_steps:1000 (H.lower hir));
       false
     with Vm.Interp.Trap _ -> true)

let test_bit_ops () =
  let hir =
    simple_main
      [ store "out" (i 0) (Bin (Vm.Isa.And, i 12, i 10));
        store "out" (i 1) (Bin (Vm.Isa.Or, i 12, i 10));
        store "out" (i 2) (Bin (Vm.Isa.Xor, i 12, i 10));
        store "out" (i 3) (Bin (Vm.Isa.Shl, i 3, i 4));
        store "out" (i 4) (Bin (Vm.Isa.Shr, i (-16), i 2)) ]
      [ ("out", 5) ]
  in
  let _, mem = run_hir hir in
  Alcotest.(check int) "and" 8 (mem_int mem 16);
  Alcotest.(check int) "or" 14 (mem_int mem 17);
  Alcotest.(check int) "xor" 6 (mem_int mem 18);
  Alcotest.(check int) "shl" 48 (mem_int mem 19);
  Alcotest.(check int) "shr arithmetic" (-4) (mem_int mem 20)

let test_float_compare () =
  let hir =
    simple_main
      [ store "out" (i 0) ((f 1.5 <? f 2.5) +! (f 2.5 >? f 1.5));
        store "out" (i 1) (f 2.5 <? f 1.5) ]
      [ ("out", 2) ]
  in
  let _, mem = run_hir hir in
  Alcotest.(check int) "both true" 2 (mem_int mem 16);
  Alcotest.(check int) "false" 0 (mem_int mem 17)

let test_nested_call_args () =
  let hir : H.program =
    { H.funs =
        [ H.fundef "inner" [ "a"; "b" ] [ H.Return (Some (v "a" -! v "b")) ];
          H.fundef "outer" [ "x" ]
            [ H.Let ("r", Callf ("inner", [ v "x" *! i 10; v "x" ]));
              H.Return (Some (v "r")) ];
          H.fundef "main" []
            [ H.CallS (Some "z", "outer", [ i 7 ]); store "out" (i 0) (v "z") ]
        ];
      arrays = [ ("out", 1) ];
      main = "main" }
  in
  let _, mem = run_hir hir in
  Alcotest.(check int) "70 - 7" 63 (mem_int mem 16)

let test_while_is_a_dynamic_loop () =
  (* a while loop that iterates is recognised as a CFG loop by
     Instrumentation I *)
  let hir =
    simple_main
      [ H.Let ("x", i 0);
        H.while_ (v "x" <! i 5) [ H.Let ("x", v "x" +! i 1) ] ]
      []
  in
  let prog = H.lower hir in
  let s = Cfg.Cfg_builder.run prog in
  match Cfg.Cfg_builder.forest_of s prog.Vm.Prog.main with
  | Some forest ->
      Alcotest.(check int) "one loop" 1 (Cfg.Loopnest.n_loops forest)
  | None -> Alcotest.fail "no CFG"

let test_event_stream_balanced () =
  let hir : H.program =
    { H.funs =
        [ H.fundef "g" [ "x" ] [ H.Return (Some (v "x" *! i 2)) ];
          H.fundef "main" []
            [ H.for_ "k" (i 0) (i 4)
                [ H.CallS (Some "y", "g", [ v "k" ]);
                  store "out" (v "k") (v "y") ] ] ];
      arrays = [ ("out", 4) ];
      main = "main" }
  in
  let calls = ref 0 and rets = ref 0 and jumps = ref 0 in
  let callbacks =
    { Vm.Interp.on_control =
        (function
        | Vm.Event.Call _ -> incr calls
        | Vm.Event.Return _ -> incr rets
        | Vm.Event.Jump _ -> incr jumps);
      on_exec = ignore }
  in
  let (_ : Vm.Interp.stats) = Vm.Interp.run ~callbacks (H.lower hir) in
  Alcotest.(check int) "4 calls" 4 !calls;
  Alcotest.(check int) "calls = returns" !calls !rets;
  Alcotest.(check bool) "loop produced jumps" true (!jumps > 8)

let test_exec_events_have_addresses () =
  let hir =
    simple_main
      [ store "a" (i 3) (i 42); H.Let ("x", "a".%[i 3]) ]
      [ ("a", 4) ]
  in
  let reads = ref [] and writes = ref [] in
  let callbacks =
    { Vm.Interp.on_control = ignore;
      on_exec =
        (fun e ->
          (match e.Vm.Event.addr_read with Some a -> reads := a :: !reads | None -> ());
          match e.Vm.Event.addr_written with
          | Some a -> writes := a :: !writes
          | None -> ()) }
  in
  let (_ : Vm.Interp.stats) = Vm.Interp.run ~callbacks (H.lower hir) in
  Alcotest.(check bool) "write seen" true (List.mem 19 !writes);
  Alcotest.(check bool) "read seen" true (List.mem 19 !reads)

(* [Isa.reads], [def_reg] and [term_reads] are the profiler's and the
   static passes' view of an instruction's registers: on every executed
   instruction of every suite program they must equal what the
   interpreter reports, reads in the same order *)
let test_isa_registers_match_events () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let prog = H.lower w.Workloads.Workload.hir in
      let on_exec (e : Vm.Event.exec) =
        let sid = e.Vm.Event.sid in
        let instr =
          (Vm.Prog.block prog ~fid:(Vm.Isa.Sid.fid sid) ~bid:(Vm.Isa.Sid.bid sid))
            .Vm.Prog.instrs.(Vm.Isa.Sid.idx sid)
        in
        if
          Vm.Isa.reads instr <> e.Vm.Event.reads
          || Vm.Isa.def_reg instr <> Option.value ~default:(-1) e.Vm.Event.writes
        then
          Alcotest.failf "%s %s: `%a' disagrees with its exec event"
            w.Workloads.Workload.w_name (Vm.Isa.Sid.to_string sid)
            Vm.Isa.pp_instr instr
      in
      let callbacks = { Vm.Interp.on_control = ignore; on_exec } in
      ignore (Vm.Interp.run ~callbacks prog : Vm.Interp.stats))
    Workloads.Runner.suite

let () =
  Alcotest.run "vm"
    [ ( "interp",
        [ Alcotest.test_case "integer arithmetic" `Quick test_arith;
          Alcotest.test_case "float arithmetic" `Quick test_float_arith;
          Alcotest.test_case "loop sum" `Quick test_loop_sum;
          Alcotest.test_case "while + break" `Quick test_while_break;
          Alcotest.test_case "call/return" `Quick test_call_and_return;
          Alcotest.test_case "recursion (fib)" `Quick test_recursion;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "div-by-zero trap" `Quick test_trap_on_div_zero;
          Alcotest.test_case "type-confusion trap" `Quick test_trap_type_confusion;
          Alcotest.test_case "step budget" `Quick test_step_budget;
          Alcotest.test_case "bit operations" `Quick test_bit_ops;
          Alcotest.test_case "float compares" `Quick test_float_compare;
          Alcotest.test_case "nested call arguments" `Quick
            test_nested_call_args;
          Alcotest.test_case "while becomes a loop" `Quick
            test_while_is_a_dynamic_loop ] );
      ( "events",
        [ Alcotest.test_case "balanced calls/returns" `Quick
            test_event_stream_balanced;
          Alcotest.test_case "memory addresses in exec events" `Quick
            test_exec_events_have_addresses;
          Alcotest.test_case "Isa registers = exec events" `Quick
            test_isa_registers_match_events ] ) ]
