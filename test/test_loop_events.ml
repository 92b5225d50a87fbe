(* Tests for loop-event generation (Algorithms 1 & 2): well-formedness
   invariants over real traces, plus the Fig. 3 examples. *)

module LE = Ddg.Loop_events

let collect hir =
  let prog = Vm.Hir.lower hir in
  let structure = Cfg.Cfg_builder.run prog in
  let st = LE.create structure ~main:prog.Vm.Prog.main in
  let events = ref [] in
  let emit ev = events := ev :: !events in
  LE.start st ~emit;
  let callbacks =
    { Vm.Interp.on_control = (fun ev -> LE.feed st ~emit ev); on_exec = ignore }
  in
  let (_ : Vm.Interp.stats) = Vm.Interp.run ~callbacks prog in
  LE.finish st ~emit;
  Alcotest.(check int) "all loops exited at the end" 0 (LE.live_depth st);
  (prog, List.rev !events)

(* well-formedness: entries and exits balance like parentheses, iterate
   only fires on the innermost live loop *)
let check_wellformed events =
  let stack = ref [] in
  let key = LE.loop_name in
  List.iter
    (fun ev ->
      match ev with
      | LE.Enter (l, _, _) -> stack := key l :: !stack
      | LE.Exit (l, _, _) -> (
          match !stack with
          | top :: rest when top = key l -> stack := rest
          | _ -> Alcotest.fail "exit of a non-innermost loop")
      | LE.Iterate (l, _, _) -> (
          match !stack with
          | top :: _ when top = key l -> ()
          | _ -> Alcotest.fail "iterate of a non-innermost loop")
      | LE.Block _ | LE.Call_push _ | LE.Ret_pop _ -> ())
    events;
  Alcotest.(check (list string)) "balanced" [] !stack

let count p events = List.length (List.filter p events)

let test_simple_loop () =
  let open Vm.Hir.Dsl in
  let module H = Vm.Hir in
  let _, evs =
    collect
      { H.funs =
          [ H.fundef "main" [] [ H.for_ "k" (i 0) (i 5) [ H.Let ("x", v "k") ] ] ];
        arrays = [];
        main = "main" }
  in
  check_wellformed evs;
  Alcotest.(check int) "one entry" 1
    (count (function LE.Enter _ -> true | _ -> false) evs);
  (* 5 body iterations: I fires on each back edge, including the final
     failing check *)
  Alcotest.(check int) "five iterates" 5
    (count (function LE.Iterate _ -> true | _ -> false) evs);
  Alcotest.(check int) "one exit" 1
    (count (function LE.Exit _ -> true | _ -> false) evs)

let test_nested_loops () =
  let open Vm.Hir.Dsl in
  let module H = Vm.Hir in
  let _, evs =
    collect
      { H.funs =
          [ H.fundef "main" []
              [ H.for_ "a" (i 0) (i 3)
                  [ H.for_ "b" (i 0) (i 4) [ H.Let ("x", v "b") ] ] ] ];
        arrays = [];
        main = "main" }
  in
  check_wellformed evs;
  (* the inner loop is entered and exited once per outer iteration *)
  Alcotest.(check int) "entries" 4
    (count (function LE.Enter _ -> true | _ -> false) evs);
  Alcotest.(check int) "exits" 4
    (count (function LE.Exit _ -> true | _ -> false) evs)

let test_interprocedural_loop_fig3_ex1 () =
  let _, evs = collect Workloads.Figure3.ex1 in
  check_wellformed evs;
  (* two CFG loops: L1 in A and L2 in B (entered per L1 iteration) *)
  let enters =
    List.filter_map
      (function LE.Enter (l, _, _) -> Some (LE.loop_name l) | _ -> None)
      evs
  in
  Alcotest.(check bool) "at least 4 loop entries (1 + 3 inner)" true
    (List.length enters >= 4)

let test_recursion_fig3_ex2 () =
  let _, evs = collect Workloads.Figure3.ex2 in
  check_wellformed evs;
  let rec_enters =
    count
      (function LE.Enter (LE.Rec_comp _, _, _) -> true | _ -> false)
      evs
  in
  let rec_iters =
    count
      (function LE.Iterate (LE.Rec_comp _, _, _) -> true | _ -> false)
      evs
  in
  let rec_exits =
    count (function LE.Exit (LE.Rec_comp _, _, _) -> true | _ -> false) evs
  in
  Alcotest.(check int) "recursive loop entered once" 1 rec_enters;
  Alcotest.(check int) "recursive loop exited once" 1 rec_exits;
  (* rec_depth = 3 recursive calls: one Ic per call plus one Ir per
     return except the final one: 3 + 3 = 6 *)
  Alcotest.(check int) "iterations count calls + returns" 6 rec_iters

let test_calls_do_not_exit_loops () =
  (* a loop containing a call: the loop must stay live across the call *)
  let open Vm.Hir.Dsl in
  let module H = Vm.Hir in
  let _, evs =
    collect
      { H.funs =
          [ H.fundef "g" [] [ H.Let ("y", i 1) ];
            H.fundef "main" []
              [ H.for_ "k" (i 0) (i 3) [ H.CallS (None, "g", []) ] ] ];
        arrays = [];
        main = "main" }
  in
  check_wellformed evs;
  Alcotest.(check int) "single entry despite calls" 1
    (count (function LE.Enter _ -> true | _ -> false) evs);
  Alcotest.(check int) "single exit" 1
    (count (function LE.Exit _ -> true | _ -> false) evs)

let test_tree_recursion () =
  (* binary tree recursion (the paper: the recursive-component machinery
     is "useful beyond the restricted scope of this paper, for example to
     detect properties of tree-recursive calls") *)
  let open Vm.Hir.Dsl in
  let module H = Vm.Hir in
  let hir : H.program =
    { H.funs =
        [ H.fundef "fib" [ "n" ]
            [ H.If (v "n" <! i 2, [ H.Return (Some (v "n")) ], []);
              H.Let ("a", Callf ("fib", [ v "n" -! i 1 ]));
              H.Let ("b", Callf ("fib", [ v "n" -! i 2 ]));
              H.Return (Some (v "a" +! v "b")) ];
          H.fundef "main" [] [ H.CallS (Some "r", "fib", [ i 7 ]) ] ];
      arrays = [];
      main = "main" }
  in
  let _, evs = collect hir in
  check_wellformed evs;
  (* one recursive loop, entered and exited exactly once, iterating on
     every header call and every non-final header return *)
  Alcotest.(check int) "one entry" 1
    (count (function LE.Enter (LE.Rec_comp _, _, _) -> true | _ -> false) evs);
  Alcotest.(check int) "one exit" 1
    (count (function LE.Exit (LE.Rec_comp _, _, _) -> true | _ -> false) evs);
  let iters =
    count (function LE.Iterate (LE.Rec_comp _, _, _) -> true | _ -> false) evs
  in
  (* fib 7 makes 40 recursive calls (41 total), so 40 Ic + 40 Ir *)
  Alcotest.(check int) "iterations = 2 * recursive calls" 80 iters

let test_all_rodinia_wellformed () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let _, evs = collect w.hir in
      check_wellformed evs)
    [ Workloads.Backprop.workload; Workloads.Bfs.workload;
      Workloads.Heartwall.workload; Workloads.Pathfinder.workload ]

let () =
  Alcotest.run "loop_events"
    [ ( "algorithm 1",
        [ Alcotest.test_case "simple loop" `Quick test_simple_loop;
          Alcotest.test_case "nested loops" `Quick test_nested_loops;
          Alcotest.test_case "interprocedural nest (Fig. 3 Ex. 1)" `Quick
            test_interprocedural_loop_fig3_ex1;
          Alcotest.test_case "calls do not exit loops" `Quick
            test_calls_do_not_exit_loops ] );
      ( "algorithm 2",
        [ Alcotest.test_case "recursion (Fig. 3 Ex. 2)" `Quick
            test_recursion_fig3_ex2;
          Alcotest.test_case "tree recursion" `Quick test_tree_recursion ] );
      ( "well-formedness",
        [ Alcotest.test_case "workload traces" `Slow test_all_rodinia_wellformed ]
      ) ]
