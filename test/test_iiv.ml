(* Tests for the dynamic interprocedural iteration vector (Algorithm 3)
   and the schedule tree / CCT (paper §4, Figs. 3-5). *)

module LE = Ddg.Loop_events
module Iiv = Ddg.Iiv

(* replay a program, checking IIV invariants at every executed
   instruction: depth = number of live loops, and the (static-index
   decorated) schedule position grows lexicographically *)
let replay hir =
  Iiv.reset_intern_table ();
  let prog = Vm.Hir.lower hir in
  let structure = Cfg.Cfg_builder.run prog in
  let st = LE.create structure ~main:prog.Vm.Prog.main in
  let iiv = Iiv.create () in
  let stree = Ddg.Sched_tree.create () in
  let observations = ref [] in
  let apply ev =
    Iiv.update iiv ev;
    Alcotest.(check int)
      "IIV depth = live loop depth" (LE.live_depth st) (Iiv.depth iiv)
  in
  LE.start st ~emit:apply;
  let callbacks =
    { Vm.Interp.on_control = (fun ev -> LE.feed st ~emit:apply ev);
      on_exec =
        (fun _ ->
          let ctx = Iiv.context iiv in
          Ddg.Sched_tree.record stree iiv ~weight:1;
          let kelly = Ddg.Sched_tree.kelly_path stree ctx in
          (* schedule position: interleave static indices and ivs *)
          let coords = Iiv.coords iiv in
          let pos =
            List.concat
              (List.mapi
                 (fun k (idx, _) ->
                   if k < Array.length coords then [ idx; coords.(k) ]
                   else [ idx ])
                 kelly)
          in
          observations := pos :: !observations)
      }
  in
  let (_ : Vm.Interp.stats) = Vm.Interp.run ~callbacks prog in
  LE.finish st ~emit:apply;
  (stree, List.rev !observations)

(* Not fully lexicographic across all statements (kelly interleaving is
   per-leaf), but within one leaf the iv vectors must increase. *)
let test_coords_increase_within_context () =
  Iiv.reset_intern_table ();
  let open Vm.Hir.Dsl in
  let module H = Vm.Hir in
  let hir =
    { H.funs =
        [ H.fundef "main" []
            [ H.for_ "a" (i 0) (i 3)
                [ H.for_ "b" (i 0) (i 4) [ store "out" (i 0) (v "b") ] ] ] ];
      arrays = [ ("out", 1) ];
      main = "main" }
  in
  let prog = H.lower hir in
  let structure = Cfg.Cfg_builder.run prog in
  let st = LE.create structure ~main:prog.Vm.Prog.main in
  let iiv = Iiv.create () in
  let per_ctx : (int, int array) Hashtbl.t = Hashtbl.create 8 in
  let apply = Iiv.update iiv in
  LE.start st ~emit:apply;
  let callbacks =
    { Vm.Interp.on_control = (fun ev -> LE.feed st ~emit:apply ev);
      on_exec =
        (fun _ ->
          let ctx = Iiv.context_id iiv in
          let c = Iiv.coords iiv in
          (match Hashtbl.find_opt per_ctx ctx with
          | Some prev ->
              Alcotest.(check bool)
                "coords non-decreasing per context" true
                (Pp_util.Vecint.compare_lex prev c <= 0)
          | None -> ());
          Hashtbl.replace per_ctx ctx c) }
  in
  let (_ : Vm.Interp.stats) = Vm.Interp.run ~callbacks prog in
  ()

(* [Iiv.coords] hands out one array per iteration: every instruction of
   an iteration gets the same physical array, and an Enter, Iterate or
   Exit a new one, leaving the old array's values as they were. *)
let test_coords_shared_per_iteration () =
  Iiv.reset_intern_table ();
  let open Vm.Hir.Dsl in
  let module H = Vm.Hir in
  let hir =
    { H.funs =
        [ H.fundef "main" []
            [ H.for_ "a" (i 0) (i 3)
                [ store "out" (i 0) (v "a");
                  H.for_ "b" (i 0) (i 2) [ store "out" (i 1) (v "b") ];
                  store "out" (i 2) (v "a") ] ] ];
      arrays = [ ("out", 3) ];
      main = "main" }
  in
  let prog = H.lower hir in
  let structure = Cfg.Cfg_builder.run prog in
  let st = LE.create structure ~main:prog.Vm.Prog.main in
  let iiv = Iiv.create () in
  (* [epoch] counts the events that move the iteration vector *)
  let epoch = ref 0 in
  let apply ev =
    (match ev with
    | LE.Enter _ | LE.Iterate _ | LE.Exit _ -> incr epoch
    | LE.Block _ | LE.Call_push _ | LE.Ret_pop _ -> ());
    Iiv.update iiv ev
  in
  LE.start st ~emit:apply;
  (* (epoch, the array handed out, a copy of its values then) *)
  let seen = ref [] in
  let callbacks =
    { Vm.Interp.on_control = (fun ev -> LE.feed st ~emit:apply ev);
      on_exec =
        (fun _ ->
          let c = Iiv.coords iiv in
          Alcotest.(check bool) "same array within one iteration" true
            (c == Iiv.coords iiv);
          seen := (!epoch, c, Array.copy c) :: !seen) }
  in
  let (_ : Vm.Interp.stats) = Vm.Interp.run ~callbacks prog in
  let seen = List.rev !seen in
  List.iter
    (fun (e1, c1, v1) ->
      Alcotest.(check (array int)) "old array keeps its values" v1 c1;
      List.iter
        (fun (e2, c2, _) ->
          if e1 = e2 then
            Alcotest.(check bool) "one array per iteration" true (c1 == c2)
          else if Array.length c1 > 0 && Array.length c2 > 0 then
            Alcotest.(check bool) "a new array after Enter/Iterate/Exit" false
              (c1 == c2))
        seen)
    seen;
  Alcotest.(check bool) "several iterations seen" true
    (List.length (List.sort_uniq compare (List.map (fun (e, _, _) -> e) seen)) > 6)

(* At every executed instruction, [context_of_id] inverts
   [context_id], and the ids are those a list-keyed intern table would
   issue for the same queries: dense, in first-query order. *)
let check_context_ids prog =
  Iiv.reset_intern_table ();
  let structure = Cfg.Cfg_builder.run prog in
  let st = LE.create structure ~main:prog.Vm.Prog.main in
  let iiv = Iiv.create () in
  let reference : (Iiv.context, int) Hashtbl.t = Hashtbl.create 64 in
  let ok = ref true in
  let emit = Iiv.update iiv in
  LE.start st ~emit;
  let callbacks =
    { Vm.Interp.on_control = (fun ev -> LE.feed st ~emit ev);
      on_exec =
        (fun _ ->
          let c = Iiv.context iiv and id = Iiv.context_id iiv in
          let expected =
            match Hashtbl.find_opt reference c with
            | Some id -> id
            | None ->
                let id = Hashtbl.length reference in
                Hashtbl.add reference c id;
                id
          in
          if id <> expected || Iiv.context_of_id id <> c then ok := false) }
  in
  let (_ : Vm.Interp.stats) = Vm.Interp.run ~callbacks prog in
  !ok

let test_context_ids_suite () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      Alcotest.(check bool) w.Workloads.Workload.w_name true
        (check_context_ids (Vm.Hir.lower w.Workloads.Workload.hir)))
    Workloads.Runner.suite

let test_context_ids_random () =
  List.iter
    (fun seed ->
      Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true
        (check_context_ids (Vm.Hir.lower (Random_gen.gen_program_rec seed))))
    (List.init 40 (fun k -> 3 + (104729 * k)))

let test_fig3_ex1_depth_two () =
  let stree, _ = replay Workloads.Figure3.ex1 in
  (* the interprocedural nest makes the tree 2 loop-levels deep *)
  let rec max_loop_depth n acc =
    let acc = if Ddg.Sched_tree.is_loop_node n then acc + 1 else acc in
    List.fold_left
      (fun m c -> max m (max_loop_depth c acc))
      acc
      (Ddg.Sched_tree.children_in_order n)
  in
  Alcotest.(check int) "2-deep interprocedural nest" 2
    (max_loop_depth (Ddg.Sched_tree.root stree) 0)

let test_fig3_ex2_recursion_depth_one () =
  let stree, _ = replay Workloads.Figure3.ex2 in
  let rec max_loop_depth n acc =
    let acc = if Ddg.Sched_tree.is_loop_node n then acc + 1 else acc in
    List.fold_left
      (fun m c -> max m (max_loop_depth c acc))
      acc
      (Ddg.Sched_tree.children_in_order n)
  in
  (* the recursion folds into ONE loop dimension *)
  Alcotest.(check int) "recursion folds to depth 1" 1
    (max_loop_depth (Ddg.Sched_tree.root stree) 0)

let test_schedule_tree_weights () =
  let stree, obs = replay Workloads.Figure3.ex2 in
  Alcotest.(check int) "total weight = executed instructions"
    (List.length obs)
    (Ddg.Sched_tree.total_weight (Ddg.Sched_tree.root stree))

let test_kelly_static_indices () =
  let stree, _ = replay Workloads.Figure3.ex1 in
  (* siblings get distinct, dense static indices in first-seen order *)
  let rec check n =
    let children = Ddg.Sched_tree.children_in_order n in
    List.iteri
      (fun k c ->
        Alcotest.(check int) "dense first-seen numbering" k
          c.Ddg.Sched_tree.static_index)
      children;
    List.iter check children
  in
  check (Ddg.Sched_tree.root stree)

let test_cct_grows_with_recursion () =
  (* contrast of Fig. 5a: CCT depth ~ recursion depth, schedule tree
     depth ~ loop depth *)
  let prog = Vm.Hir.lower Workloads.Figure3.ex2 in
  let cct = Ddg.Cct.create ~main:prog.Vm.Prog.main in
  let callbacks =
    { Vm.Interp.on_control = Ddg.Cct.on_control cct; on_exec = ignore }
  in
  let (_ : Vm.Interp.stats) = Vm.Interp.run ~callbacks prog in
  Alcotest.(check bool) "CCT depth >= recursion depth" true
    (Ddg.Cct.max_depth cct >= 4);
  Alcotest.(check bool) "CCT has a node per context" true
    (Ddg.Cct.n_nodes cct >= 7)

(* Fig. 4: Kelly's mapping for a fused vs a fissioned nest *)
let test_fig4_kelly_fused_vs_fissioned () =
  let open Vm.Hir.Dsl in
  let module H = Vm.Hir in
  let fused =
    { H.funs =
        [ H.fundef "main" []
            [ H.for_ "i" (i 0) (i 3)
                [ H.for_ "j" (i 0) (i 3)
                    [ store "a" ((v "i" *! i 3) +! v "j") (i 1);  (* S *)
                      store "b" ((v "i" *! i 3) +! v "j") (i 2)   (* T *) ] ] ] ];
      arrays = [ ("a", 9); ("b", 9) ];
      main = "main" }
  in
  let stree, _ = replay fused in
  (* in the fused schedule S and T share both loop dimensions: the tree
     has exactly one loop at each of the two levels *)
  let root = Ddg.Sched_tree.root stree in
  let loops_at n =
    List.filter Ddg.Sched_tree.is_loop_node (Ddg.Sched_tree.children_in_order n)
  in
  (match loops_at root with
  | [ li ] -> (
      match loops_at li with
      | [ _lj ] -> ()
      | l -> Alcotest.fail (Printf.sprintf "fused: %d inner loops" (List.length l)))
  | l -> Alcotest.fail (Printf.sprintf "fused: %d outer loops" (List.length l)));
  let fissioned =
    { H.funs =
        [ H.fundef "main" []
            [ H.for_ "i" (i 0) (i 3)
                [ H.for_ "j" (i 0) (i 3)
                    [ store "a" ((v "i" *! i 3) +! v "j") (i 1) ] ];
              H.for_ "i2" (i 0) (i 3)
                [ H.for_ "j2" (i 0) (i 3)
                    [ store "b" ((v "i2" *! i 3) +! v "j2") (i 2) ] ] ] ];
      arrays = [ ("a", 9); ("b", 9) ];
      main = "main" }
  in
  let stree2, _ = replay fissioned in
  (* after fission there are two top-level loops with distinct static
     indices: the lexicographic prefix [0,...] < [1,...] of Fig. 4c *)
  (match loops_at (Ddg.Sched_tree.root stree2) with
  | [ l1; l2 ] ->
      Alcotest.(check bool) "distinct static indices" true
        (l1.Ddg.Sched_tree.static_index <> l2.Ddg.Sched_tree.static_index)
  | l -> Alcotest.fail (Printf.sprintf "fissioned: %d outer loops" (List.length l)))

let test_rendering () =
  Iiv.reset_intern_table ();
  let iiv = Iiv.create () in
  (* build (f0.b0) then enter a loop and iterate: Fig. 3d notation *)
  Iiv.update iiv (LE.Block (0, 0));
  Alcotest.(check string) "statement ctx" "(f0.b0)" (Iiv.to_string iiv);
  Iiv.update iiv (LE.Call_push (1, 0));
  Alcotest.(check string) "call pushes" "(f0.b0/f1.b0)" (Iiv.to_string iiv)

let () =
  Alcotest.run "iiv"
    [ ( "algorithm 3",
        [ Alcotest.test_case "coords increase per context" `Quick
            test_coords_increase_within_context;
          Alcotest.test_case "interprocedural depth (Ex. 1)" `Quick
            test_fig3_ex1_depth_two;
          Alcotest.test_case "recursion folds (Ex. 2)" `Quick
            test_fig3_ex2_recursion_depth_one;
          Alcotest.test_case "rendering" `Quick test_rendering;
          Alcotest.test_case "Kelly mapping, fused vs fissioned (Fig. 4)"
            `Quick test_fig4_kelly_fused_vs_fissioned;
          Alcotest.test_case "coords shared per iteration" `Quick
            test_coords_shared_per_iteration;
          Alcotest.test_case "context ids, suite" `Quick test_context_ids_suite;
          Alcotest.test_case "context ids, random programs" `Quick
            test_context_ids_random ] );
      ( "schedule tree",
        [ Alcotest.test_case "weights" `Quick test_schedule_tree_weights;
          Alcotest.test_case "Kelly static indices" `Quick
            test_kelly_static_indices ] );
      ( "calling-context tree",
        [ Alcotest.test_case "CCT grows with recursion (Fig. 5a)" `Quick
            test_cct_grows_with_recursion ] ) ]
