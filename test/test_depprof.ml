(* Tests for Instrumentation II: shadow memory/registers, statement
   folding, SCEV recognition and pruning, dependence folding. *)

open Vm.Hir.Dsl
module H = Vm.Hir
module P = Minisl.Polyhedron
module A = Minisl.Affine
module Rat = Pp_util.Rat

let profile hir =
  let prog = H.lower hir in
  let structure = Cfg.Cfg_builder.run prog in
  (prog, Ddg.Depprof.profile prog ~structure)

let test_shadow_memory () =
  let s = Ddg.Shadow.create () in
  Alcotest.(check int) "unknown addr" (-1) (Ddg.Shadow.mem_tag s ~addr:5);
  let c1 = [| 3 |] in
  Ddg.Shadow.write_mem s ~addr:5 ~tag:1 ~coords:c1;
  Alcotest.(check int) "writer tag" 1 (Ddg.Shadow.mem_tag s ~addr:5);
  Alcotest.(check bool) "writer coords, shared" true
    (Ddg.Shadow.mem_coords s ~addr:5 == c1);
  Ddg.Shadow.write_mem s ~addr:5 ~tag:2 ~coords:c1;
  Alcotest.(check int) "last writer wins" 2 (Ddg.Shadow.mem_tag s ~addr:5);
  Alcotest.(check int) "one shadowed word" 1 (Ddg.Shadow.n_shadowed_words s);
  (* the words on both sides of a page boundary, and a negative one *)
  List.iteri
    (fun tag addr -> Ddg.Shadow.write_mem s ~addr ~tag ~coords:[| addr |])
    [ 4095; 4096; -1; -4096; -4097 ];
  List.iteri
    (fun tag addr ->
      Alcotest.(check int) (Printf.sprintf "tag at %d" addr) tag
        (Ddg.Shadow.mem_tag s ~addr))
    [ 4095; 4096; -1; -4096; -4097 ];
  Alcotest.(check int) "unwritten neighbour" (-1) (Ddg.Shadow.mem_tag s ~addr:4094);
  Alcotest.(check int) "six shadowed words" 6 (Ddg.Shadow.n_shadowed_words s)

let test_shadow_register_frames () =
  let s = Ddg.Shadow.create () in
  let c = [||] in
  Ddg.Shadow.write_reg s ~reg:3 ~tag:7 ~coords:c;
  Ddg.Shadow.push_frame s;
  Alcotest.(check int) "callee frame is clean" (-1) (Ddg.Shadow.reg_tag s ~reg:3);
  Ddg.Shadow.write_reg s ~reg:3 ~tag:8 ~coords:c;
  Ddg.Shadow.write_reg s ~reg:40 ~tag:9 ~coords:c;
  Ddg.Shadow.pop_frame s;
  Alcotest.(check int) "caller frame restored" 7 (Ddg.Shadow.reg_tag s ~reg:3);
  Ddg.Shadow.push_frame s;
  Alcotest.(check (list int)) "a frame pushed again at the same depth is clean"
    [ -1; -1 ]
    [ Ddg.Shadow.reg_tag s ~reg:3; Ddg.Shadow.reg_tag s ~reg:40 ];
  Alcotest.(check int) "and holds no coordinates" 0
    (Array.length (Ddg.Shadow.reg_coords s ~reg:40));
  Ddg.Shadow.pop_frame s;
  Alcotest.check_raises "unbalanced pop" (Invalid_argument "Shadow.pop_frame: unbalanced")
    (fun () -> Ddg.Shadow.pop_frame s)

(* The shadow as a reference model: polymorphic hash tables of
   [(tag, coords)], one per call frame. *)
module Model = struct
  type t = {
    mem : (int, int * int array) Hashtbl.t;
    mutable frames : (int, int * int array) Hashtbl.t list;
  }

  let create () = { mem = Hashtbl.create 4096; frames = [ Hashtbl.create 16 ] }
  let write_mem t ~addr w = Hashtbl.replace t.mem addr w
  let mem_writer t ~addr = Hashtbl.find_opt t.mem addr
  let push_frame t = t.frames <- Hashtbl.create 16 :: t.frames

  let pop_frame t =
    match t.frames with
    | _ :: (_ :: _ as rest) -> t.frames <- rest
    | _ -> invalid_arg "Shadow.pop_frame: unbalanced"

  let top t = match t.frames with f :: _ -> f | [] -> assert false
  let write_reg t ~reg w = Hashtbl.replace (top t) reg w
  let reg_writer t ~reg = Hashtbl.find_opt (top t) reg
  let frame_depth t = List.length t.frames
  let n_shadowed_words t = Hashtbl.length t.mem
end

type shadow_op =
  | Write_mem of int * int
  | Write_reg of int * int
  | Push
  | Pop
  | Read_mem of int
  | Read_reg of int

(* Addresses: small, negative, on both sides of the 4096-word page
   boundaries around 0, and far apart (up to the ends of [int]).
   Registers go up to 40, past the 16 slots a fresh frame starts
   with. *)
let gen_addr =
  QCheck.Gen.(
    frequency
      [ (3, int_bound 50);
        (2, int_range (-50) (-1));
        (2, map2 (fun k d -> (k * 4096) + d) (int_range (-2) 2) (int_range (-3) 2));
        (1, oneofl [ 1 lsl 40; -(1 lsl 40); (1 lsl 40) + 4096; max_int; min_int ]);
        (1, int_range (-(1 lsl 50)) (1 lsl 50)) ])

let gen_shadow_op =
  QCheck.Gen.(
    frequency
      [ (3, map2 (fun a t -> Write_mem (a, t)) gen_addr (int_bound 1000));
        (3, map2 (fun r t -> Write_reg (r, t)) (int_range 0 40) (int_bound 1000));
        (1, return Push);
        (1, return Pop);
        (3, map (fun a -> Read_mem a) gen_addr);
        (3, map (fun r -> Read_reg r) (int_range 0 40)) ])

let print_shadow_op = function
  | Write_mem (a, t) -> Printf.sprintf "write_mem %d <- %d" a t
  | Write_reg (r, t) -> Printf.sprintf "write_reg %d <- %d" r t
  | Push -> "push"
  | Pop -> "pop"
  | Read_mem a -> Printf.sprintf "read_mem %d" a
  | Read_reg r -> Printf.sprintf "read_reg %d" r

let prop_shadow_matches_model =
  QCheck.Test.make ~name:"shadow agrees with the hash-table model" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_shadow_op)
       QCheck.Gen.(list_size (int_range 0 200) gen_shadow_op))
    (fun ops ->
      let s = Ddg.Shadow.create () and m = Model.create () in
      let same tag coords = function
        | None -> tag = -1 && coords = [||]
        | Some (t, c) -> tag = t && coords == c
      in
      let clear_frame () =
        List.for_all
          (fun reg ->
            Ddg.Shadow.reg_tag s ~reg = -1 && Ddg.Shadow.reg_coords s ~reg = [||])
          (List.init 41 Fun.id)
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Write_mem (addr, tag) ->
                let coords = [| tag; addr |] in
                Ddg.Shadow.write_mem s ~addr ~tag ~coords;
                Model.write_mem m ~addr (tag, coords);
                true
            | Write_reg (reg, tag) ->
                let coords = [| reg |] in
                Ddg.Shadow.write_reg s ~reg ~tag ~coords;
                Model.write_reg m ~reg (tag, coords);
                true
            | Push ->
                Ddg.Shadow.push_frame s;
                Model.push_frame m;
                clear_frame ()
            | Pop -> (
                let r1 = try Ddg.Shadow.pop_frame s; None with Invalid_argument e -> Some e in
                let r2 = try Model.pop_frame m; None with Invalid_argument e -> Some e in
                r1 = r2)
            | Read_mem addr ->
                same (Ddg.Shadow.mem_tag s ~addr) (Ddg.Shadow.mem_coords s ~addr)
                  (Model.mem_writer m ~addr)
            | Read_reg reg ->
                same (Ddg.Shadow.reg_tag s ~reg) (Ddg.Shadow.reg_coords s ~reg)
                  (Model.reg_writer m ~reg)
          in
          ok
          && Ddg.Shadow.frame_depth s = Model.frame_depth m
          && Ddg.Shadow.n_shadowed_words s = Model.n_shadowed_words m)
        ops)

(* a producer loop feeding a consumer loop: one clean affine dep *)
let producer_consumer : H.program =
  { H.funs =
      [ H.fundef "main" []
          [ H.for_ "p" (i 0) (i 20) [ store "a" (v "p") (Itof (v "p") *? f 1.5) ];
            H.Let ("acc", f 0.0);
            H.for_ "c" (i 0) (i 20) [ H.Let ("acc", v "acc" +? "a".%[v "c"]) ] ] ];
    arrays = [ ("a", 20) ];
    main = "main" }

let test_mem_dep_folded () =
  let _, res = profile producer_consumer in
  let mem_deps =
    List.filter
      (fun (d : Ddg.Depprof.dep_info) -> d.dk.kind = Ddg.Depprof.Mem_dep)
      res.deps
  in
  Alcotest.(check int) "exactly one memory dep survives" 1
    (List.length mem_deps);
  let d = List.hd mem_deps in
  Alcotest.(check int) "20 dynamic edges" 20 d.d_count;
  (match d.d_pieces with
  | [ p ] ->
      Alcotest.(check bool) "exact" true p.Fold.exact;
      (match p.Fold.labels.(0) with
      | Some f ->
          (* producer iteration = consumer iteration *)
          Alcotest.(check bool) "identity map" true
            (Rat.equal f.A.coeffs.(0) Rat.one && Rat.is_zero f.A.const)
      | None -> Alcotest.fail "label lost")
  | _ -> Alcotest.fail "expected one piece");
  match Ddg.Depprof.dep_map d with
  | Some m -> (
      match Minisl.Pmap.apply_int m [| 7 |] with
      | Some img -> Alcotest.(check (array int)) "apply" [| 7 |] img
      | None -> Alcotest.fail "apply failed")
  | None -> Alcotest.fail "dep_map failed"

let test_scev_pruning () =
  let _, res = profile producer_consumer in
  Alcotest.(check bool) "pruned something" true (res.pruned_dep_edges > 0);
  let scevs = List.filter (fun (s : Ddg.Depprof.stmt_info) -> s.is_scev) res.stmts in
  Alcotest.(check bool) "found SCEV statements" true (List.length scevs >= 2);
  List.iter
    (fun (d : Ddg.Depprof.dep_info) ->
      List.iter
        (fun (s : Ddg.Depprof.stmt_info) ->
          if s.is_scev then begin
            Alcotest.(check bool) "scev not a producer" false
              (d.dk.src_sid = s.sk.s_sid && d.dk.src_ctx = s.sk.s_ctx);
            Alcotest.(check bool) "scev not a consumer" false
              (d.dk.dst_sid = s.sk.s_sid && d.dk.dst_ctx = s.sk.s_ctx)
          end)
        res.stmts)
    res.deps

let test_stmt_domains_exact () =
  let _, res = profile producer_consumer in
  List.iter
    (fun (s : Ddg.Depprof.stmt_info) ->
      if s.depth = 1 then begin
        Alcotest.(check bool) "loop statements fold exactly" true s.affine_exact;
        let pts =
          List.fold_left (fun acc (p : Fold.piece) -> acc + p.Fold.points) 0
            s.s_pieces
        in
        (* body statements run 20 times; the header compare runs 21 *)
        Alcotest.(check bool) "20 or 21 points" true (pts = 20 || pts = 21)
      end)
    res.stmts

let test_counts_match_interpreter () =
  let _, res = profile producer_consumer in
  let total =
    List.fold_left
      (fun acc (s : Ddg.Depprof.stmt_info) -> acc + s.s_count)
      0 res.stmts
  in
  Alcotest.(check int) "per-stmt counts sum to dyn instrs"
    res.run_stats.Vm.Interp.dyn_instrs total

let test_reduction_dep_distance_one () =
  let _, res = profile producer_consumer in
  let carried =
    List.filter
      (fun (d : Ddg.Depprof.dep_info) ->
        d.dk.kind = Ddg.Depprof.Reg_dep
        && d.src_depth = 1 && d.dst_depth = 1
        && List.exists
             (fun (p : Fold.piece) ->
               match p.Fold.labels.(0) with
               | Some f -> Rat.equal f.A.const (Rat.of_int (-1))
               | None -> false)
             d.d_pieces)
      res.deps
  in
  Alcotest.(check bool) "found the carried reduction dep" true (carried <> [])

(* soundness: folded memory dependences map consumer points into the
   producer's folded domain *)
let test_dep_soundness_on_workload () =
  let _, res = profile Workloads.Backprop.hir in
  let stmt_of sid ctx =
    List.find_opt
      (fun (s : Ddg.Depprof.stmt_info) -> s.sk.s_sid = sid && s.sk.s_ctx = ctx)
      res.stmts
  in
  List.iter
    (fun (d : Ddg.Depprof.dep_info) ->
      match (Ddg.Depprof.dep_map d, stmt_of d.dk.src_sid d.dk.src_ctx) with
      | Some m, Some src_stmt ->
          let src_dom = Ddg.Depprof.stmt_domain src_stmt in
          List.iter
            (fun (piece : Minisl.Pmap.piece) ->
              if Minisl.Polyhedron.dim piece.Minisl.Pmap.dom <= 4 then
                match P.sample piece.Minisl.Pmap.dom with
                | Some pt -> (
                    match Minisl.Pmap.apply_int m pt with
                    | Some img ->
                        Alcotest.(check bool)
                          "producer image lies in its domain" true
                          (Minisl.Pset.mem src_dom img)
                    | None -> ())
                | None -> ())
            (Minisl.Pmap.pieces m)
      | _ -> ())
    res.deps

let test_fig3_ex1_folded_domains () =
  (* the interprocedural 2-D nest of Fig. 3 Ex. 1: the statement in the
     inner (callee) loop folds into a full 3x3 rectangle spanning both
     the caller's and the callee's dimensions *)
  let _, res = profile Workloads.Figure3.ex1 in
  let two_d =
    List.filter (fun (s : Ddg.Depprof.stmt_info) -> s.depth = 2) res.stmts
  in
  Alcotest.(check bool) "2-D statements found" true (two_d <> []);
  List.iter
    (fun (s : Ddg.Depprof.stmt_info) ->
      Alcotest.(check bool) "exact" true s.affine_exact;
      match s.s_pieces with
      | [ p ] ->
          (* body statements run 3x3 = 9 times; the inner header's
             bound/compare instructions run 3x4 = 12 *)
          Alcotest.(check bool) "3x3 or 3x4 points" true
            (p.Fold.points = 9 || p.Fold.points = 12);
          Alcotest.(check bool) "rectangle" true
            (P.mem p.Fold.dom [| 0; 0 |] && P.mem p.Fold.dom [| 2; 2 |]
            && not (P.mem p.Fold.dom [| 3; 0 |]))
      | _ -> Alcotest.fail "expected one piece")
    two_d

let test_waw_tracking_optional () =
  let cfg = { Ddg.Depprof.default_config with track_waw = true } in
  let prog = H.lower producer_consumer in
  let structure = Cfg.Cfg_builder.run prog in
  let res = Ddg.Depprof.profile ~config:cfg prog ~structure in
  Alcotest.(check bool) "profiling with WAW works" true (List.length res.stmts > 0)

let metric_count name =
  List.fold_left
    (fun acc ((d : Obs.Metrics.desc), v) ->
      match v with
      | Obs.Metrics.Vint n when d.d_name = name -> n
      | _ -> acc)
    0 (Obs.Metrics.snapshot ())

(* [finalize] splits the collectors that spilled into over-approximation
   between statements and dependences; together they are the folded
   collectors [fold.approx_spills] counts *)
let test_approx_spill_counters () =
  let prog = H.lower producer_consumer in
  let structure = Cfg.Cfg_builder.run prog in
  let counts config =
    Obs.Metrics.reset ();
    ignore (Ddg.Depprof.profile ~config prog ~structure);
    ( metric_count "ddg.finalize.approx_stmt",
      metric_count "ddg.finalize.approx_dep",
      metric_count "fold.approx_spills" )
  in
  let stmt_spill = { Ddg.Depprof.default_config with stmt_cap = 8 } in
  let dep_spill = { Ddg.Depprof.default_config with dep_cap = 8 } in
  Alcotest.(check (triple int int int)) "nothing counted with telemetry off"
    (0, 0, 0) (counts stmt_spill);
  Obs.Registry.with_enabled @@ fun () ->
  let s, d, all = counts stmt_spill in
  Alcotest.(check bool) "statement spills" true (s > 0);
  Alcotest.(check int) "no dependence spills" 0 d;
  Alcotest.(check int) "split of fold.approx_spills" all (s + d);
  let s, d, all = counts dep_spill in
  Alcotest.(check int) "no statement spills" 0 s;
  Alcotest.(check bool) "dependence spills" true (d > 0);
  Alcotest.(check int) "split of fold.approx_spills" all (s + d)

(* SCEV prediction: statements predicted SCEV before the run skip
   dependence collection; the fold verifies every prediction and a
   refuted one reruns the profile without prediction. *)

(* A profile with its decision counters: (result, reruns, predicted). *)
let counted profile =
  Obs.Registry.with_enabled @@ fun () ->
  Obs.Metrics.reset ();
  let r = profile () in
  (r, metric_count "ddg.profile.scev_reruns", metric_count "ddg.profile.scev_predicted")

(* The pruned profile derived from an unpruned one: the same statements,
   and the dependences without a SCEV endpoint. *)
let scev_pruned_of (u : Ddg.Depprof.result) =
  let scev = Hashtbl.create 64 in
  List.iter
    (fun (s : Ddg.Depprof.stmt_info) -> if s.is_scev then Hashtbl.replace scev s.sk ())
    u.stmts;
  let drop (d : Ddg.Depprof.dep_info) =
    Hashtbl.mem scev { Ddg.Depprof.s_ctx = d.dk.src_ctx; s_sid = d.dk.src_sid }
    || Hashtbl.mem scev { Ddg.Depprof.s_ctx = d.dk.dst_ctx; s_sid = d.dk.dst_sid }
  in
  { u with
    deps = List.filter (fun d -> not (drop d)) u.deps;
    pruned_dep_edges =
      List.fold_left
        (fun n (d : Ddg.Depprof.dep_info) -> if drop d then n + d.d_count else n)
        0 u.deps }

let unpruned = { Ddg.Depprof.default_config with scev_prune = false }

let test_scev_prediction_suite () =
  let predicted = ref 0 and scev = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let prog = H.lower w.hir in
      let structure = Cfg.Cfg_builder.run prog in
      let pred = Ddg.Scev_pred.compute prog structure in
      let res, reruns, n_predicted =
        counted (fun () -> Ddg.Depprof.profile prog ~structure)
      in
      Alcotest.(check int) (w.w_name ^ ": no prediction refuted") 0 reruns;
      Alcotest.(check bool) (w.w_name ^ ": the profile without prediction") true
        (Ddg.Depprof.equal_result res
           (scev_pruned_of (Ddg.Depprof.profile ~config:unpruned prog ~structure)));
      let marked =
        List.filter
          (fun (s : Ddg.Depprof.stmt_info) -> Ddg.Scev_pred.mem pred s.sk.s_sid)
          res.stmts
      in
      Alcotest.(check int)
        (w.w_name ^ ": scev_predicted")
        (List.length marked) n_predicted;
      List.iter
        (fun (s : Ddg.Depprof.stmt_info) ->
          if s.is_scev then begin
            incr scev;
            if Ddg.Scev_pred.mem pred s.sk.s_sid then incr predicted
          end)
        res.stmts)
    Workloads.Runner.suite;
  Printf.printf "SCEV prediction recall over the suite: %d of %d SCEV statements\n"
    !predicted !scev;
  Alcotest.(check bool) "most SCEV statements predicted" true (2 * !predicted > !scev)

(* The prediction runs before every profile: over the benchmark's
   polybench programs it must allocate less than the 0.19 Mwords of
   dependence collectors it saves there. *)
let test_scev_prediction_allocation () =
  let inputs =
    List.map
      (fun (w : Workloads.Workload.t) ->
        let prog = H.lower w.hir in
        (prog, Cfg.Cfg_builder.run prog))
      (Workloads.Gems_fdtd.workload :: Workloads.Polybench.all)
  in
  let before = Gc.minor_words () in
  List.iter (fun (prog, structure) -> ignore (Ddg.Scev_pred.compute prog structure)) inputs;
  let words = Gc.minor_words () -. before in
  Printf.printf "SCEV prediction over the polybench programs: %.0f words\n" words;
  Alcotest.(check bool) "under 0.19 Mwords" true (words < 190_000.)

(* The inner while loop's trip count is loaded from [trip], which varies
   irregularly with the outer index: its counter [j] is predicted SCEV
   (its one in-loop definition is [j = j + 1]), but its domain does not
   fold into few affine pieces. *)
let data_dependent_trip : H.program =
  { H.funs =
      [ H.fundef "main" []
          [ H.for_ "i" (i 0) (i 40) [ store "trip" (v "i") ((v "i" *! i 7) %! i 11) ];
            H.for_ "i" (i 0) (i 40)
              [ H.Let ("j", i 0);
                H.while_
                  (v "j" <! "trip".%[v "i"])
                  [ store "out" ((v "i" *! i 16) +! v "j") (v "i" +! v "j");
                    H.Let ("j", v "j" +! i 1) ] ] ] ];
    arrays = [ ("trip", 40); ("out", 640) ];
    main = "main" }

let test_scev_prediction_refuted () =
  let prog = H.lower data_dependent_trip in
  let structure = Cfg.Cfg_builder.run prog in
  let expected = scev_pruned_of (Ddg.Depprof.profile ~config:unpruned prog ~structure) in
  let pred = Ddg.Scev_pred.compute prog structure in
  Alcotest.(check bool) "a prediction the fold refutes" true
    (List.exists
       (fun (s : Ddg.Depprof.stmt_info) ->
         Ddg.Scev_pred.mem pred s.sk.s_sid && not s.is_scev)
       expected.stmts);
  let live, reruns, _ = counted (fun () -> Ddg.Depprof.profile prog ~structure) in
  Alcotest.(check int) "one rerun, live" 1 reruns;
  Alcotest.(check bool) "live profile equals the unpredicted one" true
    (Ddg.Depprof.equal_result live expected);
  let path = Filename.temp_file "polyprof_scev" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (Stream.Trace_file.record_to_file prog path);
  let replayed, reruns, _ =
    counted (fun () ->
        (Stream.Par_profile.profile_file path prog ~structure).Stream.Par_profile.result)
  in
  Alcotest.(check int) "one rerun, replayed from a file" 1 reruns;
  Alcotest.(check bool) "replayed profile equals the unpredicted one" true
    (Ddg.Depprof.equal_result replayed expected)

(* Speculated structure: without a [~structure], a profile runs under
   [Cfg_builder.static], recovers the run's own structure from the same
   events and reruns only if the two disagree; every output must equal
   the two-run pipeline's. *)

(* A profile with its count of structure reruns. *)
let rerun_counted profile =
  Obs.Registry.with_enabled @@ fun () ->
  Obs.Metrics.reset ();
  let r = profile () in
  (r, metric_count "ddg.profile.structure_reruns")

let show pp x = Format.asprintf "%a" pp x

(* [one_run] equals the two-run profile in everything a caller prints. *)
let check_same_profile name (two_run : Ddg.Depprof.result)
    (one_run : Ddg.Depprof.result) =
  Alcotest.(check bool) (name ^ ": same profile") true
    (Ddg.Depprof.equal_result two_run one_run);
  Alcotest.(check bool) (name ^ ": same run stats") true
    (two_run.run_stats = one_run.run_stats);
  Alcotest.(check string) (name ^ ": same schedule tree")
    (show (fun fmt t -> Ddg.Sched_tree.pp fmt t) two_run.stree)
    (show (fun fmt t -> Ddg.Sched_tree.pp fmt t) one_run.stree);
  Alcotest.(check string) (name ^ ": same structure")
    (show Cfg.Cfg_builder.pp_structure two_run.structure)
    (show Cfg.Cfg_builder.pp_structure one_run.structure)

let test_spec_cfg_suite () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let prog = H.lower w.hir in
      let two_run = Ddg.Depprof.profile prog ~structure:(Cfg.Cfg_builder.run prog) in
      let one_run, structure_reruns =
        rerun_counted (fun () -> Ddg.Depprof.profile prog)
      in
      Alcotest.(check int) (w.w_name ^ ": no structure rerun") 0 structure_reruns;
      check_same_profile w.w_name two_run one_run)
    Workloads.Runner.suite

(* The loop's trip count is loaded from memory, which holds 0: the
   static forest has a loop the run never iterates. *)
let zero_trip : H.program =
  { H.funs =
      [ H.fundef "main" []
          [ H.for_ "i" (i 0) ("n".%[i 0]) [ store "a" (v "i") (v "i" *! i 3) ];
            H.for_ "k" (i 0) (i 8) [ store "a" (v "k") ("a".%[v "k"] +! i 1) ] ] ];
    arrays = [ ("n", 1); ("a", 8) ];
    main = "main" }

(* [helper] is called only when [flag] holds 1, and it holds 0: the
   static call graph has an edge the run never takes. *)
let untaken_call : H.program =
  { H.funs =
      [ H.fundef "helper" [] [ store "a" (i 0) (i 42) ];
        H.fundef "main" []
          [ H.If ("flag".%[i 0] ==! i 1, [ H.CallS (None, "helper", []) ], []);
            H.for_ "k" (i 1) (i 8)
              [ store "a" (v "k") ("a".%[v "k" -! i 1] +! v "k") ] ] ];
    arrays = [ ("flag", 1); ("a", 8) ];
    main = "main" }

let test_spec_cfg_refuted () =
  List.iter
    (fun (name, hir) ->
      let prog = H.lower hir in
      let structure = Cfg.Cfg_builder.run prog in
      Alcotest.(check bool) (name ^ ": the static structure is refuted") false
        (Cfg.Cfg_builder.agrees ~speculated:(Cfg.Cfg_builder.static prog)
           ~observed:structure);
      let two_run = Ddg.Depprof.profile prog ~structure in
      let live, reruns = rerun_counted (fun () -> Ddg.Depprof.profile prog) in
      Alcotest.(check int) (name ^ ": one rerun, live") 1 reruns;
      check_same_profile (name ^ ", live") two_run live;
      let path = Filename.temp_file "polyprof_spec" ".trace" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      ignore (Stream.Trace_file.record_to_file prog path);
      let replayed, reruns =
        rerun_counted (fun () ->
            (Stream.Par_profile.profile_file path prog).Stream.Par_profile.result)
      in
      Alcotest.(check int) (name ^ ": one rerun, replayed from a file") 1 reruns;
      check_same_profile (name ^ ", replayed") two_run replayed)
    [ ("zero trip", zero_trip); ("untaken call", untaken_call) ]

(* The generated programs of test_random, with the same two configs as
   its pinned parity digests. *)
let test_spec_cfg_random () =
  let spilling =
    { Ddg.Depprof.default_config with
      track_waw = true; scev_prune = false; stmt_cap = 16; dep_cap = 16 }
  in
  List.iter
    (fun seed ->
      let prog = H.lower (Random_gen.gen_program_rec seed) in
      let structure = Cfg.Cfg_builder.run prog in
      List.iter
        (fun (cname, config) ->
          let name = Printf.sprintf "seed %d, %s" seed cname in
          let two_run = Ddg.Depprof.profile ~config prog ~structure in
          check_same_profile name two_run (Ddg.Depprof.profile ~config prog))
        [ ("default", Ddg.Depprof.default_config); ("spilling", spilling) ])
    (List.init 40 (fun k -> 101 + (7919 * k)))

(* [agrees] on structures built from hand-written control events over
   a two-function program. *)
let test_spec_cfg_agrees () =
  let prog =
    H.lower
      { H.funs = [ H.fundef "g" [] []; H.fundef "main" [] [] ];
        arrays = [];
        main = "main" }
  in
  let main = prog.Vm.Prog.main
  and g = (Vm.Prog.func_by_name prog "g").Vm.Prog.fid in
  let built events =
    let b = Cfg.Cfg_builder.create prog in
    List.iter (Cfg.Cfg_builder.on_control b) events;
    Cfg.Cfg_builder.finalize b
  in
  let jumps edges =
    List.map (fun (src, dst) -> Vm.Event.Jump { fid = main; src; dst }) edges
  in
  let call =
    [ Vm.Event.Call { caller = main; site = 3; callee = g; dst = 0 };
      Vm.Event.Return { callee = g; caller = main; dst = 4 } ]
  in
  (* 1 -> 2 -> 1 is a loop headed by 1, left at 3 *)
  let loop = [ (0, 1); (1, 2); (2, 1); (1, 3) ] in
  let observed = built (jumps loop) in
  let check name expected speculated =
    Alcotest.(check bool) name expected (Cfg.Cfg_builder.agrees ~speculated ~observed)
  in
  check "itself" true observed;
  check "an untaken branch to a new block" true
    (built (jumps (loop @ [ (0, 5); (5, 3) ])));
  check "an untaken path inside the loop" true
    (built (jumps (loop @ [ (2, 6); (6, 1) ])));
  check "an extra loop" false (built (jumps (loop @ [ (3, 7); (7, 3) ])));
  check "no loop" false (built (jumps [ (0, 1); (1, 2); (2, 3) ]));
  check "an extra call" false (built (jumps loop @ call));
  Alcotest.(check bool) "a missing call" false
    (Cfg.Cfg_builder.agrees ~speculated:observed ~observed:(built (jumps loop @ call)))

(* A return naming a caller other than the one that made the call is
   a malformed trace: replaying it fails with [Invalid_argument]. *)
let test_spec_cfg_wrong_caller () =
  let prog = H.lower untaken_call in
  let main = prog.Vm.Prog.main
  and helper = (Vm.Prog.func_by_name prog "helper").Vm.Prog.fid in
  let path = Filename.temp_file "polyprof_caller" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let sink = Stream.Sink.create path in
  let cb = Stream.Sink.callbacks sink in
  cb.Vm.Interp.on_control (Vm.Event.Jump { fid = main; src = 0; dst = 1 });
  cb.Vm.Interp.on_control
    (Vm.Event.Call { caller = main; site = 1; callee = helper; dst = 0 });
  cb.Vm.Interp.on_control (Vm.Event.Return { callee = helper; caller = helper; dst = 2 });
  Stream.Sink.close ~stats:(Vm.Interp.run prog) sink;
  match Stream.Par_profile.profile_file path prog with
  | _ -> Alcotest.fail "a return to the wrong caller was accepted"
  | exception Invalid_argument _ -> ()

(* A return with no live call is a malformed trace too: under a given
   structure no builder sees it, and the engine's shadow frames refuse
   it. *)
let test_spec_cfg_unbalanced_return () =
  let prog = H.lower untaken_call in
  let main = prog.Vm.Prog.main
  and helper = (Vm.Prog.func_by_name prog "helper").Vm.Prog.fid in
  let structure = Cfg.Cfg_builder.run prog in
  let path = Filename.temp_file "polyprof_unbalanced" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let sink = Stream.Sink.create path in
  let cb = Stream.Sink.callbacks sink in
  cb.Vm.Interp.on_control (Vm.Event.Jump { fid = main; src = 0; dst = 1 });
  cb.Vm.Interp.on_control (Vm.Event.Return { callee = helper; caller = main; dst = 2 });
  Stream.Sink.close ~stats:(Vm.Interp.run prog) sink;
  match Stream.Par_profile.profile_file path prog ~structure with
  | _ -> Alcotest.fail "a return with no live call was accepted"
  | exception Invalid_argument m ->
      Alcotest.(check string) "refused by the shadow frames"
        "Shadow.pop_frame: unbalanced" m

(* [speculate] reruns a pass the run refutes once, under the observed
   structure, and runs a pass under a given structure alone with no
   tee. *)
let test_speculate_calls () =
  let prog = H.lower zero_trip in
  let calls = ref [] in
  let pass structure tee =
    calls := structure :: !calls;
    ignore (Vm.Interp.run ~callbacks:(tee Vm.Interp.no_instrumentation) prog);
    List.length !calls
  in
  let v, observed, reran = Cfg.Cfg_builder.speculate prog pass in
  let shown = show Cfg.Cfg_builder.pp_structure in
  Alcotest.(check int) "called twice" 2 (List.length !calls);
  Alcotest.(check int) "the second pass's value" 2 v;
  Alcotest.(check bool) "reran" true reran;
  Alcotest.(check (list string)) "static first, then observed"
    [ shown (Cfg.Cfg_builder.static prog); shown (Cfg.Cfg_builder.run prog) ]
    (List.rev_map shown !calls);
  Alcotest.(check string) "returns the observed structure"
    (shown (Cfg.Cfg_builder.run prog)) (shown observed);
  calls := [];
  let given = Cfg.Cfg_builder.run prog in
  let tee_is_id = ref false in
  let _, s, reran =
    Cfg.Cfg_builder.speculate ~structure:given prog (fun structure tee ->
        calls := structure :: !calls;
        tee_is_id := tee Vm.Interp.no_instrumentation == Vm.Interp.no_instrumentation)
  in
  Alcotest.(check int) "given: called once" 1 (List.length !calls);
  Alcotest.(check bool) "given: no tee" true !tee_is_id;
  Alcotest.(check bool) "given: no rerun" false reran;
  Alcotest.(check bool) "given: returned as is" true (s == given)

(* The race sanitizer speculates its structure too: one interpreter
   run per report, equal to the report under [Cfg_builder.run]'s
   structure. *)
module PC = Analysis.Parcheck

let sanitized pc =
  Obs.Registry.with_enabled @@ fun () ->
  Obs.Metrics.reset ();
  let r = PC.sanitize pc in
  (r, metric_count "vm.run.count")

let two_run_report pc =
  let prog = pc.PC.pc_sd.Analysis.Statdep.prog in
  Ddg.Race_san.run prog ~structure:(Cfg.Cfg_builder.run prog) ~claims:(PC.claims pc)

let test_sanitizer_suite () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let pc = PC.analyse (H.lower w.hir) in
      let one_run, runs = sanitized pc in
      Alcotest.(check int) (w.w_name ^ ": one interpreter run") 1 runs;
      Alcotest.(check bool) (w.w_name ^ ": same report") true
        (one_run = two_run_report pc))
    (Workloads.Runner.suite @ Workloads.Polybench.seeded)

let test_sanitizer_refuted () =
  let pc = PC.analyse (H.lower zero_trip) in
  let report, runs = sanitized pc in
  Alcotest.(check int) "one rerun: two interpreter runs" 2 runs;
  Alcotest.(check bool) "claims" true (report.Ddg.Race_san.sr_claims <> []);
  Alcotest.(check bool) "same report" true (report = two_run_report pc)

let () =
  Alcotest.run "depprof"
    [ ( "shadow",
        [ Alcotest.test_case "memory" `Quick test_shadow_memory;
          Alcotest.test_case "register frames" `Quick test_shadow_register_frames;
          QCheck_alcotest.to_alcotest prop_shadow_matches_model ] );
      ( "dependences",
        [ Alcotest.test_case "memory dep folded" `Quick test_mem_dep_folded;
          Alcotest.test_case "SCEV pruning" `Quick test_scev_pruning;
          Alcotest.test_case "reduction distance" `Quick
            test_reduction_dep_distance_one;
          Alcotest.test_case "soundness on backprop" `Slow
            test_dep_soundness_on_workload;
          Alcotest.test_case "WAW option" `Quick test_waw_tracking_optional;
          Alcotest.test_case "Fig. 3 Ex. 1 folded domains" `Quick
            test_fig3_ex1_folded_domains;
          Alcotest.test_case "approx spill counters" `Quick
            test_approx_spill_counters ] );
      ( "statements",
        [ Alcotest.test_case "domains exact" `Quick test_stmt_domains_exact;
          Alcotest.test_case "counts match interpreter" `Quick
            test_counts_match_interpreter ] );
      ( "scev_pred",
        [ Alcotest.test_case "suite: never refuted, same profile" `Quick
            test_scev_prediction_suite;
          Alcotest.test_case "refuted prediction reruns" `Quick
            test_scev_prediction_refuted;
          Alcotest.test_case "allocates less than it saves" `Quick
            test_scev_prediction_allocation ] );
      ( "spec_cfg",
        [ Alcotest.test_case "suite: never refuted, same profile" `Quick
            test_spec_cfg_suite;
          Alcotest.test_case "refuted structure reruns once" `Quick
            test_spec_cfg_refuted;
          Alcotest.test_case "random programs: same profile" `Quick
            test_spec_cfg_random;
          Alcotest.test_case "agrees on hand-built pairs" `Quick
            test_spec_cfg_agrees;
          Alcotest.test_case "return to the wrong caller" `Quick
            test_spec_cfg_wrong_caller;
          Alcotest.test_case "unbalanced return, given structure" `Quick
            test_spec_cfg_unbalanced_return;
          Alcotest.test_case "speculate: refuted pass runs twice" `Quick
            test_speculate_calls;
          Alcotest.test_case "sanitizer: one run, same report" `Quick
            test_sanitizer_suite;
          Alcotest.test_case "sanitizer: refuted structure reruns" `Quick
            test_sanitizer_refuted ] ) ]
