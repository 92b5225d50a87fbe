(* Tests for the feedback back-end: direction vectors, parallelism,
   permutable bands, skewing, interchange suggestions. *)

open Vm.Hir.Dsl
module H = Vm.Hir
module D = Sched.Depanalysis

let analyse hir =
  let prog = H.lower hir in
  let structure = Cfg.Cfg_builder.run prog in
  let res = Ddg.Depprof.profile prog ~structure in
  (prog, res, D.analyse prog res)

let simple_main body arrays : H.program =
  { H.funs = [ H.fundef "main" [] body ]; arrays; main = "main" }

let float_init name n =
  H.for_ (name ^ "i") (i 0) (i n)
    [ H.Store (Base name +! v (name ^ "i"), Itof ((v (name ^ "i") *! v (name ^ "i")) %! i 37) /? f 3.0) ]

(* a[i][j] = a[i-1][j] + 1: carried by i, parallel in j *)
let outer_carried =
  simple_main
    [ float_init "m" 100;
      H.for_ "x" (i 1) (i 10)
        [ H.for_ "y" (i 0) (i 10)
            [ store "m" ((v "x" *! i 10) +! v "y")
                ("m".%[((v "x" -! i 1) *! i 10) +! v "y"] +? f 1.0) ] ] ]
    [ ("m", 100) ]

let find_nest (a : D.t) depth =
  List.find
    (fun (n : D.nest_info) -> n.ndepth = depth && n.nweight > 50)
    a.nests

let test_outer_carried_parallelism () =
  let _, _, a = analyse outer_carried in
  let n = find_nest a 2 in
  Alcotest.(check bool) "x sequential" false n.nparallel.(0);
  Alcotest.(check bool) "y parallel" true n.nparallel.(1)

let test_uniform_dep_direction () =
  let _, _, a = analyse outer_carried in
  (* the a[i-1][j] -> a[i][j] memory dep has distance (1, 0) *)
  let found =
    List.exists
      (fun (d : D.dep_ext) ->
        d.common = 2
        && d.dists = [| Some 1; Some 0 |]
        && d.dirs = [| D.Dpos; D.Dzero |])
      a.deps
  in
  Alcotest.(check bool) "(1,0) distance vector" true found

let test_band_nonneg_is_permutable () =
  let _, _, a = analyse outer_carried in
  let n = find_nest a 2 in
  (* (1,0) deps keep the band fully permutable: tiling depth 2 *)
  Alcotest.(check int) "band width 2" 2 (D.max_band_width n);
  Alcotest.(check bool) "no skew needed" false (D.nest_uses_skew n)

(* wavefront: a[i][j] = a[i-1][j+1] + a[i-1][j]: distance (1,-1), (1,0) *)
let wavefront =
  simple_main
    [ float_init "w" 144;
      H.for_ "x" (i 1) (i 11)
        [ H.for_ "y" (i 0) (i 11)
            [ store "w" ((v "x" *! i 12) +! v "y")
                ("w".%[((v "x" -! i 1) *! i 12) +! (v "y" +! i 1)]
                +? "w".%[((v "x" -! i 1) *! i 12) +! v "y"]) ] ] ]
    [ ("w", 144) ]

let test_skew_enables_band () =
  let _, _, a = analyse wavefront in
  let n = find_nest a 2 in
  Alcotest.(check int) "band width 2 after skew" 2 (D.max_band_width n);
  Alcotest.(check bool) "skew used" true (D.nest_uses_skew n);
  (* skew factor 1 suffices for (1,-1) *)
  let has_skew_1 =
    List.exists
      (fun (b : D.band) -> List.exists (fun (_, _, f) -> f = 1) b.b_skews)
      n.bands
  in
  Alcotest.(check bool) "factor 1" true has_skew_1

let test_direction_lattice () =
  Alcotest.(check bool) "0 can be zero" true (D.dir_can_be_zero D.Dzero);
  Alcotest.(check bool) "+ cannot" false (D.dir_can_be_zero D.Dpos);
  Alcotest.(check bool) "0+ can be nonzero" true (D.dir_can_be_nonzero D.Dnonneg);
  Alcotest.(check bool) "- negative" true (D.dir_can_be_negative D.Dneg);
  Alcotest.(check bool) "* negative" true (D.dir_can_be_negative D.Dany);
  Alcotest.(check bool) "+ not negative" false (D.dir_can_be_negative D.Dpos)

(* interchange: t[k][j] accessed with j outer: inner stride is the row
   size, outer stride 1 (the layerforward shape) *)
let transposed_access =
  simple_main
    [ float_init "t" 256;
      H.for_ "jj" (i 0) (i 16)
        [ H.Let ("s", f 0.0);
          H.for_ "kk" (i 0) (i 16)
            [ H.Let ("s", v "s" +? "t".%[(v "kk" *! i 16) +! v "jj"]) ];
          store "out" (v "jj") (v "s") ] ]
    [ ("t", 256); ("out", 16) ]

let test_interchange_suggested () =
  let _, _, a = analyse transposed_access in
  let n = find_nest a 2 in
  let sg = Sched.Transform.suggest a n in
  (match sg.Sched.Transform.interchange with
  | Some (from_dim, to_dim) ->
      Alcotest.(check int) "bring the outer dim innermost" 1 from_dim;
      Alcotest.(check int) "swap with dim 2" 2 to_dim
  | None -> Alcotest.fail "interchange expected");
  (* stride profile: outer dim has 100% stride-0/1, inner has 0 *)
  Alcotest.(check bool) "outer profile better" true
    (sg.Sched.Transform.stride01.(0) > sg.Sched.Transform.stride01.(1))

let test_no_interchange_when_already_good () =
  let good =
    simple_main
      [ float_init "g" 256;
        H.Let ("s", f 0.0);
        H.for_ "a" (i 0) (i 16)
          [ H.for_ "b" (i 0) (i 16)
              [ H.Let ("s", v "s" +? "g".%[(v "a" *! i 16) +! v "b"]) ] ] ]
      [ ("g", 256) ]
  in
  let _, _, an = analyse good in
  let n = find_nest an 2 in
  let sg = Sched.Transform.suggest an n in
  Alcotest.(check bool) "no interchange" true
    (sg.Sched.Transform.interchange = None)

let test_wavefront_skew_suggested () =
  (* the nw shape: deps (1,0), (0,1), (1,1) — band fully permutable, no
     dim parallel, so the suggestion skews to expose the wavefront *)
  let dp =
    simple_main
      [ float_init "s" 169;
        H.for_ "x" (i 1) (i 12)
          [ H.for_ "y" (i 1) (i 12)
              [ store "s" ((v "x" *! i 13) +! v "y")
                  ("s".%[((v "x" -! i 1) *! i 13) +! v "y"]
                  +? ("s".%[(v "x" *! i 13) +! (v "y" -! i 1)]
                     +? "s".%[((v "x" -! i 1) *! i 13) +! (v "y" -! i 1)])) ] ] ]
      [ ("s", 169) ]
  in
  let _, _, a = analyse dp in
  let n = find_nest a 2 in
  Alcotest.(check bool) "no parallel dim" false
    (Array.exists Fun.id n.nparallel);
  Alcotest.(check int) "still a 2-D band" 2 (D.max_band_width n);
  let sg = Sched.Transform.suggest a n in
  Alcotest.(check bool) "skew suggested for wavefront parallelism" true
    sg.Sched.Transform.uses_skew;
  Alcotest.(check bool) "a skew step is in the sequence" true
    (List.exists
       (function Sched.Transform.Skew _ -> true | _ -> false)
       sg.Sched.Transform.steps)

let test_reduction_does_not_block_band () =
  (* a scalar reduction chain spanning the nest must not prevent tiling *)
  let red =
    simple_main
      [ float_init "r" 100;
        H.Let ("acc", f 0.0);
        H.for_ "x" (i 0) (i 10)
          [ H.for_ "y" (i 0) (i 10)
              [ H.Let ("acc", v "acc" +? "r".%[(v "x" *! i 10) +! v "y"]) ] ];
        store "r" (i 0) (v "acc") ]
      [ ("r", 100) ]
  in
  let _, _, a = analyse red in
  let n = find_nest a 2 in
  Alcotest.(check int) "2-D band despite the reduction" 2 (D.max_band_width n);
  Alcotest.(check bool) "no skew for a reduction" false (D.nest_uses_skew n)

let test_parallel_loop_info () =
  let _, _, a = analyse outer_carried in
  (* the init loop is parallel; the x loop is not *)
  let top = List.filter (fun (l : D.loop_info) -> l.ldepth = 1) a.loops in
  Alcotest.(check int) "two top-level loops" 2 (List.length top);
  Alcotest.(check bool) "one of them sequential" true
    (List.exists (fun (l : D.loop_info) -> not l.parallel) top);
  Alcotest.(check bool) "one of them parallel" true
    (List.exists (fun (l : D.loop_info) -> l.parallel) top)

let test_header_locs () =
  let hir =
    simple_main
      [ H.for_ ~loc:(Workloads.Workload.loc "file.c" 42) "q" (i 0) (i 4)
          [ store "z" (v "q") (v "q") ] ]
      [ ("z", 4) ]
  in
  let _, _, a = analyse hir in
  let l = List.find (fun (l : D.loop_info) -> l.ldepth = 1) a.loops in
  match l.header_loc with
  | Some loc ->
      Alcotest.(check string) "file" "file.c" loc.Vm.Prog.file;
      Alcotest.(check int) "line" 42 loc.Vm.Prog.line
  | None -> Alcotest.fail "loc lost"

let test_feedback_render () =
  let prog, res, a = analyse outer_carried in
  let fb = Sched.Feedback.make prog res a in
  Alcotest.(check bool) "has regions" true (fb.Sched.Feedback.regions <> []);
  let out = Format.asprintf "%a" (Sched.Feedback.render ?fname:None) fb in
  Alcotest.(check bool) "mentions parallel dims" true
    (String.length out > 50)

let test_domain_params () =
  let dp = Sched.Domain_params.create ~threshold:100 ~slack:20 () in
  Alcotest.(check string) "small constants stay" "7" (Sched.Domain_params.abstract dp 7);
  Alcotest.(check string) "large becomes n0" "n0" (Sched.Domain_params.abstract dp 1024);
  Alcotest.(check string) "nearby reuses n0" "(n0 + 6)"
    (Sched.Domain_params.abstract dp 1030);
  Alcotest.(check string) "far away gets n1" "n1" (Sched.Domain_params.abstract dp 4096);
  Alcotest.(check int) "two parameters" 2 (List.length (Sched.Domain_params.params dp))

(* [Depanalysis.is_prefix] against the definition it replaced: the
   first [length p] dimensions of [l], compared with [=].  Paths come
   from a few context ids, so prefixes and near misses are common. *)
let prop_is_prefix =
  let gen =
    QCheck.Gen.(
      let ctx =
        oneof
          [ map2 (fun f b -> Ddg.Iiv.Cblock (f, b)) (int_bound 1) (int_bound 1);
            map2 (fun f l -> Ddg.Iiv.Cloop (f, l)) (int_bound 1) (int_bound 1);
            map (fun c -> Ddg.Iiv.Ccomp c) (int_bound 1) ]
      in
      let path = list_size (int_bound 3) (list_size (int_bound 2) ctx) in
      pair path path >>= fun (p, l) ->
      oneofl [ (p, l); (p, p @ l); (p @ l, p); (p, p) ])
  in
  let rec take n = function [] -> [] | x :: xs -> if n <= 0 then [] else x :: take (n - 1) xs in
  QCheck.Test.make ~name:"is_prefix = take (length p) l = p" ~count:2000 (QCheck.make gen)
    (fun (p, l) -> Sched.Depanalysis.is_prefix p l = (take (List.length p) l = p))

let () =
  Alcotest.run "sched"
    [ ( "dependence analysis",
        [ Alcotest.test_case "outer-carried parallelism" `Quick
            test_outer_carried_parallelism;
          Alcotest.test_case "uniform distance vectors" `Quick
            test_uniform_dep_direction;
          Alcotest.test_case "direction lattice" `Quick test_direction_lattice;
          Alcotest.test_case "loop info" `Quick test_parallel_loop_info;
          Alcotest.test_case "header locations" `Quick test_header_locs;
          QCheck_alcotest.to_alcotest prop_is_prefix ] );
      ( "bands & skewing",
        [ Alcotest.test_case "non-negative band permutable" `Quick
            test_band_nonneg_is_permutable;
          Alcotest.test_case "skew enables tiling" `Quick test_skew_enables_band;
          Alcotest.test_case "wavefront skew for parallelism" `Quick
            test_wavefront_skew_suggested;
          Alcotest.test_case "reductions do not block bands" `Quick
            test_reduction_does_not_block_band ] );
      ( "transformations",
        [ Alcotest.test_case "interchange suggested" `Quick
            test_interchange_suggested;
          Alcotest.test_case "no gratuitous interchange" `Quick
            test_no_interchange_when_already_good;
          Alcotest.test_case "feedback rendering" `Quick test_feedback_render;
          Alcotest.test_case "domain parameterisation" `Quick test_domain_params
        ] ) ]
