(* Tests for the folding stage (paper §5): exact recognition of the
   domains loop nests produce, label (SCEV) functions, boundary splits,
   over-approximation, and round-trip properties. *)

module P = Minisl.Polyhedron
module A = Minisl.Affine
module Rat = Pp_util.Rat

let enumerate_rect w h f =
  let pts = ref [] in
  for x = 0 to w - 1 do
    for y = 0 to h - 1 do
      pts := ([| x; y |], f x y) :: !pts
    done
  done;
  List.rev !pts

let all_exact_affine pieces =
  List.for_all
    (fun (p : Fold.piece) ->
      p.Fold.exact && Array.for_all Option.is_some p.Fold.labels)
    pieces

let covers pieces pts =
  List.for_all
    (fun (c, _) -> List.exists (fun (p : Fold.piece) -> P.mem p.Fold.dom c) pieces)
    pts

let labels_reproduce pieces pts =
  List.for_all
    (fun (c, l) ->
      List.exists
        (fun (p : Fold.piece) ->
          P.mem p.Fold.dom c
          && Array.for_all2
               (fun f lv ->
                 match f with
                 | Some f -> Rat.equal (A.eval f c) (Rat.of_int lv)
                 | None -> true)
               p.Fold.labels l)
        pieces)
    pts

let test_rectangle () =
  let pts = enumerate_rect 6 9 (fun x y -> [| (3 * x) + y + 5 |]) in
  let pieces = Fold.fold_points ~dim:2 ~label_dim:1 pts in
  Alcotest.(check int) "one piece" 1 (List.length pieces);
  Alcotest.(check bool) "exact affine" true (all_exact_affine pieces);
  Alcotest.(check bool) "labels reproduce" true (labels_reproduce pieces pts);
  let p = List.hd pieces in
  Alcotest.(check int) "count" 54 (P.count p.Fold.dom)

let test_triangle () =
  (* for i in 0..n, j in 0..i: the paper's Fig. 4 shape *)
  let pts = ref [] in
  for i = 0 to 7 do
    for j = 0 to i do
      pts := ([| i; j |], [| i - j |]) :: !pts
    done
  done;
  let pts = List.rev !pts in
  let pieces = Fold.fold_points ~dim:2 ~label_dim:1 pts in
  Alcotest.(check int) "one piece" 1 (List.length pieces);
  Alcotest.(check bool) "exact" true (all_exact_affine pieces);
  let p = List.hd pieces in
  Alcotest.(check bool) "triangular bound present" true
    (P.mem p.Fold.dom [| 5; 5 |] && not (P.mem p.Fold.dom [| 5; 6 |]))

let test_trapezoid () =
  (* j from i to i+3: sliding window *)
  let pts = ref [] in
  for i = 0 to 9 do
    for j = i to i + 3 do
      pts := ([| i; j |], [||]) :: !pts
    done
  done;
  let pieces = Fold.fold_points ~dim:2 ~label_dim:0 (List.rev !pts) in
  Alcotest.(check int) "one piece" 1 (List.length pieces);
  Alcotest.(check bool) "exact" true (all_exact_affine pieces)

let test_boundary_split () =
  (* the Table 2 / lavaMD pattern: producer is (i, j-1) except at j = 0
     where it is (i-1, jmax) *)
  let pts = ref [] in
  for i = 1 to 6 do
    for j = 0 to 4 do
      let lbl = if j = 0 then [| i - 1; 4 |] else [| i; j - 1 |] in
      pts := ([| i; j |], lbl) :: !pts
    done
  done;
  let pieces = Fold.fold_points ~dim:2 ~label_dim:2 (List.rev !pts) in
  Alcotest.(check bool) "2-4 exact pieces" true
    (List.length pieces >= 2 && List.length pieces <= 4);
  Alcotest.(check bool) "all exact affine" true (all_exact_affine pieces);
  Alcotest.(check bool) "labels reproduce" true
    (labels_reproduce pieces (List.rev !pts))

let test_holes_over_approximate () =
  (* only even points: a lattice, which folding over-approximates *)
  let pts = ref [] in
  for x = 0 to 20 do
    if x mod 2 = 0 then pts := ([| x |], [||]) :: !pts
  done;
  let pieces = Fold.fold_points ~dim:1 ~label_dim:0 (List.rev !pts) in
  Alcotest.(check bool) "covers all points" true (covers pieces (List.rev !pts));
  Alcotest.(check bool) "not exact (or many pieces)" true
    (List.exists (fun (p : Fold.piece) -> not p.Fold.exact) pieces
    || List.length pieces > 4)

let test_nonaffine_labels_top () =
  let pts = List.init 40 (fun x -> ([| x |], [| x * x |])) in
  let pieces = Fold.fold_points ~dim:1 ~label_dim:1 pts in
  (* the domain is a dense interval: foldable; the labels are not *)
  Alcotest.(check bool) "covers" true (covers pieces pts);
  Alcotest.(check bool) "labels are top somewhere" true
    (List.exists
       (fun (p : Fold.piece) -> Array.exists Option.is_none p.Fold.labels)
       pieces)

let test_per_component_top () =
  (* one affine component, one wild: only the wild one becomes top *)
  let pts = List.init 200 (fun x -> ([| x |], [| (2 * x) + 1; (x * x * x) mod 101 |])) in
  let pieces = Fold.fold_points ~dim:1 ~label_dim:2 pts in
  let p = List.hd pieces in
  Alcotest.(check bool) "first component affine" true
    (Option.is_some p.Fold.labels.(0));
  Alcotest.(check bool) "second component top" true
    (List.exists
       (fun (p : Fold.piece) -> Option.is_none p.Fold.labels.(1))
       pieces)

let test_scalar_context () =
  let pieces = Fold.fold_points ~dim:0 ~label_dim:1 [ ([||], [| 42 |]) ] in
  Alcotest.(check int) "one piece" 1 (List.length pieces);
  Alcotest.(check bool) "exact" true (all_exact_affine pieces)

let test_streaming_cap () =
  (* past the cap the collector switches to streaming boxes *)
  let c = Fold.Collector.create ~cap:100 ~dim:1 ~label_dim:1 () in
  for x = 0 to 999 do
    Fold.Collector.add c [| x |] [| (5 * x) + 2 |]
  done;
  Alcotest.(check int) "all points counted" 1000 (Fold.Collector.npoints c);
  match Fold.Collector.result c with
  | [ p ] ->
      Alcotest.(check bool) "approx" true (not p.Fold.exact);
      Alcotest.(check bool) "box covers" true
        (P.mem p.Fold.dom [| 0 |] && P.mem p.Fold.dom [| 999 |]);
      (* the label function survived streaming verification *)
      Alcotest.(check bool) "label still affine" true
        (Option.is_some p.Fold.labels.(0))
  | ps -> Alcotest.fail (Printf.sprintf "expected one box, got %d" (List.length ps))

let test_streaming_cap_label_violation () =
  let c = Fold.Collector.create ~cap:50 ~dim:1 ~label_dim:1 () in
  for x = 0 to 199 do
    Fold.Collector.add c [| x |] [| x * x |]
  done;
  match Fold.Collector.result c with
  | [ p ] ->
      Alcotest.(check bool) "label degraded to top" true
        (Option.is_none p.Fold.labels.(0))
  | _ -> Alcotest.fail "expected one box"

let metric name =
  List.find_map
    (fun ((d : Obs.Metrics.desc), v) -> if d.d_name = name then Some v else None)
    (Obs.Metrics.snapshot ())

(* [result] observes each collector's point count once, and only with
   telemetry on *)
let test_collector_points_histogram () =
  let fold ~cap n =
    let c = Fold.Collector.create ~cap ~dim:1 ~label_dim:1 () in
    for x = 0 to n - 1 do
      Fold.Collector.add c [| x |] [| 2 * x |]
    done;
    ignore (Fold.Collector.result c);
    ignore (Fold.Collector.result c);
    c
  in
  Obs.Metrics.reset ();
  ignore (fold ~cap:100 3);
  Alcotest.(check bool) "nothing observed with telemetry off" true
    (metric "fold.collector_points" = None);
  Obs.Registry.with_enabled @@ fun () ->
  Obs.Metrics.reset ();
  let small = fold ~cap:100 5 and big = fold ~cap:100 300 in
  Alcotest.(check bool) "under the cap: buffered" false (Fold.Collector.spilled small);
  Alcotest.(check bool) "past the cap: spilled" true (Fold.Collector.spilled big);
  match metric "fold.collector_points" with
  | Some (Obs.Metrics.Vhist h) ->
      Alcotest.(check int) "one sample per collector" 2 h.h_count;
      Alcotest.(check int) "sum of points" 305 h.h_sum;
      Alcotest.(check int) "min" 5 h.h_min;
      Alcotest.(check int) "max" 300 h.h_max
  | _ -> Alcotest.fail "fold.collector_points histogram missing"

let test_under_approximation () =
  (* a holey domain over-approximates but keeps a certified inner box
     from its dense prefix *)
  let pts = ref [] in
  for x = 0 to 40 do
    if x < 20 || x mod 3 = 0 then pts := ([| x |], [||]) :: !pts
  done;
  let pieces = Fold.fold_points ~dim:1 ~label_dim:0 (List.rev !pts) in
  let approx = List.filter (fun (p : Fold.piece) -> not p.Fold.exact) pieces in
  match approx with
  | [] -> () (* folded exactly after all: fine *)
  | ps ->
      Alcotest.(check bool) "some approx piece has an under-approximation"
        true
        (List.exists (fun (p : Fold.piece) -> p.Fold.under <> None) ps);
      List.iter
        (fun (p : Fold.piece) ->
          match p.Fold.under with
          | Some u ->
              (* the under-approximation is inside the over-approximation
                 and contains only genuinely iterated points *)
              Alcotest.(check bool) "under inside over" true
                (Minisl.Polyhedron.is_subset u p.Fold.dom);
              List.iter
                (fun pt ->
                  Alcotest.(check bool) "under point was iterated" true
                    (List.exists (fun (q, _) -> q = pt) (List.rev !pts)))
                (Minisl.Polyhedron.integer_points u)
          | None -> ())
        ps

let test_strided_label () =
  (* stride-17 addresses: affine with coefficient 17, the SCEV shape *)
  let pts = List.init 50 (fun x -> ([| x |], [| (17 * x) + 1000 |])) in
  let pieces = Fold.fold_points ~dim:1 ~label_dim:1 pts in
  Alcotest.(check int) "one piece" 1 (List.length pieces);
  match (List.hd pieces).Fold.labels.(0) with
  | Some f ->
      Alcotest.(check bool) "coefficient 17" true
        (Rat.equal f.A.coeffs.(0) (Rat.of_int 17))
  | None -> Alcotest.fail "label lost"

let test_3d_triangle () =
  (* a 3-D nest with two triangular dimensions *)
  let pts = ref [] in
  for a = 0 to 5 do
    for b = 0 to a do
      for c = b to 5 do
        pts := ([| a; b; c |], [| (2 * a) - b + (3 * c) |]) :: !pts
      done
    done
  done;
  let pts = List.rev !pts in
  let pieces = Fold.fold_points ~dim:3 ~label_dim:1 pts in
  Alcotest.(check int) "one piece" 1 (List.length pieces);
  Alcotest.(check bool) "exact" true (all_exact_affine pieces);
  Alcotest.(check bool) "labels reproduce" true (labels_reproduce pieces pts);
  let p = List.hd pieces in
  Alcotest.(check int) "count" (List.length pts) (P.count p.Fold.dom)

let test_multi_component_labels () =
  (* a dependence-style stream: two label components, both affine *)
  let pts = ref [] in
  for x = 0 to 9 do
    for y = 0 to 9 do
      pts := ([| x; y |], [| x - 1; y + 2 |]) :: !pts
    done
  done;
  let pts = List.rev !pts in
  let pieces = Fold.fold_points ~dim:2 ~label_dim:2 pts in
  Alcotest.(check int) "one piece" 1 (List.length pieces);
  let p = List.hd pieces in
  (match (p.Fold.labels.(0), p.Fold.labels.(1)) with
  | Some f0, Some f1 ->
      Alcotest.(check bool) "x - 1" true
        (Rat.equal (A.eval f0 [| 5; 3 |]) (Rat.of_int 4));
      Alcotest.(check bool) "y + 2" true
        (Rat.equal (A.eval f1 [| 5; 3 |]) (Rat.of_int 5))
  | _ -> Alcotest.fail "labels lost")

(* properties: fold of a random affine nest round-trips *)

let arb_nest =
  QCheck.make
    QCheck.Gen.(
      map
        (fun (w, h, (a, b, c)) -> (1 + w, 1 + h, a - 4, b - 4, c - 50))
        (triple (int_bound 8) (int_bound 8)
           (triple (int_bound 9) (int_bound 9) (int_bound 100))))

let prop_fold_rect_roundtrip =
  QCheck.Test.make ~name:"fold(rect) is one exact piece with exact labels"
    ~count:100 arb_nest (fun (w, h, a, b, c) ->
      let pts = enumerate_rect w h (fun x y -> [| (a * x) + (b * y) + c |]) in
      let pieces = Fold.fold_points ~dim:2 ~label_dim:1 pts in
      List.length pieces = 1
      && all_exact_affine pieces
      && labels_reproduce pieces pts
      && P.count (List.hd pieces).Fold.dom = w * h)

let prop_fold_covers =
  QCheck.Test.make ~name:"fold always covers its input" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 60)
       (QCheck.pair (QCheck.int_bound 30) (QCheck.int_bound 9)))
    (fun raw ->
      (* arbitrary (possibly duplicated/holey) point stream in 1-D with a
         noisy label *)
      let seen = Hashtbl.create 16 in
      let pts =
        List.filter_map
          (fun (x, l) ->
            if Hashtbl.mem seen x then None
            else begin
              Hashtbl.add seen x ();
              Some ([| x |], [| l |])
            end)
          raw
      in
      QCheck.assume (pts <> []);
      let pieces = Fold.fold_points ~dim:1 ~label_dim:1 pts in
      covers pieces pts)

(* Enumeration oracle: fold a random union of 1-3 affine nests (1-3
   dims, rectangular / triangular / trapezoidal bounds, an outer stride
   of 1 or 2, random affine labels shared by all nests or one per nest),
   executed one after another or interleaved under a shared outer loop.
   Every exact piece must enumerate to exactly the input points inside
   its domain, as many as it claims, and every label fit must reproduce
   those points' labels.  Exact pieces are disjoint, and the pieces
   cover the input. *)

type gnest = {
  g_bounds : (int * int * int * int) array;
      (* per dim d: lo = a * c_{d-1} + b and hi = lo + w + s * c_{d-1}
         (c_{-1} = 0): a rectangle, triangle or trapezoid *)
  g_label : int array array;  (* per component: coefficients then constant *)
}

let nest_points ~stride dim g =
  let pts = ref [] in
  let rec go d prefix =
    if d = dim then pts := Array.of_list (List.rev prefix) :: !pts
    else begin
      let a, b, w, s = g.g_bounds.(d) in
      let prev = match prefix with c :: _ -> c | [] -> 0 in
      let lo = (a * prev) + b in
      let step = if d = 0 then stride else 1 in
      for k = 0 to (w + (s * prev)) / step do
        go (d + 1) ((lo + (k * step)) :: prefix)
      done
    end
  in
  go 0 [];
  List.rev !pts

let eval_label g p =
  Array.map
    (fun cs ->
      let v = ref cs.(Array.length p) in
      Array.iteri (fun k x -> v := !v + (cs.(k) * x)) p;
      !v)
    g.g_label

let gen_union =
  QCheck.Gen.(
    int_range 1 3 >>= fun dim ->
    int_range 0 2 >>= fun label_dim ->
    let gen_nest =
      map2
        (fun bounds label -> { g_bounds = Array.of_list bounds; g_label = Array.of_list label })
        (list_repeat dim
           (quad (int_range (-1) 1) (int_range (-4) 6) (int_range 0 4)
              (int_range 0 1)))
        (list_repeat label_dim
           (map Array.of_list (list_repeat (dim + 1) (int_range (-3) 3))))
    in
    quad (return (dim, label_dim)) (list_size (int_range 1 3) gen_nest)
      (pair bool bool) (int_range 1 2))

let union_stream ((dim, _), nests, (interleave, shared_label), stride) =
  let seen = Hashtbl.create 64 in
  let streams =
    List.map
      (fun g ->
        let lg = if shared_label then List.hd nests else g in
        List.filter_map
          (fun p ->
            if Hashtbl.mem seen p then None
            else begin
              Hashtbl.add seen p ();
              Some (p, eval_label lg p)
            end)
          (nest_points ~stride dim g))
      nests
  in
  let all = List.concat streams in
  (* interleaved nests share the outer loop: execution order is the
     order of the outer coordinate, each nest's inner order kept *)
  if interleave then List.stable_sort (fun (a, _) (b, _) -> compare a.(0) b.(0)) all
  else all

let prop_fold_enumeration_oracle =
  QCheck.Test.make ~name:"exact pieces enumerate to exactly their points"
    ~count:500
    (QCheck.make gen_union)
    (fun ((((dim, label_dim), _, _, _) as u)) ->
      let pts = union_stream u in
      QCheck.assume (pts <> []);
      let label_of = Hashtbl.create 64 in
      List.iter (fun (p, l) -> Hashtbl.replace label_of p l) pts;
      let pieces = Fold.fold_points ~dim ~label_dim pts in
      let claimed = Hashtbl.create 64 in
      let exact_ok =
        List.for_all
          (fun (p : Fold.piece) ->
            (not p.Fold.exact)
            ||
            let inside = P.integer_points p.Fold.dom in
            List.length inside = p.Fold.points
            && List.for_all
                 (fun c ->
                   (not (Hashtbl.mem claimed c))
                   && (Hashtbl.add claimed c ();
                       match Hashtbl.find_opt label_of c with
                       | None -> false
                       | Some l ->
                           Array.for_all2
                             (fun f lv ->
                               match f with
                               | Some f -> Rat.equal (A.eval f c) (Rat.of_int lv)
                               | None -> true)
                             p.Fold.labels l))
                 inside)
          pieces
      in
      exact_ok && covers pieces pts)

let () =
  Alcotest.run "fold"
    [ ( "exact",
        [ Alcotest.test_case "rectangle" `Quick test_rectangle;
          Alcotest.test_case "triangle" `Quick test_triangle;
          Alcotest.test_case "trapezoid" `Quick test_trapezoid;
          Alcotest.test_case "boundary split (Table 2)" `Quick
            test_boundary_split;
          Alcotest.test_case "strided label (SCEV)" `Quick test_strided_label;
          Alcotest.test_case "3-D triangles" `Quick test_3d_triangle;
          Alcotest.test_case "multi-component labels" `Quick
            test_multi_component_labels;
          Alcotest.test_case "scalar context" `Quick test_scalar_context ] );
      ( "over-approximation",
        [ Alcotest.test_case "lattice holes" `Quick test_holes_over_approximate;
          Alcotest.test_case "non-affine labels" `Quick test_nonaffine_labels_top;
          Alcotest.test_case "per-component top" `Quick test_per_component_top;
          Alcotest.test_case "streaming cap" `Quick test_streaming_cap;
          Alcotest.test_case "streaming label violation" `Quick
            test_streaming_cap_label_violation;
          Alcotest.test_case "under-approximation (paper future work)" `Quick
            test_under_approximation;
          Alcotest.test_case "points histogram" `Quick
            test_collector_points_histogram ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fold_rect_roundtrip; prop_fold_covers;
            prop_fold_enumeration_oracle ] ) ]
