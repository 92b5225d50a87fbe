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
  match Fold.Collector.result ~shared:(Fold.Collector.shared ()) c with
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
  match Fold.Collector.result ~shared:(Fold.Collector.shared ()) c with
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
    ignore (Fold.Collector.result ~shared:(Fold.Collector.shared ()) c);
    ignore (Fold.Collector.result ~shared:(Fold.Collector.shared ()) c);
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

(* --- pinned fold digests ---------------------------------------- *)

(* A seeded stream generator covering what the run-length buffer must
   encode without special cases: 2-D and 3-D nests whose first samples
   are rank-deficient, labels that stop being affine midway, holes,
   interleaved / out-of-order / repeated points, 0-dimensional streams,
   coordinates and labels within a few steps of [max_int] / [min_int]
   (arithmetic that wraps there), more pieces than [max_pieces], and cap
   spills.  [dim], [label_dim] and the collector options travel with the
   points. *)

type stream = {
  s_dim : int;
  s_label_dim : int;
  s_cap : int;
  s_max_pieces : int;
  s_splits : bool;
  s_per_component : bool;
  s_pts : (int array * int array) list;
}

let gen_stream st =
  let rand n = Random.State.int st (max 1 n) in
  let range lo hi = lo + rand (hi - lo + 1) in
  let affine dim =
    Array.init (dim + 1) (fun k -> if k = dim then range (-50) 50 else range (-3) 3)
  in
  let eval cs p =
    let v = ref cs.(Array.length p) in
    Array.iteri (fun k x -> v := !v + (cs.(k) * x)) p;
    !v
  in
  (* a loop nest: per dim, lo = a * c_{d-1} + b and hi = lo + w + s * c_{d-1} *)
  let nest dim ~stride =
    let bnds =
      Array.init dim (fun _ -> (range (-1) 1, range (-3) 5, range 0 5, range 0 1))
    in
    let pts = ref [] in
    let rec go d prefix =
      if d = dim then pts := Array.of_list (List.rev prefix) :: !pts
      else begin
        let a, b, w, s = bnds.(d) in
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
  in
  let labelled label_dim pts =
    let dim = match pts with p :: _ -> Array.length p | [] -> 0 in
    let fs = Array.init label_dim (fun _ -> affine dim) in
    List.map (fun p -> (p, Array.map (fun cs -> eval cs p) fs)) pts
  in
  let kind = rand 10 in
  let dim =
    match kind with 0 -> 2 | 1 -> 3 | 6 -> 0 | 7 -> range 1 2 | _ -> range 1 3
  in
  let label_dim =
    match kind with 6 -> range 0 2 | 7 -> if rand 2 = 0 then 0 else range 1 2 | _ -> range 0 3
  in
  let base () = labelled label_dim (nest dim ~stride:(range 1 2)) in
  let pts =
    match kind with
    | 0 | 1 -> base ()
    | 2 ->
        (* labels stop being affine midway *)
        let pts = base () in
        let m = rand (List.length pts) in
        List.mapi
          (fun i (p, l) ->
            if i < m then (p, l) else (p, Array.map (fun v -> v + ((i - m) * (i - m)) + rand 3) l))
          pts
    | 3 ->
        (* holes *)
        let keep = range 70 95 in
        List.filter (fun _ -> rand 100 < keep) (base ())
    | 4 ->
        (* two nests interleaved under the outer loop *)
        let a = base () and b = base () in
        List.stable_sort (fun (p, _) (q, _) -> compare p.(0) q.(0)) (a @ b)
    | 5 ->
        (* out-of-order and repeated points *)
        let arr = Array.of_list (base ()) in
        let n = Array.length arr in
        if n > 0 then
          for _ = 1 to rand 4 do
            let i = rand n and j = rand n in
            let t = arr.(i) in
            arr.(i) <- arr.(j);
            arr.(j) <- t
          done;
        List.concat_map
          (fun (p, l) ->
            match rand 8 with
            | 0 -> [ (p, l); (p, l) ]
            | 1 -> [ (p, l); (p, Array.map (fun v -> v + 1) l) ]
            | _ -> [ (p, l) ])
          (Array.to_list arr)
    | 6 ->
        (* 0-dimensional: one execution or two, small or extreme labels *)
        let extreme = rand 2 = 0 in
        List.init (range 1 2) (fun _ ->
            ( [||],
              Array.init label_dim (fun _ ->
                  if extreme then if rand 2 = 0 then max_int - rand 3 else min_int + rand 3
                  else range (-5) 5) ))
    | 7 ->
        (* within a few steps of max_int / min_int: the innermost
           coordinate, the labels or the label steps wrap around *)
        let near () = if rand 2 = 0 then max_int - rand 4 else min_int + rand 4 in
        let outer = range (-2) 2 in
        let c0 = if rand 2 = 0 then near () else range (-3) 3 and n = range 2 8 in
        let extreme_labels = rand 2 = 0 in
        let l0 = Array.init label_dim (fun _ -> if extreme_labels then near () else range (-5) 5) in
        let step =
          Array.init label_dim (fun _ ->
              if extreme_labels && rand 2 = 0 then max_int / range 1 3 else range (-3) 3)
        in
        List.init n (fun t ->
            let c = c0 + t in
            ( (if dim = 1 then [| c |] else [| outer; c |]),
              Array.init label_dim (fun k -> l0.(k) + (t * step.(k))) ))
    | 8 ->
        (* piecewise labels: more pieces than max_pieces *)
        let period = range 2 5 in
        List.map
          (fun (p, l) ->
            let i = p.(Array.length p - 1) in
            (p, Array.map (fun v -> if i / period mod 2 = 0 then v else -v + (i / period * 7)) l))
          (labelled label_dim (nest dim ~stride:1 @ nest dim ~stride:1))
    | _ -> base ()
  in
  let n = List.length pts in
  { s_dim = dim;
    s_label_dim = label_dim;
    s_cap = (if kind = 9 then max 1 (n - rand (max 1 n)) else 100_000);
    s_max_pieces = (if kind = 8 then range 1 3 else 16);
    s_splits = rand 8 <> 0;
    s_per_component = rand 8 <> 0;
    s_pts = pts }

let collect s =
  let c =
    Fold.Collector.create ~cap:s.s_cap ~max_pieces:s.s_max_pieces
      ~boundary_splits:s.s_splits ~per_component:s.s_per_component ~dim:s.s_dim
      ~label_dim:s.s_label_dim ()
  in
  List.iter (fun (p, l) -> Fold.Collector.add c p l) s.s_pts;
  c

(* Every field of every piece, in order. *)
let render_pieces ps =
  String.concat ""
    (List.map
       (fun (p : Fold.piece) ->
         Printf.sprintf "dom %s labels [%s] exact %b points %d under %s\n"
           (P.to_string p.Fold.dom)
           (String.concat "; "
              (Array.to_list
                 (Array.map (function Some f -> A.to_string f | None -> "T") p.Fold.labels)))
           p.Fold.exact p.Fold.points
           (match p.Fold.under with Some u -> P.to_string u | None -> "-"))
       ps)

(* [s] collected and folded with the stream table [shared] *)
let render_collector ~shared s =
  let c = collect s in
  Printf.sprintf "n %d spilled %b\n" (Fold.Collector.npoints c) (Fold.Collector.spilled c)
  ^
  match Fold.Collector.result ~shared c with
  | ps -> Printf.sprintf "affine %b\n%s" (Fold.Collector.is_affine c) (render_pieces ps)
  | exception Pp_util.Rat.Overflow -> "raises Rat.Overflow\n"

let render_stream seed =
  let s = gen_stream (Random.State.make [| seed |]) in
  Printf.sprintf "seed %d dim %d label_dim %d " seed s.s_dim s.s_label_dim
  ^ render_collector ~shared:(Fold.Collector.shared ()) s

(* 200 streams, digested in blocks of ten seeds *)
let digest_block b =
  Polyprof.Prog_hash.sha256_hex
    (String.concat "" (List.init 10 (fun k -> render_stream ((10 * b) + k))))

(* Digests of [digest_block] for blocks 0-19, generated before the
   collectors kept run-length streams: folding decisions must not
   change.  A stream on which folding raises pins the exception.  Block
   18 was re-pinned when [Rat.neg] / [Rat.make] stopped wrapping at
   [min_int]: seed 185 (i0 = 1, i1 from min_int) had folded to a lower
   bound [i1 - min_int * i0 >= 0] whose coefficient 2^62 wrapped, and now
   raises like the other extreme streams. *)
let pinned_fold_digests =
  [ (0, "c2f43f2c60fce0d8b749c55962fdf137181438d7d2fe7d6f099b0ac9f4ef5f77");
    (1, "0c5b16ac0dd1e1721cd8c31b17825add6ff5a4a732662cf9412098a8e48f6ae0");
    (2, "3540e95c6bab8a4cd60320fafb1d046fe20ca58b245fcf3c3eec3be24a91754f");
    (3, "9ec74feb8b7e534f6783daba859952cad7108e47ea2a87650e1e059010e961e0");
    (4, "8ee54a4699fa2b4f63f4ec6c0559421a4c67d37f8747a8effd12f20c3047d092");
    (5, "e0b5d8bb1f1f9b05539567b922736f1525d372a89eb00e5bebeeaaabb9cf9393");
    (6, "8406223f1c710f4495b31422612dac7e66a0bfbef0728573bbb63d25cb8a1a56");
    (7, "bce569967c740f76bb23d2947e2a8748913a3782140bcabf3ff3d2b534794d71");
    (8, "3ed3e82d63e15941e5e7197fd2ce9a231fbde0b1e12609b4c84163a9f1565622");
    (9, "a4930b286983260237fe118e9fff50bb0d47214876ee5feb7b061a2cf33fa4c7");
    (10, "3f785152f411bf70c5137e97ed27bfc88825f72a58d486ffc902cf08343c8689");
    (11, "fe1adb22ff5da7ca948891d7c5dcce1e6fdfc2c990af2e13531e92cdd2482073");
    (12, "b59c9fd805ef8921962acf131bb8c8a786415c9955f1d0b5d794fd94d053b3d8");
    (13, "f458bd72851770290032e8728f25de78fdcd86a67ed6ef1a6945b9961663e9cc");
    (14, "a1cfd9517e8f2b7b1d4466e40177a3910d67aaf8d89d7b9ffd01a642bae6ff61");
    (15, "97baab8c4bae25f05fe5840b098688ad13908a9cd6e975be64575261e20fc630");
    (16, "1e0548846ad77019a8cd163c43767992ea98ffd307eb1dd8008d8ee98caed2d1");
    (17, "7ba31c8818c7050eaa8508d4f19bf6dfb5deb986fabc791143929fd9cbe19a5f");
    (18, "aa69285b2737245d0a8fa5ee900df0c6f15d549e6175b61855032d1dd54d27b9");
    (19, "d0c5417308b8a7b57ffa2979b77681fe27b3f8c9a723d575adfee1a323218340") ]

let test_pinned_digests () =
  Alcotest.(check int) "twenty blocks" 20 (List.length pinned_fold_digests);
  List.iter
    (fun (b, digest) ->
      Alcotest.(check string) (Printf.sprintf "block %d" b) digest (digest_block b))
    pinned_fold_digests

(* [render_stream] of seeds [100 b .. 100 b + 99] *)
let digest_hundred b =
  Polyprof.Prog_hash.sha256_hex
    (String.concat "" (List.init 100 (fun k -> render_stream ((100 * b) + k))))

(* Digests of [digest_hundred] for blocks 2-19 (seeds 200-1,999),
   generated while the split search still built a piece for every part
   that fitted, before it decided on verdicts: building only the pieces
   it returns changes no output and no exception. *)
let pinned_hundred_digests =
  [ (2, "882172601d955921cdc394cbff7184a83284bd5e21b99ab84ecd8126881cdffa");
    (3, "e445975c76bd3ed1c3cd7fed58c31a0903f293e9c6a36afc2fb0449cbe82b7c4");
    (4, "2fc9cd09187b2f0dea17333b2a44f9ed5b39f15b9ca67f70e87a1a15e536f5c4");
    (5, "a00787876f27336af691c16af9df9722818c981acc4d4b9736e8b1de6b1b0537");
    (6, "1c3908908efebd4fdd0292c00881681154925d3765d12f39e1f82b6a5064a8f7");
    (7, "a2e19adeacf158e9e94eb702b7f3aa613bd4c6fc756adf3a66f038fd959fd2ba");
    (8, "bf5c2600ed929fb1159cdca4befa7072e0b2efb25ad4427ec5cdd409d962960f");
    (9, "318b351ccf19ec8d11f304ec2bf28f6c79cbab04a2a47c12ca587a85adb08e9b");
    (10, "0a9ee157f9bd179dcf76fef1c142becbe0017c3f222afbb6e864c65922382254");
    (11, "27e085c1f0f68a23f8f49f251f157e864fc2f3c47cd8b3abe5965e9e6b39f6ff");
    (12, "5b81ac7a3b8bcbb3e62a536e7dc21ca3b1752472799a8f614faac5c55e7078fc");
    (13, "316bdb1b06f9893be934e4b9638d770f4db35b24341e37791102bca6c6f19c98");
    (14, "9837d56d3e9971a9e111fa80e5a6bcc68b7c1ddb6a8608c102442cc257dc51aa");
    (15, "f39818f1ab6541f99eed0b9f0a231b56600846d3c37645cb52b86be95578a4b8");
    (16, "e655b8caea99547ac92111103ea4778bbf46e2c30cff53a2586305201669b4ea");
    (17, "0239b0f096ed02fce64beb81aa62a20718df553d95737e165d97e21e35327a72");
    (18, "9623489a1c71e0fa1d55dc634d5ed97478b31650064d69103bad42d8b8bbad73");
    (19, "dab126bff1deada4c933354b1476d293c6f8c8d511a3fa7cf332de12df329155") ]

let test_pinned_hundred_digests () =
  Alcotest.(check int) "eighteen blocks" 18 (List.length pinned_hundred_digests);
  List.iter
    (fun (b, digest) ->
      Alcotest.(check string) (Printf.sprintf "seeds %d-%d" (100 * b) ((100 * b) + 99)) digest
        (digest_hundred b))
    pinned_hundred_digests

(* --- allocation ------------------------------------------------------ *)

(* Forty rows of ten points whose label is [sign * j] on even rows and
   [-sign * j] on odd ones: no label is affine over two rows, so the
   greedy search (with no boundary splits) finds a segment per row or so,
   ends [too_many] after [max_pieces + 1] of them, and returns the whole
   rectangle with a top label. *)
let zigzag sign =
  let c = Fold.Collector.create ~boundary_splits:false ~dim:2 ~label_dim:1 () in
  for i = 0 to 39 do
    for j = 0 to 9 do
      Fold.Collector.add c [| i; j |] [| (if i mod 2 = 0 then sign * j else -sign * j) |]
    done
  done;
  c

(* A search that ends [too_many] allocates about what it returns: the
   [max_pieces + 1] segments it gave up are answered by verdicts, so none
   of them is built.  The ceiling allows the result twice over (the
   result, then the table's entry and the tuples around it) plus 64
   words: one more piece of this stream (four constraints and a label,
   over 60 words) built and dropped exceeds it.  A search that built and
   dropped its segments took over 50,000 words here.  The table's workspace is first grown by the
   mirror stream, which searches alike under another key. *)
let test_too_many_allocation () =
  let shared = Fold.Collector.shared () in
  ignore (Fold.Collector.result ~shared (zigzag (-1)));
  let c = zigzag 1 in
  let before = Gc.minor_words () in
  let ps = Fold.Collector.result ~shared c in
  let words = int_of_float (Gc.minor_words () -. before) in
  (match ps with
  | [ p ] ->
      Alcotest.(check bool) "the whole rectangle, top label" true
        (p.Fold.exact && p.Fold.points = 400 && p.Fold.labels = [| None |])
  | _ -> Alcotest.fail "one piece expected");
  let result = Obj.reachable_words (Obj.repr ps) in
  if words > (2 * result) + 64 then
    Alcotest.failf "folding allocated %d minor words for a result of %d words" words result

(* With telemetry on, [fold.search_dropped] stays 0 over the pinned
   streams while the search encodes parts. *)
let test_search_dropped () =
  Obs.Registry.with_enabled @@ fun () ->
  Obs.Metrics.reset ();
  for seed = 0 to 199 do
    ignore (render_stream seed)
  done;
  Alcotest.(check bool) "no piece dropped" true
    (metric "fold.search_dropped" = Some (Obs.Metrics.Vint 0));
  match metric "fold.search_slices" with
  | Some (Obs.Metrics.Vint n) -> Alcotest.(check bool) "parts were searched" true (n > 0)
  | _ -> Alcotest.fail "fold.search_slices missing"

(* --- stream table ---------------------------------------------------- *)

let fresh s = render_collector ~shared:(Fold.Collector.shared ()) s

(* [pts] with the default collector options *)
let plain_stream ?(cap = 100_000) dim label_dim pts =
  { s_dim = dim; s_label_dim = label_dim; s_cap = cap; s_max_pieces = 16; s_splits = true;
    s_per_component = true; s_pts = pts }

(* Each pinned stream goes through one table twice, around variants
   that differ in a keyed option (max_pieces, boundary_splits) or in
   the unkeyed per_component ablation: every collector renders what a
   fresh table renders, and the repeats are answered from the table. *)
let test_shared_parity () =
  Obs.Registry.with_enabled @@ fun () ->
  Obs.Metrics.reset ();
  let shared = Fold.Collector.shared () in
  let foldable = ref 0 in
  for seed = 0 to 199 do
    let s = gen_stream (Random.State.make [| seed |]) in
    let variants =
      [ s;
        { s with s_max_pieces = (s.s_max_pieces mod 3) + 1 };
        { s with s_splits = false };
        { s with s_per_component = not s.s_per_component };
        s ]
    in
    List.iteri
      (fun k v ->
        Alcotest.(check string)
          (Printf.sprintf "seed %d, collector %d" seed k)
          (fresh v) (render_collector ~shared v))
      variants;
    let c = collect s in
    match Fold.Collector.result ~shared:(Fold.Collector.shared ()) c with
    | _ -> if not (Fold.Collector.spilled c) then incr foldable
    | exception Pp_util.Rat.Overflow -> ()
  done;
  match metric "fold.shared" with
  | Some (Obs.Metrics.Vint hits) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d hits for %d foldable streams" hits !foldable)
        true
        (hits >= 2 * !foldable)
  | _ -> Alcotest.fail "fold.shared missing"

(* Streams whose run buffers coincide under a different (dim, label_dim)
   of the same stride fold apart. *)
let test_shared_layouts () =
  let same_stride a b =
    let shared = Fold.Collector.shared () in
    List.iter
      (fun s -> Alcotest.(check string) "same as fresh" (fresh s) (render_collector ~shared s))
      [ a; b; a; b ]
  in
  (* stride 5, buffer [0; 3; 5; 1; 7 | 10; 2; 3; 0; 3]: runs
     (p0, len, l0, step, last) for dim 1, (c0, c1, c2, c3, len) for dim 4 *)
  same_stride
    (plain_stream 1 1
       (List.init 3 (fun x -> ([| x |], [| 5 + x |]))
       @ List.init 2 (fun x -> ([| 10 + x |], [| 3 |]))))
    (plain_stream 4 0
       (List.init 7 (fun t -> ([| 0; 3; 5; 1 + t |], [||]))
       @ List.init 3 (fun t -> ([| 10; 2; 3; t |], [||]))));
  (* stride 4, buffer [1; 4; 0; 4 | 1; 2; 0; 2]: a 0-dimensional stream
     with one label, and a 3-dimensional one without labels *)
  same_stride
    (plain_stream 0 1 [ ([||], [| 4 |]); ([||], [| 2 |]) ])
    (plain_stream 3 0
       (List.init 4 (fun t -> ([| 1; 4; t |], [||]))
       @ List.init 2 (fun t -> ([| 1; 2; t |], [||]))))

(* A spilled collector neither answers from the table nor fills it, and
   a strict prefix of a cached stream is a stream of its own. *)
let test_shared_misses () =
  Obs.Registry.with_enabled @@ fun () ->
  Obs.Metrics.reset ();
  let rect = enumerate_rect 4 5 (fun x y -> [| (2 * x) + y |]) in
  let stream ?cap pts = plain_stream ?cap 2 1 pts in
  let take n = List.filteri (fun i _ -> i < n) rect in
  let shared = Fold.Collector.shared () in
  List.iter
    (fun s -> Alcotest.(check string) "same as fresh" (fresh s) (render_collector ~shared s))
    [ stream ~cap:10 rect; stream rect; stream ~cap:10 rect; stream (take 15); stream (take 14) ];
  Alcotest.(check bool) "no hit" true (metric "fold.shared" = Some (Obs.Metrics.Vint 0))

(* --- run-length codec ---------------------------------------------- *)

let prop_runs_roundtrip =
  QCheck.Test.make ~name:"run-length codec decodes to its stream" ~count:500
    (QCheck.make gen_stream) (fun s ->
      let r = Fold.Runs.of_points ~dim:s.s_dim ~label_dim:s.s_label_dim s.s_pts in
      Fold.Runs.to_points r = s.s_pts
      && Fold.Runs.length r <= List.length s.s_pts)

let test_runs_break () =
  let runs ~dim ~label_dim pts = Fold.Runs.length (Fold.Runs.of_points ~dim ~label_dim pts) in
  Alcotest.(check int) "a 3x4 rectangle with affine labels: one run per row" 3
    (runs ~dim:2 ~label_dim:1 (enumerate_rect 3 4 (fun x y -> [| (7 * x) - (2 * y) |])));
  Alcotest.(check int) "a non-affine label breaks the run" 2
    (runs ~dim:1 ~label_dim:1 (List.init 4 (fun x -> ([| x |], [| min x 2 * 3 |]))));
  (* max_int + 1 wraps to min_int: the run must stop at max_int *)
  Alcotest.(check int) "the innermost coordinate does not wrap" 2
    (runs ~dim:1 ~label_dim:0
       (List.map (fun c -> ([| c |], [||])) [ max_int - 1; max_int; min_int; min_int + 1 ]));
  Alcotest.(check int) "a label step does not wrap" 2
    (runs ~dim:1 ~label_dim:1
       (List.init 4 (fun x -> ([| x |], [| max_int - 3 + (2 * x) |]))));
  Alcotest.(check int) "a label step that overflows starts a run" 2
    (runs ~dim:1 ~label_dim:1
       [ ([| 0 |], [| min_int + 1 |]); ([| 1 |], [| max_int - 1 |]); ([| 2 |], [| 0 |]) ]);
  Alcotest.(check int) "repeated and out-of-order points" 3
    (runs ~dim:1 ~label_dim:0 (List.map (fun c -> ([| c |], [||])) [ 0; 1; 1; 0; 1 ]));
  Alcotest.(check int) "0-dimensional points are runs of their own" 2
    (runs ~dim:0 ~label_dim:1 [ ([||], [| 5 |]); ([||], [| 5 |]) ])

(* --- prefix grouping -------------------------------------------------- *)

(* Streams of short unit-stride rows from a small grid, in random order
   and often repeated: run starts come unsorted, and the same prefix
   (even the same run) appears many times. *)
let gen_rows =
  QCheck.Gen.(
    triple (int_range 1 4) (int_range 1 25) (int_bound 1_000_000) >|= fun (dim, nrows, seed) ->
    let st = Random.State.make [| seed |] in
    let rows =
      List.init nrows (fun _ ->
          let p = Array.init dim (fun _ -> Random.State.int st 4 - 1) in
          (p, 1 + Random.State.int st 4))
    in
    let rows = if Random.State.bool st then rows @ rows else rows in
    ( dim,
      List.concat_map
        (fun (p, len) ->
          List.init len (fun t ->
              let q = Array.copy p in
              q.(dim - 1) <- q.(dim - 1) + t;
              (q, [||])))
        rows ))

(* The grouping the fits use, from the points and the run lengths with
   association lists: groups in the order their prefixes first appear,
   each group's first run, each run's group, and the min and max of
   coordinate [d] over the group's points. *)
let reference_groups pts lens d =
  let prefix (p : int array) = Array.to_list (Array.sub p 0 d) in
  let pts = Array.of_list pts in
  let starts = Array.make (Array.length lens) 0 in
  Array.iteri (fun j _ -> if j > 0 then starts.(j) <- starts.(j - 1) + lens.(j - 1)) lens;
  (* the prefixes seen so far, newest first *)
  let keys = ref [] in
  let group =
    Array.map
      (fun i ->
        let key = prefix pts.(i) in
        if not (List.mem key !keys) then keys := key :: !keys;
        List.length !keys - 1 - Option.get (List.find_index (( = ) key) !keys))
      starts
  in
  let keys = Array.of_list (List.rev !keys) in
  let first = Array.mapi (fun g _ -> Option.get (List.find_index (( = ) g) (Array.to_list group))) keys in
  let coords key =
    List.filter_map (fun p -> if prefix p = key then Some p.(d) else None) (Array.to_list pts)
  in
  ( first,
    group,
    Array.map (fun key -> List.fold_left min max_int (coords key)) keys,
    Array.map (fun key -> List.fold_left max min_int (coords key)) keys )

(* One workspace for every case, so that stale slots or ranges left by an
   earlier grouping would show. *)
let grouping_ws = Fold.Ws.create ()

let prop_prefix_groups =
  QCheck.Test.make ~name:"workspace prefix grouping = list reference" ~count:500
    (QCheck.make gen_rows) (fun (dim, pts) ->
      let r = Fold.Runs.of_points ~dim ~label_dim:0 pts in
      let lens = Fold.Runs.run_lengths r in
      List.for_all
        (fun d ->
          Fold.prefix_groups grouping_ws r d = reference_groups (List.map fst pts) lens d)
        (List.init dim Fun.id))

(* The collector copies what [add] passes it: reusing one array for the
   coordinates and one for the label leaves the result unchanged. *)
let test_add_copies () =
  let pts =
    List.concat
      (List.init 5 (fun i -> List.init (i + 2) (fun j -> ([| i; j |], [| (3 * i) + j; i - j |]))))
    @ [ ([| 9; 0 |], [| 0; 0 |]); ([| 9; 2 |], [| 1; 1 |]) ]
  in
  let fresh = Fold.fold_points ~dim:2 ~label_dim:2 pts in
  let c = Fold.Collector.create ~dim:2 ~label_dim:2 () in
  let coords = Array.make 2 0 and label = Array.make 2 0 in
  List.iter
    (fun (p, l) ->
      Array.blit p 0 coords 0 2;
      Array.blit l 0 label 0 2;
      Fold.Collector.add c coords label)
    pts;
  Array.fill coords 0 2 (-1);
  Array.fill label 0 2 (-1);
  Alcotest.(check string) "same pieces" (render_pieces fresh)
    (render_pieces (Fold.Collector.result ~shared:(Fold.Collector.shared ()) c))

(* --- shared domains ---------------------------------------------------- *)

(* A collector's state, as far as a test can see it: its point count,
   whether it spilled, its runs while it buffers, and its folded pieces. *)
let render_state c =
  Printf.sprintf "n %d spilled %b runs %s\n%s" (Fold.Collector.npoints c)
    (Fold.Collector.spilled c)
    (match Fold.Collector.buffered_runs c with
    | Some a -> String.concat "," (Array.to_list (Array.map string_of_int a))
    | None -> "-")
    (match Fold.Collector.result ~shared:(Fold.Collector.shared ()) c with
    | ps -> render_pieces ps
    | exception Pp_util.Rat.Overflow -> "raises Rat.Overflow\n")

(* The points of a random stream (its labels' first component, or a
   function of the point, labelling them) go into a domain once; the
   first [n] of them are filled into a label-less and a self-labelled
   collector, and a one-label collector takes each point through
   [label], then through [add] once it spilled: each must be the
   collector [add] builds point by point. *)
let prop_domain_fill =
  QCheck.Test.make ~name:"domain fills and labels are point-by-point adds" ~count:500
    (QCheck.make QCheck.Gen.(pair (int_bound 1_000_000) bool))
    (fun (seed, final) ->
      let st = Random.State.make [| seed |] in
      let s = gen_stream st in
      let dim = s.s_dim and cap = s.s_cap in
      let total = List.length s.s_pts in
      let n = if final then min total cap else Random.State.int st (1 + min total cap) in
      let pts = List.filteri (fun i _ -> i < n) s.s_pts in
      let create label_dim = Fold.Collector.create ~cap ~dim ~label_dim () in
      let d = Fold.Collector.domain ~dim ~cap in
      let labelled = create 1 and reference_l = create 1 in
      List.iteri
        (fun i (p, l) ->
          let v = if s.s_label_dim > 0 then l.(0) else (7 * i) - Array.fold_left ( + ) 0 p in
          Fold.Collector.extend d p;
          if Fold.Collector.spilled labelled then Fold.Collector.add labelled p [| v |]
          else Fold.Collector.label labelled d p v;
          Fold.Collector.add reference_l p [| v |])
        pts;
      let fill src label_dim =
        let c = create label_dim in
        Fold.Collector.fill ~final c d src n;
        c
      in
      let reference label_dim label =
        let c = create label_dim in
        List.iter (fun (p, _) -> Fold.Collector.add c p (label p)) pts;
        c
      in
      let unlabelled = fill Fold.Collector.Unlabelled 0 in
      let by_coords = fill Fold.Collector.By_coords dim in
      let by_coords' = fill Fold.Collector.By_coords dim in
      let same a b = render_state a = render_state b in
      same unlabelled (reference 0 (fun _ -> [||]))
      && same by_coords (reference dim Array.copy)
      && same by_coords' by_coords
      && same labelled reference_l)

(* --- closed-form innermost row ---------------------------------------- *)

(* [Fold.implied_count] as it was, walking every point of the innermost
   row *)
let implied_count_loop bnds ~limit =
  let dim = Array.length bnds in
  let exception Too_many in
  let prefix = Array.make dim 0 in
  let work = ref 0 in
  let rec go d =
    if d = dim then 1
    else begin
      let lo_f, hi_f = bnds.(d) in
      let lo = A.ceil_int lo_f prefix in
      let hi = A.floor_int hi_f prefix in
      if hi - lo > limit then raise Too_many;
      let total = ref 0 in
      for v = lo to hi do
        incr work;
        if !work > 4 * (limit + dim + 1) then raise Too_many;
        prefix.(d) <- v;
        total := !total + go (d + 1);
        if !total > limit then raise Too_many
      done;
      prefix.(d) <- 0;
      !total
    end
  in
  try Some (go 0) with Too_many -> None

(* the count and the enumeration work of a nest, without limits *)
let count_and_work bnds =
  let dim = Array.length bnds in
  let prefix = Array.make dim 0 and work = ref 0 in
  let rec go d =
    if d = dim then 1
    else begin
      let lo_f, hi_f = bnds.(d) in
      let total = ref 0 in
      for v = A.ceil_int lo_f prefix to A.floor_int hi_f prefix do
        incr work;
        prefix.(d) <- v;
        total := !total + go (d + 1)
      done;
      !total
    end
  in
  let n = go 0 in
  (n, !work)

(* random nests: per dim, bounds affine in the outer coordinates with
   halves among the coefficients, and rows that may be empty *)
let gen_bounds =
  QCheck.Gen.(
    int_range 1 3 >>= fun dim ->
    let coef = map2 (fun a h -> Rat.make a (if h then 2 else 1)) (int_range (-2) 2) bool in
    let bound = map2 (fun cs c -> (cs, c)) (list_repeat dim coef) (int_range (-12) 30) in
    map
      (fun bs ->
        Array.of_list
          (List.mapi
             (fun d ((lcs, lc), (hcs, hc)) ->
               let aff cs c =
                 A.make
                   (Array.of_list (List.mapi (fun k x -> if k < d then x else Rat.zero) cs))
                   (Rat.of_int c)
               in
               (aff lcs lc, aff hcs hc))
             bs))
      (list_repeat dim (pair bound bound)))

(* A nest whose last innermost row is what crosses the work bound while
   the count stays under [limit]: a triangle of 44 outer iterations whose
   innermost rows are empty but the last, of one point (count 1, work 45
   against a bound of 44 at limit 7). *)
let test_implied_count_work_bound () =
  let bnds =
    [| (A.of_int_coeffs [| 0; 0; 0 |] 0, A.of_int_coeffs [| 0; 0; 0 |] 7);
       (A.of_int_coeffs [| 0; 0; 0 |] 0, A.of_int_coeffs [| -1; 0; 0 |] 7);
       (A.of_int_coeffs [| 0; 0; 0 |] 0, A.of_int_coeffs [| 1; -1; 0 |] (-7)) |]
  in
  Alcotest.(check (pair int int)) "count and work" (1, 45) (count_and_work bnds);
  List.iter
    (fun limit ->
      Alcotest.(check (option int))
        (Printf.sprintf "limit %d" limit)
        (implied_count_loop bnds ~limit) (Fold.implied_count bnds ~limit))
    [ 0; 1; 6; 7; 8 ];
  Alcotest.(check (option int)) "the work bound ends it" None (Fold.implied_count bnds ~limit:7)

let prop_implied_count_closed_form =
  QCheck.Test.make ~name:"closed-form innermost row counts as the per-point loop"
    ~count:500 (QCheck.make gen_bounds) (fun bnds ->
      let dim = Array.length bnds in
      let count, work = count_and_work bnds in
      (* limits at the edges: the count, one below it, and where the
         work bound [4 * (limit + dim + 1)] meets the enumeration work *)
      let at_work = (work / 4) - dim - 1 in
      let limits = [ count; count - 1; count + 1; at_work - 1; at_work; at_work + 1; 0 ] in
      List.for_all
        (fun limit ->
          limit < 0 || Fold.implied_count bnds ~limit = implied_count_loop bnds ~limit)
        limits)

(* [nest] as a polyhedron written down with [Minisl]'s own [Rat]
   arithmetic *)
let reference_polyhedron nest =
  let dim = Array.length nest in
  let cons = ref [] in
  for d = 0 to dim - 1 do
    let lo, hi = nest.(d) in
    let v = A.var ~dim d in
    cons :=
      Minisl.Constr.of_affine Ge (A.sub v lo) :: Minisl.Constr.of_affine Ge (A.sub hi v) :: !cons
  done;
  P.make dim !cons

(* Bounds over one to three coordinates whose fractions are small, or
   have a numerator or denominator near the ends of the int range, where
   clearing denominators overflows. *)
let gen_rat_nest =
  let open QCheck.Gen in
  let extreme =
    oneofl [ max_int; max_int - 1; min_int; min_int + 1; 1 lsl 61; -(1 lsl 61); 1 lsl 40; 3037000499 ]
  in
  let num = frequency [ (24, int_range (-5) 5); (1, extreme) ] in
  let den =
    frequency
      [ (12, return 1); (12, int_range 1 7); (1, oneofl [ max_int; 1 lsl 40; 3037000499; 2147483647 ]) ]
  in
  let rat = map2 Rat.make num den in
  int_range 1 3 >>= fun dim ->
  let affine = map2 (fun coeffs const -> { A.coeffs; const }) (array_size (return dim) rat) rat in
  array_size (return dim) (pair affine affine)

let prop_nest_polyhedron =
  QCheck.Test.make ~name:"nest_polyhedron = Minisl's, overflow included" ~count:2000
    (QCheck.make gen_rat_nest) (fun nest ->
      let outcome f = match f () with p -> Some (P.constraints p) | exception Rat.Overflow -> None in
      Option.equal (List.equal Minisl.Constr.equal)
        (outcome (fun () -> Fold.nest_polyhedron nest))
        (outcome (fun () -> reference_polyhedron nest)))

(* --- decision counters ----------------------------------------------- *)

let test_runs_counter () =
  Obs.Registry.with_enabled @@ fun () ->
  Obs.Metrics.reset ();
  (* a 4x5 rectangle folds whole from its 4 runs; nothing is decoded *)
  ignore (Fold.fold_points ~dim:2 ~label_dim:1 (enumerate_rect 4 5 (fun x y -> [| x + y |])));
  Alcotest.(check bool) "fold.runs" true (metric "fold.runs" = Some (Obs.Metrics.Vint 4));
  Alcotest.(check bool) "nothing decoded" true
    (metric "fold.decoded_points" = Some (Obs.Metrics.Vint 0))

let test_decoded_counter () =
  Obs.Registry.with_enabled @@ fun () ->
  Obs.Metrics.reset ();
  (* a split search encodes its parts from the stream's runs and
     decodes nothing ... *)
  let pts = List.init 7 (fun x -> ([| x |], [| (if x < 3 then x else 10 * x) |])) in
  ignore (Fold.fold_points ~dim:1 ~label_dim:1 pts);
  Alcotest.(check bool) "split search" true
    (metric "fold.decoded_points" = Some (Obs.Metrics.Vint 0));
  Alcotest.(check bool) "slices appended" true
    (match metric "fold.search_slices" with Some (Obs.Metrics.Vint n) -> n > 0 | _ -> false);
  (* ... and a cap spill counts the points buffered so far *)
  let c = Fold.Collector.create ~cap:10 ~dim:1 ~label_dim:1 () in
  for x = 0 to 29 do
    Fold.Collector.add c [| x |] [| x |]
  done;
  ignore (Fold.Collector.result ~shared:(Fold.Collector.shared ()) c);
  Alcotest.(check bool) "spill" true
    (metric "fold.decoded_points" = Some (Obs.Metrics.Vint 10));
  Alcotest.(check bool) "runs held at the spill" true
    (metric "fold.runs" = Some (Obs.Metrics.Vint 3))

let test_shared_counter () =
  Obs.Registry.with_enabled @@ fun () ->
  Obs.Metrics.reset ();
  let shared = Fold.Collector.shared () in
  let fold pts =
    let c = Fold.Collector.create ~dim:1 ~label_dim:1 () in
    List.iter (fun (p, l) -> Fold.Collector.add c p l) pts;
    Fold.Collector.result ~shared c
  in
  (* the second collector of a split-search stream takes the first's
     pieces: one hit, nothing decoded for it *)
  let pts = List.init 7 (fun x -> ([| x |], [| (if x < 3 then x else 10 * x) |])) in
  let a = fold pts and b = fold pts in
  Alcotest.(check bool) "the table's pieces" true (a == b);
  Alcotest.(check bool) "one hit" true (metric "fold.shared" = Some (Obs.Metrics.Vint 1));
  Alcotest.(check bool) "nothing decoded" true
    (metric "fold.decoded_points" = Some (Obs.Metrics.Vint 0));
  Alcotest.(check bool) "both count their points" true
    (metric "fold.points" = Some (Obs.Metrics.Vint 14))

(* --- shifted streams ---------------------------------------------------- *)

(* [s] with [c.(k)] added to label component [k] of every point *)
let shift_stream s c =
  { s with s_pts = List.map (fun (p, l) -> (p, Array.mapi (fun k v -> v + c.(k)) l)) s.s_pts }

(* [a] then [a + c] through one table, with telemetry on: the second
   renders what a fresh table renders, and counts [shifted] in
   [fold.shifted] *)
let check_shifted ~shifted a c =
  Obs.Registry.with_enabled @@ fun () ->
  Obs.Metrics.reset ();
  let b = shift_stream a c and shared = Fold.Collector.shared () in
  ignore (render_collector ~shared a);
  Alcotest.(check string) "as fresh" (fresh b) (render_collector ~shared b);
  Alcotest.(check bool)
    (Printf.sprintf "fold.shifted = %d" shifted)
    true
    (Option.value (metric "fold.shifted") ~default:(Obs.Metrics.Vint 0) = Obs.Metrics.Vint shifted)

(* One row of the plane, i0 = 1: its points do not affinely span the
   plane, so the fit writes a label as i0 times the constant.  Shifted by
   16, the fresh fold writes [116i0 + i1]; adding 16 to the constant of
   [100i0 + i1] would give a different (equal-valued) function. *)
let test_shifted_pinned_row () =
  let row = plain_stream 2 1 (List.init 4 (fun j -> ([| 1; j |], [| 100 + j |]))) in
  let shifted = shift_stream row [| 16 |] in
  check_shifted ~shifted:1 row [| 16 |];
  let contains s sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "the label is refitted" true (contains (fresh shifted) "[116i0 + i1]")

(* The boundary-split counterexample: the first row (i0 = 1) of a
   rectangle has labels that are not affine with the others', so the
   stream splits there and that piece pins i0. *)
let pinned_split =
  plain_stream 2 1
    (List.concat_map
       (fun i -> List.init 4 (fun j -> ([| i; j |], [| (if i = 1 then 100 + j else (10 * i) + j) |])))
       [ 1; 2; 3; 4 ])

let test_shifted_boundary_split () =
  check_shifted ~shifted:1 pinned_split [| 16 |];
  check_shifted ~shifted:1 pinned_split [| -78 |]

(* Each origin a piece can have: greedy segments (rows whose labels are
   mutually not affine, four of them so that boundary splits give up),
   the whole stream with a top component (more than [max_pieces]
   segments, exact domain), and a box (more segments, holes). *)
let test_shifted_origins () =
  let segments =
    plain_stream 2 1
      (List.concat_map
         (fun i -> List.init 5 (fun j -> ([| i; j |], [| (i * i * j) + (7 * i) |])))
         [ 1; 2; 3; 4 ])
  in
  let lenient =
    plain_stream 1 2 (List.init 40 (fun x -> ([| x |], [| (3 * x) + 1; x * x |])))
  in
  let box =
    plain_stream 1 2 (List.init 40 (fun x -> ([| 2 * x |], [| (5 * x) + 2; x * x |])))
  in
  List.iter
    (fun (s, c) -> check_shifted ~shifted:1 s c)
    [ (segments, [| 1000 |]); (segments, [| -3 |]); (lenient, [| 5; -9 |]);
      (box, [| -1; 12 |]) ];
  (* the kinds are the ones meant *)
  let pieces s = Fold.fold_points ~dim:s.s_dim ~label_dim:s.s_label_dim s.s_pts in
  Alcotest.(check int) "four segments" 4 (List.length (pieces segments));
  (match pieces lenient with
  | [ p ] -> Alcotest.(check bool) "exact, one top component" true (p.Fold.exact && p.Fold.labels.(1) = None)
  | _ -> Alcotest.fail "expected one lenient piece");
  match pieces box with
  | [ p ] -> Alcotest.(check bool) "a box" false p.Fold.exact
  | _ -> Alcotest.fail "expected one box"

(* Past the magnitude guard a shifted stream is folded afresh: labels
   beyond 2^40 (before or after the shift), and shifts that wrap around
   [max_int] *)
let test_shifted_guard () =
  let g = 1 lsl 40 in
  let near l = shift_stream pinned_split [| l |] in
  (* the stream's own labels run up to 103 *)
  check_shifted ~shifted:1 (near (g - 200)) [| 50 |];
  check_shifted ~shifted:0 (near (g - 200)) [| 300 |];
  check_shifted ~shifted:0 (near (g + 10)) [| -100 |];
  check_shifted ~shifted:1 (near (-g)) [| 1 |];
  check_shifted ~shifted:0 (near (max_int - 50)) [| 100 |];
  check_shifted ~shifted:0 (near (min_int + 10)) [| max_int |]

(* Random streams [a] and shifts [c]: [a + c] after [a] through one
   table, and [a] again after both, render what a fresh table renders
   for them, raising included.  The shifts are small, around the guard,
   or anywhere. *)
let prop_shifted_parity =
  let gen st =
    let s = gen_stream st in
    let shift _ =
      match Random.State.int st 4 with
      | 0 -> Random.State.int st 2001 - 1000
      | 1 -> (1 lsl 40) - Random.State.int st 2001 + 1000
      | 2 -> -(1 lsl 40) + Random.State.int st 2001 - 1000
      | _ -> Random.State.bits st lor (Random.State.bits st lsl 30) lor (Random.State.bits st lsl 60)
    in
    (s, Array.init s.s_label_dim shift)
  in
  QCheck.Test.make ~name:"a shifted stream folds as fresh" ~count:500 (QCheck.make gen)
    (fun (s, c) ->
      (* a cap spill can raise while the points are added *)
      let render shared s =
        try render_collector ~shared s with Pp_util.Rat.Overflow -> "raises while adding"
      in
      let fresh s = render (Fold.Collector.shared ()) s in
      let b = shift_stream s c and shared = Fold.Collector.shared () in
      ignore (render shared s);
      render shared b = fresh b && render shared s = fresh s)

(* --- suite-wide oracle ----------------------------------------------- *)

(* floor and ceiling of [a / b], [b > 0] *)
let fdiv a b = if a >= 0 then a / b else -((-a + b - 1) / b)
let cdiv a b = -fdiv (-a) b

(* [f] on every integer point of a bounded [dom] (the same array, reused):
   the outer coordinates over the rational bounds of their projections,
   the innermost one solved from the constraints *)
let iter_points dom f =
  let dim = P.dim dom in
  if dim = 0 then (if P.mem dom [||] then f [||])
  else begin
    let cons = P.constraints dom and x = Array.make dim 0 in
    let rec go d =
      if d = dim - 1 then begin
        let lo = ref min_int and hi = ref max_int in
        List.iter
          (fun (c : Minisl.Constr.t) ->
            let r = ref c.c in
            for k = 0 to d - 1 do
              r := !r + (c.v.(k) * x.(k))
            done;
            let a = c.v.(d) and r = !r in
            match c.kind with
            | _ when a = 0 -> if r < 0 || (c.kind = Eq && r <> 0) then hi := min_int
            | Ge -> if a > 0 then lo := max !lo (cdiv (-r) a) else hi := min !hi (fdiv r (-a))
            | Eq ->
                if r mod a <> 0 then hi := min_int
                else begin
                  lo := max !lo (-r / a);
                  hi := min !hi (-r / a)
                end)
          cons;
        for v = !lo to !hi do
          x.(d) <- v;
          f x
        done
      end
      else
        match P.dim_bounds dom d with
        | Some lo, Some hi ->
            for v = Rat.ceil lo to Rat.floor hi do
              x.(d) <- v;
              go (d + 1)
            done
        | _ -> Alcotest.fail "an exact domain is unbounded"
    in
    go 0
  end

type oracle = { by_source : int array; mutable failure : string option }

module Point_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    let rec same i = i = Array.length a || (a.(i) = b.(i) && same (i + 1)) in
    Array.length a = Array.length b && same 0

  let hash (a : t) = Array.fold_left (fun h v -> (h * 31) + v) 0 a land max_int
end)

(* The result of a collector against its decoded stream: the pieces
   partition its points; every integer point of an exact piece's domain
   is a point of the stream, as many as the piece has; every point lies
   in some piece; and every label function a piece has reproduces the
   label of every point of the stream in its domain. *)
let oracle_check o name source points labels pieces =
  let src = match source with Fold.Collector.Folded -> 0 | Shared -> 1 | Shifted -> 2 in
  o.by_source.(src) <- o.by_source.(src) + 1;
  let n = Array.length points in
  let at = Point_tbl.create n and covered = Array.make n false in
  Array.iteri (fun i p -> Point_tbl.add at p i) points;
  let fail what =
    if o.failure = None then o.failure <- Some (Printf.sprintf "%s: %s" (Lazy.force name) what)
  in
  (* the stream's point [i] lies in [pc]'s domain *)
  let visit (pc : Fold.piece) i =
    covered.(i) <- true;
    Array.iteri
      (fun k f ->
        match f with
        | Some f -> if A.compare_int f points.(i) labels.(i).(k) <> 0 then fail "a label function misses a label"
        | None -> ())
      pc.labels
  in
  List.iter
    (fun (pc : Fold.piece) ->
      if pc.exact then begin
        let count = ref 0 in
        iter_points pc.dom (fun x ->
            incr count;
            match Point_tbl.find_all at x with
            | [] -> fail "an exact domain holds a point outside the stream"
            | is -> List.iter (visit pc) is);
        if !count <> pc.points then fail "an exact domain's point count differs from its piece's"
      end
      else Array.iteri (fun i x -> if P.mem pc.dom x then visit pc i) points)
    pieces;
  if List.fold_left (fun n (pc : Fold.piece) -> n + pc.points) 0 pieces <> n then
    fail "the pieces' point counts do not sum to the stream's";
  if not (Array.for_all Fun.id covered) then fail "a point lies in no piece"

(* Every collector of every suite program's profile, through the
   profile's own stream table: folded, equal and shifted answers all
   meet the oracle. *)
let test_suite_oracle () =
  let o = { by_source = [| 0; 0; 0 |]; failure = None } in
  Fun.protect ~finally:(fun () -> Fold.Collector.set_check None) @@ fun () ->
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let n = ref 0 in
      Fold.Collector.set_check
        (Some
           (fun source points labels pieces ->
             incr n;
             oracle_check o
               (lazy (Printf.sprintf "%s, collector %d" w.w_name !n))
               source points labels pieces));
      ignore (Ddg.Depprof.profile (Vm.Hir.lower w.hir)))
    Workloads.Runner.suite;
  Option.iter Alcotest.fail o.failure;
  Printf.printf "collectors folded %d, equal %d, shifted %d\n" o.by_source.(0) o.by_source.(1)
    o.by_source.(2);
  Alcotest.(check bool) "all three sources met" true (Array.for_all (fun n -> n > 0) o.by_source)

(* --- run slices ---------------------------------------------------------- *)

(* Streams built run by run, for the split search's slice encoding: runs
   of one point or a few, outer coordinates from a small grid, dims 0-4,
   and innermost coordinates, labels and label steps often within a few
   steps of [max_int] / [min_int] (or of [max_int / c], where a product
   overflows).  A run often starts right after an
   earlier run's last point, continuing its labels or not, so that two
   slices which are apart in the stream can meet in a part. *)
let gen_slice_stream st =
  let rand n = Random.State.int st (max 1 n) in
  let near () =
    match rand 3 with
    | 0 -> max_int - rand 4
    | 1 -> min_int + rand 4
    | _ -> (max_int / (2 + rand 3)) - rand 4
  in
  let dim = rand 5 and label_dim = rand 4 and extreme = rand 3 = 0 in
  let small () = rand 11 - 5 in
  let pts = ref [] and ends = ref [] in
  for _ = 1 to 1 + rand 12 do
    let len = if rand 2 = 0 then 1 else 1 + rand 5 in
    let step () = if extreme && rand 3 = 0 then max_int / (1 + rand 3) else rand 5 - 2 in
    let p0, l0, step =
      match (rand 3, !ends) with
      | (1 | 2), (_ :: _ as ends) when dim > 0 ->
          let p, l, st = List.nth ends (rand (List.length ends)) in
          let p0 = Array.copy p in
          p0.(dim - 1) <- p0.(dim - 1) + 1;
          if rand 3 = 1 then (p0, Array.map2 ( + ) l st, st)
          else (p0, Array.map (fun _ -> small ()) l, Array.map (fun _ -> step ()) l)
      | _ ->
          ( Array.init dim (fun k -> if k = dim - 1 && extreme && rand 2 = 0 then near () else rand 3 - 1),
            Array.init label_dim (fun _ -> if extreme && rand 2 = 0 then near () else small ()),
            Array.init label_dim (fun _ -> step ()) )
    in
    let point t =
      let p = Array.copy p0 in
      if dim > 0 then p.(dim - 1) <- p.(dim - 1) + t;
      (p, Array.mapi (fun k l -> l + (t * step.(k))) l0)
    in
    for t = 0 to len - 1 do
      pts := point t :: !pts
    done;
    let p, l = point (len - 1) in
    ends := (p, l, step) :: !ends
  done;
  (dim, label_dim, List.rev !pts)

(* A random canonical part of [r]: per run nothing, all of it, or one or
   two slices with a gap between them. *)
let gen_part st r =
  let rand n = Random.State.int st (max 1 n) in
  let part = ref [] in
  let add j f l = part := l :: f :: j :: !part in
  Array.iteri
    (fun j len ->
      match rand 3 with
      | 0 -> ()
      | 1 -> add j 0 len
      | _ ->
          let f = rand len in
          let l = 1 + rand (len - f) in
          add j f l;
          if f + l + 1 < len && rand 2 = 0 then begin
            let f2 = f + l + 1 + rand (len - f - l - 1) in
            add j f2 (1 + rand (len - f2))
          end)
    (Fold.Runs.run_lengths r);
  Array.of_list (List.rev !part)

(* the points of [part], in order, from the decoded stream *)
let part_points r part =
  let pts = Array.of_list (Fold.Runs.to_points r) in
  let lens = Fold.Runs.run_lengths r in
  let starts = Array.make (Array.length lens) 0 in
  Array.iteri (fun j _ -> if j > 0 then starts.(j) <- starts.(j - 1) + lens.(j - 1)) lens;
  List.concat
    (List.init
       (Array.length part / 3)
       (fun i ->
         let j = part.(3 * i) and f = part.((3 * i) + 1) and l = part.((3 * i) + 2) in
         List.init l (fun t -> pts.(starts.(j) + f + t))))

let gen_sliced =
  QCheck.make
    ~print:(fun ((dim, ld, pts), part) ->
      Printf.sprintf "dim %d label_dim %d, %d points, part [%s]" dim ld (List.length pts)
        (String.concat "; " (Array.to_list (Array.map string_of_int part))))
    (fun st ->
      let ((dim, label_dim, pts) as s) = gen_slice_stream st in
      (s, gen_part st (Fold.Runs.of_points ~dim ~label_dim pts)))

let prop_slice_encoding =
  QCheck.Test.make ~name:"slice encoding = pushing the points one at a time" ~count:2000 gen_sliced
    (fun ((dim, label_dim, pts), part) ->
      let r = Fold.Runs.of_points ~dim ~label_dim pts in
      let e = Fold.encode_slices r part in
      let q = Fold.Runs.of_points ~dim ~label_dim (part_points r part) in
      Fold.Runs.length e = Fold.Runs.length q
      && Fold.Runs.npoints e = Fold.Runs.npoints q
      && Fold.Runs.contents e = Fold.Runs.contents q)

let slice_ws = Fold.Ws.create ()

let prop_slice_groups =
  QCheck.Test.make ~name:"slice grouping = prefix grouping of the encoded part" ~count:1000
    gen_sliced (fun ((dim, label_dim, pts), part) ->
      let r = Fold.Runs.of_points ~dim ~label_dim pts in
      List.for_all
        (fun d ->
          Fold.part_groups slice_ws r part d
          = Fold.prefix_groups slice_ws (Fold.encode_slices r part) d)
        (List.init dim Fun.id))

(* [Fold.fit_points] on decoded points, spelled out: the first [dim + 2]
   points are sampled, then each point the candidate misses, for at most
   [dim + 5] rounds; a round solves the missed points newest first, then
   the first ones, in checked ints or else over [Rat]. *)
let fit_points_decoded ws ~dim (points : int array array) (values : int array) =
  let n = Array.length points in
  let m0 = min n (dim + 2) in
  let rec round r missed =
    if r > dim + 4 then None
    else begin
      let rows = Array.of_list (missed @ List.init m0 Fun.id) in
      let pts = Array.map (fun i -> points.(i)) rows and vals = Array.map (fun i -> values.(i)) rows in
      match
        try Fold.solve_samples ws pts vals
        with Pp_util.Rat.Overflow -> Pp_util.Matrix.affine_fit pts vals
      with
      | None -> None
      | Some (coeffs, const) ->
          let f = { A.coeffs; const } in
          let bad = ref 0 in
          while !bad < n && A.compare_int f points.(!bad) values.(!bad) = 0 do
            incr bad
          done;
          if !bad = n then Some f else round (r + 1) (!bad :: missed)
    end
  in
  if n = 0 then None else round 0 []

let prop_fit_points =
  let outcome f = match f () with v -> Ok v | exception Pp_util.Rat.Overflow -> Error () in
  QCheck.Test.make ~name:"fit_points over runs = over decoded points" ~count:1000
    (QCheck.make (fun st ->
         if Random.State.bool st then gen_slice_stream st
         else
           let s = gen_stream st in
           (s.s_dim, s.s_label_dim, s.s_pts)))
    (fun (dim, label_dim, pts) ->
      let r = Fold.Runs.of_points ~dim ~label_dim pts in
      let points = Array.of_list (List.map fst pts) in
      List.for_all
        (fun k ->
          let values = Array.of_list (List.map (fun (_, l) -> l.(k)) pts) in
          outcome (fun () -> Fold.fit_points slice_ws r k)
          = outcome (fun () -> fit_points_decoded slice_ws ~dim points values))
        (List.init label_dim Fun.id))

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
            test_collector_points_histogram;
          Alcotest.test_case "runs counter" `Quick test_runs_counter;
          Alcotest.test_case "decoded points counter" `Quick test_decoded_counter;
          Alcotest.test_case "shared streams counter" `Quick test_shared_counter ] );
      ( "runs",
        [ Alcotest.test_case "runs break where a step would wrap" `Quick test_runs_break;
          Alcotest.test_case "add copies its arrays" `Quick test_add_copies ] );
      ( "implied count",
        [ Alcotest.test_case "the work bound ends the last row" `Quick
            test_implied_count_work_bound ] );
      ( "parity",
        [ Alcotest.test_case "pinned fold digests" `Quick test_pinned_digests;
          Alcotest.test_case "pinned digests, seeds 200-1999" `Quick test_pinned_hundred_digests;
          Alcotest.test_case "a shared table folds as fresh ones" `Quick test_shared_parity;
          Alcotest.test_case "equal buffers, different layouts" `Quick test_shared_layouts;
          Alcotest.test_case "spills and prefixes miss" `Quick test_shared_misses ] );
      ( "shifted",
        [ Alcotest.test_case "a pinned row is refitted" `Quick test_shifted_pinned_row;
          Alcotest.test_case "a pinned boundary split" `Quick test_shifted_boundary_split;
          Alcotest.test_case "every piece origin" `Quick test_shifted_origins;
          Alcotest.test_case "the magnitude guard" `Quick test_shifted_guard;
          QCheck_alcotest.to_alcotest prop_shifted_parity ] );
      ("oracle", [ Alcotest.test_case "every suite collector" `Quick test_suite_oracle ]);
      ( "allocation",
        [ Alcotest.test_case "too_many builds only what it returns" `Quick
            test_too_many_allocation;
          Alcotest.test_case "search drops no piece" `Quick test_search_dropped ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fold_rect_roundtrip; prop_fold_covers;
            prop_fold_enumeration_oracle; prop_runs_roundtrip;
            prop_implied_count_closed_form; prop_prefix_groups; prop_domain_fill;
            prop_nest_polyhedron ] );
      ( "slices",
        List.map QCheck_alcotest.to_alcotest
          [ prop_slice_encoding; prop_slice_groups; prop_fit_points ] ) ]
