(* Tests for the mini-isl polyhedral substrate. *)

module Rat = Pp_util.Rat
module A = Minisl.Affine
module C = Minisl.Constr
module P = Minisl.Polyhedron
module S = Minisl.Pset
module Hull = Minisl.Hull

(* { 0 <= x <= a, 0 <= y <= b } *)
let box2 a b =
  P.make 2
    [ C.make Ge [| 1; 0 |] 0; C.make Ge [| -1; 0 |] a;
      C.make Ge [| 0; 1 |] 0; C.make Ge [| 0; -1 |] b ]

(* triangle { 0 <= i <= n, 0 <= j <= i } *)
let triangle n =
  P.make 2
    [ C.make Ge [| 1; 0 |] 0; C.make Ge [| -1; 0 |] n;
      C.make Ge [| 0; 1 |] 0; C.make Ge [| 1; -1 |] 0 ]

let test_mem () =
  let t = triangle 5 in
  Alcotest.(check bool) "(3,2) in" true (P.mem t [| 3; 2 |]);
  Alcotest.(check bool) "(3,3) in" true (P.mem t [| 3; 3 |]);
  Alcotest.(check bool) "(3,4) out" false (P.mem t [| 3; 4 |]);
  Alcotest.(check bool) "(6,0) out" false (P.mem t [| 6; 0 |])

let test_emptiness () =
  Alcotest.(check bool) "universe non-empty" false (P.is_empty (P.universe 2));
  Alcotest.(check bool) "canonical empty" true (P.is_empty (P.empty 2));
  let contradictory =
    P.make 1 [ C.make Ge [| 1 |] 0; C.make Ge [| -1 |] (-1) ]
  in
  (* x >= 0 and -x - 1 >= 0 (x <= -1): empty *)
  Alcotest.(check bool) "x>=0 & x<=-1 empty" true (P.is_empty contradictory);
  let thin = P.make 1 [ C.make Eq [| 1 |] (-3) ] in
  Alcotest.(check bool) "x = 3 non-empty" false (P.is_empty thin)

let test_intersect () =
  let p = P.intersect (box2 10 10) (triangle 20) in
  Alcotest.(check bool) "(10,10) in" true (P.mem p [| 10; 10 |]);
  Alcotest.(check bool) "(5,7) out" false (P.mem p [| 5; 7 |]);
  Alcotest.(check bool) "(11,0) out" false (P.mem p [| 11; 0 |])

let test_eliminate () =
  (* project the triangle on j: 0 <= j <= n *)
  let t = triangle 5 in
  let q = P.eliminate t [ 0 ] in
  Alcotest.(check bool) "j=5 reachable" true (P.mem q [| 99; 5 |]);
  Alcotest.(check bool) "j=6 not" false (P.mem q [| 99; 6 |])

let test_bounds () =
  let t = triangle 5 in
  (* max of i + j over the triangle is 10, min is 0 *)
  let lo, hi = P.bounds t (A.of_int_coeffs [| 1; 1 |] 0) in
  Alcotest.(check bool) "min 0" true
    (match lo with Some l -> Rat.equal l Rat.zero | None -> false);
  Alcotest.(check bool) "max 10" true
    (match hi with Some h -> Rat.equal h (Rat.of_int 10) | None -> false);
  (* unbounded direction *)
  let half = P.make 1 [ C.make Ge [| 1 |] 0 ] in
  let _, hi = P.bounds half (A.of_int_coeffs [| 1 |] 0) in
  Alcotest.(check bool) "unbounded above" true (hi = None)

let test_entails_subset () =
  let t5 = triangle 5 and t9 = triangle 9 in
  Alcotest.(check bool) "t5 subset t9" true (P.is_subset t5 t9);
  Alcotest.(check bool) "t9 not subset t5" false (P.is_subset t9 t5);
  Alcotest.(check bool) "t5 = t5" true (P.equal_set t5 t5);
  Alcotest.(check bool) "empty subset anything" true
    (P.is_subset (P.empty 2) t5)

let test_count_points () =
  Alcotest.(check int) "box 3x2" 12 (P.count (box2 3 2));
  Alcotest.(check int) "triangle n=3" 10 (P.count (triangle 3));
  Alcotest.(check int) "empty" 0 (P.count (P.empty 2))

let test_sample () =
  (match P.sample (triangle 5) with
  | Some pt -> Alcotest.(check bool) "sample in set" true (P.mem (triangle 5) pt)
  | None -> Alcotest.fail "sample failed");
  Alcotest.(check bool) "sample of empty" true (P.sample (P.empty 2) = None)

let test_translate () =
  let t = P.translate (box2 2 2) [| 10; 20 |] in
  Alcotest.(check bool) "translated in" true (P.mem t [| 11; 21 |]);
  Alcotest.(check bool) "origin out" false (P.mem t [| 0; 0 |])

let test_pset () =
  let u = S.union (S.singleton (box2 2 2)) (S.singleton (triangle 9)) in
  Alcotest.(check bool) "in first" true (S.mem u [| 1; 2 |]);
  Alcotest.(check bool) "in second" true (S.mem u [| 9; 9 |]);
  Alcotest.(check bool) "in neither" false (S.mem u [| 3; 9 |]);
  let c = S.coalesce (S.union (S.singleton (triangle 3)) (S.singleton (triangle 9))) in
  Alcotest.(check int) "coalesce drops contained" 1 (S.n_disjuncts c)

let test_pmap () =
  let dom = triangle 5 in
  let out = [| A.of_int_coeffs [| 1; 0 |] 0; A.of_int_coeffs [| 0; 1 |] (-1) |] in
  let m = Minisl.Pmap.make ~in_dim:2 ~out_dim:2 [ { Minisl.Pmap.dom; out } ] in
  (match Minisl.Pmap.apply_int m [| 3; 2 |] with
  | Some img ->
      Alcotest.(check (array int)) "image" [| 3; 1 |] img
  | None -> Alcotest.fail "apply failed");
  (match Minisl.Pmap.pieces m with
  | [ piece ] ->
      (match Minisl.Pmap.distance piece with
      | Some d -> Alcotest.(check (array int)) "distance (0,1)" [| 0; 1 |] d
      | None -> Alcotest.fail "expected constant distance")
  | _ -> Alcotest.fail "expected one piece")

let test_hull () =
  let pts = [ [| 0; 0 |]; [| 3; 1 |]; [| 1; 4 |] ] in
  let box = Hull.box_of_points pts in
  List.iter
    (fun p -> Alcotest.(check bool) "point in box" true (P.mem box p))
    pts;
  Alcotest.(check bool) "box is tight" false (P.mem box [| 4; 0 |]);
  Alcotest.(check int) "box count" 20 (P.count box)

let test_bounds_high_dim () =
  (* 6-D boxes would blow up FM; the simplex answers above the limit *)
  let n = 6 in
  let cons = ref [] in
  for d = 0 to n - 1 do
    let up = Array.make n 0 and dn = Array.make n 0 in
    up.(d) <- 1;
    dn.(d) <- -1;
    cons := C.make Ge up 0 :: C.make Ge dn (d + 1) :: !cons
  done;
  let p = P.make n !cons in
  let lo, hi = P.dim_bounds p 5 in
  Alcotest.(check bool) "lo 0" true
    (match lo with Some l -> Rat.is_zero l | None -> false);
  Alcotest.(check bool) "hi 6" true
    (match hi with Some h -> Rat.equal h (Rat.of_int 6) | None -> false);
  Alcotest.(check bool) "non-empty" false (P.is_empty p)

(* [cons] over (x0, x1), padded to 5 dims with the boxes
   0 <= x_d <= 3 for d >= 2: above the FM limit, so the simplex answers *)
let padded5 cons =
  let n = 5 in
  let row v0 v1 = Array.init n (fun d -> if d = 0 then v0 else if d = 1 then v1 else 0) in
  let boxes =
    List.concat_map
      (fun d ->
        let up = Array.make n 0 and dn = Array.make n 0 in
        up.(d) <- 1;
        dn.(d) <- -1;
        [ C.make Ge up 0; C.make Ge dn 3 ])
      [ 2; 3; 4 ]
  in
  P.make n (List.map (fun (v0, v1, c) -> C.make Ge (row v0 v1) c) cons @ boxes)

let test_exact_high_dim () =
  (* 0 <= x0 <= 5, x1 <= x0, x1 >= x0 + 1: every dimension has a
     non-empty interval, yet the set is empty *)
  let p = padded5 [ (1, 0, 0); (-1, 0, 5); (1, -1, 0); (-1, 1, -1) ] in
  Alcotest.(check bool) "x1 <= x0 < x1 is empty" true (P.is_empty p);
  Alcotest.(check bool) "empty set: no bounds" true
    (P.dim_bounds p 0 = (None, None));
  (* triangle 0 <= x1 <= x0 <= 4: per-dimension intervals would put the
     minimum of x0 - x1 at 0 - 4 *)
  let t = padded5 [ (0, 1, 0); (1, -1, 0); (-1, 0, 4) ] in
  let diff = A.of_int_coeffs [| 1; -1; 0; 0; 0 |] 0 in
  (match P.bounds t diff with
  | Some lo, Some hi ->
      Alcotest.(check bool) "min x0 - x1 = 0" true (Rat.is_zero lo);
      Alcotest.(check bool) "max x0 - x1 = 4" true
        (Rat.equal hi (Rat.of_int 4))
  | _ -> Alcotest.fail "x0 - x1 is bounded on the triangle");
  Alcotest.(check bool) "entails x0 - x1 >= 0" true
    (P.entails t (C.make Ge [| 1; -1; 0; 0; 0 |] 0))

let test_constr_canonical () =
  let c = C.make Ge [| 4; -8 |] 12 in
  Alcotest.(check (array int)) "gcd divided" [| 1; -2 |] c.C.v;
  Alcotest.(check int) "const divided" 3 c.C.c;
  let e = C.make Eq [| -3; 6 |] 9 in
  Alcotest.(check (array int)) "eq leading positive" [| 1; -2 |] e.C.v;
  Alcotest.(check int) "eq const flipped" (-3) e.C.c;
  let n = C.negate_ge (C.make Ge [| 1 |] 0) in
  (* x >= 0 negated: -x - 1 >= 0 *)
  Alcotest.(check bool) "negation excludes 0" false (C.sat n [| 0 |]);
  Alcotest.(check bool) "negation includes -1" true (C.sat n [| -1 |])

let test_add_constraint_and_universe () =
  let p = P.universe 2 in
  Alcotest.(check bool) "universe" true (P.is_universe p);
  let q = P.add_constraint p (C.make Ge [| 1; 0 |] 0) in
  Alcotest.(check bool) "no longer universe" false (P.is_universe q);
  Alcotest.(check bool) "still unbounded" true
    (snd (P.dim_bounds q 0) = None)

let test_drop_dims () =
  let t = triangle 5 in
  let q = P.drop_dims t [ 1 ] in
  Alcotest.(check int) "1-D result" 1 (P.dim q);
  Alcotest.(check bool) "projection of i" true
    (P.mem q [| 5 |] && not (P.mem q [| 6 |]))

let test_translate_negative () =
  let t = P.translate (box2 2 2) [| -5; -5 |] in
  Alcotest.(check bool) "shifted down" true (P.mem t [| -4; -3 |]);
  Alcotest.(check bool) "origin out" false (P.mem t [| 1; 1 |])

let test_pset_intersect () =
  let u = S.union (S.singleton (box2 4 4)) (S.singleton (P.translate (box2 4 4) [| 10; 0 |])) in
  let w = S.intersect u (S.singleton (box2 12 2)) in
  Alcotest.(check bool) "left part" true (S.mem w [| 2; 1 |]);
  Alcotest.(check bool) "right clipped" true (S.mem w [| 11; 1 |]);
  Alcotest.(check bool) "gap removed" false (S.mem w [| 7; 1 |]);
  Alcotest.(check bool) "above clipped" false (S.mem w [| 2; 4 |])

let test_pmap_restrict () =
  let dom = box2 9 9 in
  let m =
    Minisl.Pmap.make ~in_dim:2 ~out_dim:1
      [ { Minisl.Pmap.dom; out = [| A.of_int_coeffs [| 1; 1 |] 0 |] } ]
  in
  let m' = Minisl.Pmap.restrict_domain m (triangle 9) in
  Alcotest.(check bool) "restricted applies inside" true
    (Minisl.Pmap.apply_int m' [| 4; 2 |] = Some [| 6 |]);
  Alcotest.(check bool) "outside the triangle gone" true
    (Minisl.Pmap.apply_int m' [| 2; 4 |] = None);
  Alcotest.(check bool) "empty restriction" true
    (Minisl.Pmap.is_empty
       (Minisl.Pmap.restrict_domain m (P.empty 2)))

(* properties *)

let arb_box =
  QCheck.map
    (fun (a, b) -> (abs a mod 8, abs b mod 8))
    (QCheck.pair QCheck.int QCheck.int)

let prop_elim_preserves_membership =
  QCheck.Test.make ~name:"FM elimination preserves membership" ~count:200
    (QCheck.pair arb_box (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun ((a, b), (x, y)) ->
      let p = P.intersect (box2 a b) (triangle (a + b)) in
      let pt = [| x mod (a + 1); y mod (b + 1) |] in
      QCheck.assume (P.mem p pt);
      (* any point of p remains a point of every projection of p *)
      P.mem (P.eliminate p [ 0 ]) pt && P.mem (P.eliminate p [ 1 ]) pt)

let prop_subset_refl_trans =
  QCheck.Test.make ~name:"subset reflexive + box monotone" ~count:100 arb_box
    (fun (a, b) ->
      let p = box2 a b in
      P.is_subset p p
      && P.is_subset p (box2 (a + 1) (b + 1))
      && ((a = 0 && b = 0) || not (P.is_subset (box2 (a + 2) (b + 2)) p)))

let prop_count_box =
  QCheck.Test.make ~name:"box point count" ~count:100 arb_box (fun (a, b) ->
      P.count (box2 a b) = (a + 1) * (b + 1))

let prop_hull_contains =
  QCheck.Test.make ~name:"box hull contains its points" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 8)
       (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun pts ->
      let pts = List.map (fun (x, y) -> [| x mod 20; y mod 20 |]) pts in
      let box = Hull.box_of_points pts in
      List.for_all (P.mem box) pts)

let () =
  Alcotest.run "poly"
    [ ( "unit",
        [ Alcotest.test_case "membership" `Quick test_mem;
          Alcotest.test_case "emptiness" `Quick test_emptiness;
          Alcotest.test_case "intersect" `Quick test_intersect;
          Alcotest.test_case "eliminate" `Quick test_eliminate;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "entails/subset" `Quick test_entails_subset;
          Alcotest.test_case "count" `Quick test_count_points;
          Alcotest.test_case "sample" `Quick test_sample;
          Alcotest.test_case "translate" `Quick test_translate;
          Alcotest.test_case "pset" `Quick test_pset;
          Alcotest.test_case "pmap" `Quick test_pmap;
          Alcotest.test_case "hull" `Quick test_hull;
          Alcotest.test_case "bounds above the FM limit (6-D)" `Quick
            test_bounds_high_dim;
          Alcotest.test_case "exact emptiness and bounds (5-D)" `Quick
            test_exact_high_dim;
          Alcotest.test_case "constraint canonical form" `Quick
            test_constr_canonical;
          Alcotest.test_case "add_constraint/universe" `Quick
            test_add_constraint_and_universe;
          Alcotest.test_case "drop_dims" `Quick test_drop_dims;
          Alcotest.test_case "translate negative" `Quick test_translate_negative;
          Alcotest.test_case "pset intersect" `Quick test_pset_intersect;
          Alcotest.test_case "pmap restrict" `Quick test_pmap_restrict ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_elim_preserves_membership; prop_subset_refl_trans;
            prop_count_box; prop_hull_contains ] ) ]
