(* Tests for the exact rational simplex behind [Polyhedron.maximize],
   [minimize] and [feasible], including cross-validation against the
   Fourier-Motzkin bounds [Polyhedron.bounds] computes on random
   low-dimensional polyhedra. *)

module Rat = Pp_util.Rat
module A = Minisl.Affine
module C = Minisl.Constr
module P = Minisl.Polyhedron

let box2 a b =
  P.make 2
    [ C.make Ge [| 1; 0 |] 0; C.make Ge [| -1; 0 |] a;
      C.make Ge [| 0; 1 |] 0; C.make Ge [| 0; -1 |] b ]

let triangle n =
  P.make 2
    [ C.make Ge [| 1; 0 |] 0; C.make Ge [| -1; 0 |] n;
      C.make Ge [| 0; 1 |] 0; C.make Ge [| 1; -1 |] 0 ]

let check_opt name expected = function
  | P.Opt v -> Alcotest.(check bool) name true (Rat.equal v (Rat.of_int expected))
  | P.Unbounded -> Alcotest.fail (name ^ ": unbounded")
  | P.Infeasible -> Alcotest.fail (name ^ ": infeasible")

let test_box () =
  let p = box2 5 7 in
  check_opt "max x" 5 (P.maximize p (A.of_int_coeffs [| 1; 0 |] 0));
  check_opt "max x+y" 12 (P.maximize p (A.of_int_coeffs [| 1; 1 |] 0));
  check_opt "min x-y" (-7) (P.minimize p (A.of_int_coeffs [| 1; -1 |] 0));
  check_opt "constant offset" 15 (P.maximize p (A.of_int_coeffs [| 1; 1 |] 3))

let test_triangle () =
  let p = triangle 6 in
  check_opt "max j" 6 (P.maximize p (A.of_int_coeffs [| 0; 1 |] 0));
  check_opt "max 2j - i" 6 (P.maximize p (A.of_int_coeffs [| -1; 2 |] 0));
  check_opt "min i - j" 0 (P.minimize p (A.of_int_coeffs [| 1; -1 |] 0))

let test_negative_orthant () =
  (* a polyhedron entirely in negative coordinates: phase 1 required *)
  let p =
    P.make 1 [ C.make Ge [| -1 |] (-3); C.make Ge [| 1 |] 10 ]
    (* -x - 3 >= 0 (x <= -3) and x + 10 >= 0 (x >= -10) *)
  in
  check_opt "max x" (-3) (P.maximize p (A.of_int_coeffs [| 1 |] 0));
  check_opt "min x" (-10) (P.minimize p (A.of_int_coeffs [| 1 |] 0))

let test_unbounded () =
  let half = P.make 1 [ C.make Ge [| 1 |] 0 ] in
  Alcotest.(check bool) "max x unbounded" true
    (P.maximize half (A.of_int_coeffs [| 1 |] 0) = P.Unbounded);
  check_opt "min x" 0 (P.minimize half (A.of_int_coeffs [| 1 |] 0))

let test_infeasible () =
  let p = P.make 1 [ C.make Ge [| 1 |] (-5); C.make Ge [| -1 |] 2 ] in
  (* x >= 5 and x <= 2 *)
  Alcotest.(check bool) "infeasible" true
    (P.maximize p (A.of_int_coeffs [| 1 |] 0) = P.Infeasible)

let test_equalities () =
  (* x + y = 10, 0 <= x <= 4 *)
  let p =
    P.make 2
      [ C.make Eq [| 1; 1 |] (-10); C.make Ge [| 1; 0 |] 0;
        C.make Ge [| -1; 0 |] 4 ]
  in
  check_opt "max y" 10 (P.maximize p (A.of_int_coeffs [| 0; 1 |] 0));
  check_opt "min y" 6 (P.minimize p (A.of_int_coeffs [| 0; 1 |] 0))

let test_rational_vertex () =
  (* 2x + 3y <= 12, 3x + 2y <= 12, x,y >= 0: max x+y at (12/5, 12/5) *)
  let p =
    P.make 2
      [ C.make Ge [| -2; -3 |] 12; C.make Ge [| -3; -2 |] 12;
        C.make Ge [| 1; 0 |] 0; C.make Ge [| 0; 1 |] 0 ]
  in
  match P.maximize p (A.of_int_coeffs [| 1; 1 |] 0) with
  | P.Opt v ->
      Alcotest.(check bool) "24/5" true (Rat.equal v (Rat.make 24 5))
  | _ -> Alcotest.fail "expected optimum"

let test_high_dim_box () =
  (* 8-dimensional box: far beyond the FM limit *)
  let n = 8 in
  let cons = ref [] in
  for d = 0 to n - 1 do
    let up = Array.make n 0 and dn = Array.make n 0 in
    up.(d) <- 1;
    dn.(d) <- -1;
    cons := C.make Ge up 0 :: C.make Ge dn (d + 1) :: !cons
  done;
  let p = P.make n !cons in
  let all_ones = A.of_int_coeffs (Array.make n 1) 0 in
  check_opt "sum of maxes" 36 (P.maximize p all_ones);
  check_opt "min is 0" 0 (P.minimize p all_ones)

(* cross-validate against FM-based bounds on random 2-3 dim polyhedra,
   where [P.bounds] eliminates rather than running the simplex *)
let lp_bounds p obj =
  let side = function P.Opt v -> Some v | P.Unbounded | P.Infeasible -> None in
  (side (P.minimize p obj), side (P.maximize p obj))

let prop_lp_equals_fm =
  let gen =
    QCheck.Gen.(
      let* dim = int_range 2 3 in
      let* ncons = int_range 2 5 in
      let* rows =
        list_size (return ncons)
          (pair (list_size (return dim) (int_range (-3) 3)) (int_range 0 9))
      in
      let* objc = list_size (return dim) (int_range (-3) 3) in
      return (dim, rows, objc))
  in
  QCheck.Test.make ~name:"LP matches Fourier-Motzkin" ~count:300
    (QCheck.make gen) (fun (dim, rows, objc) ->
      (* anchor with a box so most instances are feasible + bounded *)
      let base = ref [] in
      for d = 0 to dim - 1 do
        let up = Array.make dim 0 and dn = Array.make dim 0 in
        up.(d) <- 1;
        dn.(d) <- -1;
        base := C.make Ge up 0 :: C.make Ge dn 7 :: !base
      done;
      let cons =
        List.map (fun (v, c) -> C.make Ge (Array.of_list v) c) rows @ !base
      in
      let p = P.make dim cons in
      let obj = A.of_int_coeffs (Array.of_list objc) 0 in
      if P.is_empty p then
        P.maximize p obj = P.Infeasible
      else begin
        let fm_lo, fm_hi = P.bounds p obj in
        let lp_lo, lp_hi = lp_bounds p obj in
        let agree a b =
          match (a, b) with
          | Some x, Some y -> Rat.equal x y
          | None, None -> true
          | _ -> false
        in
        agree fm_lo lp_lo && agree fm_hi lp_hi
      end)

let () =
  Alcotest.run "lp"
    [ ( "simplex",
        [ Alcotest.test_case "box" `Quick test_box;
          Alcotest.test_case "triangle" `Quick test_triangle;
          Alcotest.test_case "negative orthant (phase 1)" `Quick
            test_negative_orthant;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "equalities" `Quick test_equalities;
          Alcotest.test_case "rational vertex" `Quick test_rational_vertex;
          Alcotest.test_case "8-D box" `Quick test_high_dim_box ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_lp_equals_fm ]) ]
