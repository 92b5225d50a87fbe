(* Tests for the exact linear-algebra kernels. *)

module Rat = Pp_util.Rat
module M = Pp_util.Matrix
module A = Minisl.Affine

let r = Rat.of_int

let test_identity_mul () =
  let a = M.of_int_arrays [| [| 1; 2 |]; [| 3; 4 |] |] in
  Alcotest.(check bool) "I * a = a" true (M.equal (M.mul (M.identity 2) a) a);
  Alcotest.(check bool) "a * I = a" true (M.equal (M.mul a (M.identity 2)) a)

let test_transpose () =
  let a = M.of_int_arrays [| [| 1; 2; 3 |]; [| 4; 5; 6 |] |] in
  let t = M.transpose a in
  Alcotest.(check int) "rows" 3 (M.rows t);
  Alcotest.(check int) "cols" 2 (M.cols t);
  Alcotest.(check bool) "a(0,2) = t(2,0)" true
    (Rat.equal (M.get a 0 2) (M.get t 2 0))

let test_rank () =
  Alcotest.(check int) "full rank" 2
    (M.rank (M.of_int_arrays [| [| 1; 0 |]; [| 0; 1 |] |]));
  Alcotest.(check int) "rank deficient" 1
    (M.rank (M.of_int_arrays [| [| 1; 2 |]; [| 2; 4 |] |]));
  Alcotest.(check int) "zero matrix" 0 (M.rank (M.create ~rows:3 ~cols:3))

let test_solve_unique () =
  (* x + y = 3; x - y = 1  =>  x = 2, y = 1 *)
  let a = M.of_int_arrays [| [| 1; 1 |]; [| 1; -1 |] |] in
  match M.solve a [| r 3; r 1 |] with
  | None -> Alcotest.fail "expected a solution"
  | Some x ->
      Alcotest.(check bool) "x = 2" true (Rat.equal x.(0) (r 2));
      Alcotest.(check bool) "y = 1" true (Rat.equal x.(1) (r 1))

let test_solve_inconsistent () =
  let a = M.of_int_arrays [| [| 1; 1 |]; [| 1; 1 |] |] in
  Alcotest.(check bool) "inconsistent system" true
    (M.solve a [| r 1; r 2 |] = None)

let test_solve_underdetermined () =
  let a = M.of_int_arrays [| [| 1; 1 |] |] in
  match M.solve a [| r 5 |] with
  | None -> Alcotest.fail "underdetermined but consistent"
  | Some x ->
      Alcotest.(check bool) "solution satisfies" true
        (Rat.equal (Rat.add x.(0) x.(1)) (r 5))

let test_affine_fit_exact () =
  (* f(x, y) = 2x - 3y + 7 *)
  let pts = [| [| 0; 0 |]; [| 1; 0 |]; [| 0; 1 |]; [| 5; 3 |] |] in
  let vals = Array.map (fun p -> (2 * p.(0)) - (3 * p.(1)) + 7) pts in
  match M.affine_fit pts vals with
  | None -> Alcotest.fail "fit failed"
  | Some (coeffs, const) ->
      Alcotest.(check bool) "coeff x" true (Rat.equal coeffs.(0) (r 2));
      Alcotest.(check bool) "coeff y" true (Rat.equal coeffs.(1) (r (-3)));
      Alcotest.(check bool) "const" true (Rat.equal const (r 7))

let test_affine_fit_rejects_nonaffine () =
  let pts = [| [| 0 |]; [| 1 |]; [| 2 |]; [| 3 |] |] in
  let vals = Array.map (fun p -> p.(0) * p.(0)) pts in
  Alcotest.(check bool) "x^2 is not affine" true (M.affine_fit pts vals = None)

let test_affine_fit_rational () =
  (* f(x) = x/2 *)
  let pts = [| [| 0 |]; [| 2 |]; [| 4 |] |] in
  let vals = [| 0; 1; 2 |] in
  match M.affine_fit pts vals with
  | None -> Alcotest.fail "fit failed"
  | Some (coeffs, const) ->
      Alcotest.(check bool) "coeff 1/2" true (Rat.equal coeffs.(0) (Rat.make 1 2));
      Alcotest.(check bool) "const 0" true (Rat.is_zero const)

(* property: solve really solves *)
let prop_solve_correct =
  let gen =
    QCheck.make
      (QCheck.Gen.map
         (fun (rows, seed) ->
           let n = 2 + (rows mod 3) in
           Array.init n (fun i ->
               Array.init n (fun j -> ((seed * (i + 1) * (j + 2)) mod 7) - 3)))
         QCheck.Gen.(pair (int_bound 4) (int_bound 1000)))
  in
  QCheck.Test.make ~name:"solve satisfies the system" ~count:200 gen (fun m ->
      let a = M.of_int_arrays m in
      let n = Array.length m in
      let b = Array.init n (fun i -> r ((i * 3) - 1)) in
      match M.solve a b with
      | None -> true (* inconsistent is a legal answer *)
      | Some x ->
          let ok = ref true in
          for i = 0 to n - 1 do
            let acc = ref Rat.zero in
            for j = 0 to n - 1 do
              acc := Rat.add !acc (Rat.mul (M.get a i j) x.(j))
            done;
            if not (Rat.equal !acc b.(i)) then ok := false
          done;
          !ok)

(* The Rat reference for [affine_fit]: Gauss-Jordan on the Rat system
   [c . x_i + d = v_i], free unknowns 0, checked against every sample. *)
let affine_fit_rat points values =
  let n = Array.length points and dims = Array.length points.(0) in
  let a = M.create ~rows:n ~cols:(dims + 1) in
  Array.iteri
    (fun i p ->
      Array.iteri (fun k x -> M.set a i k (r x)) p;
      M.set a i dims Rat.one)
    points;
  let values = Array.map r values in
  match M.solve a values with
  | None -> None
  | Some x ->
      let interpolates i p =
        let acc = ref x.(dims) in
        Array.iteri (fun k c -> acc := Rat.add !acc (Rat.mul x.(k) (r c))) p;
        Rat.equal !acc values.(i)
      in
      let ok = ref true in
      Array.iteri (fun i p -> if not (interpolates i p) then ok := false) points;
      if !ok then Some (Array.sub x 0 dims, x.(dims)) else None

let same_fit a b =
  match (a, b) with
  | None, None -> true
  | Some (c, d), Some (c', d') ->
      Array.length c = Array.length c'
      && Array.for_all2 Rat.equal c c' && Rat.equal d d'
  | _ -> false

(* Random systems of the shape a fit round solves: 1-9 samples over
   0-6 coordinates.  Kinds: 0 affine data (consistent), 1 one perturbed
   value (often inconsistent), 2 repeated rows and 3 collinear samples
   (rank-deficient), 4 samples scaled by 2^40, 5 coordinates and 6
   values near +-2^61 or at max_int / min_int, where the fraction-free
   elimination overflows. *)
let gen_system =
  QCheck.Gen.(
    quad (int_range 1 9) (int_range 0 6) (int_range 0 6) (int_bound 1_000_000)
    >|= fun (n, dims, kind, seed) ->
    let st = Random.State.make [| seed |] in
    let small () = Random.State.int st 9 - 4 in
    let extreme () =
      match Random.State.int st 4 with
      | 0 -> max_int - Random.State.int st 3
      | 1 -> min_int + Random.State.int st 3
      | 2 -> (1 lsl 61) - Random.State.int st 1000
      | _ -> Random.State.int st 1000 - (1 lsl 61)
    in
    let coord () =
      match kind with
      | 4 -> (1 lsl 40) * small ()
      | 5 -> if Random.State.bool st then extreme () else small ()
      | _ -> small ()
    in
    let base = Array.init n (fun _ -> Array.init dims (fun _ -> coord ())) in
    let points =
      if kind = 2 then Array.init n (fun i -> base.(i / 2))
      else if kind = 3 then
        Array.init n (fun i -> Array.map (fun x -> (i + 1) * x) base.(0))
      else base
    in
    let c = Array.init dims (fun _ -> small ()) and d = small () in
    let values =
      Array.map
        (fun p ->
          let v = ref d in
          Array.iteri (fun k x -> v := !v + (c.(k) * x)) p;
          !v)
        points
    in
    if kind = 1 then values.(n - 1) <- values.(n - 1) + 1 + Random.State.int st 3;
    if kind = 6 then Array.iteri (fun i _ -> if Random.State.bool st then values.(i) <- extreme ()) values;
    (kind, points, values))

let print_system (kind, points, values) =
  Printf.sprintf "kind %d: %s" kind
    (String.concat "; "
       (Array.to_list
          (Array.mapi
             (fun i p ->
               Printf.sprintf "[%s] -> %d"
                 (String.concat " " (Array.to_list (Array.map string_of_int p)))
                 values.(i))
             points)))

(* One workspace for every case, so its growth between dimensions is
   exercised too. *)
let ws = Fold.Ws.create ()

(* The folding kernel's sample solve returns exactly the Rat reference,
   or raises [Rat.Overflow] (a fit round then runs [M.affine_fit]); on
   small values (kinds 0-3) it never raises. *)
let prop_sample_solve_is_rat =
  QCheck.Test.make ~name:"integer affine_fit = Rat solve" ~count:2000
    (QCheck.make ~print:print_system gen_system) (fun (kind, points, values) ->
      match Fold.solve_samples ws points values with
      | exception Rat.Overflow -> kind > 3
      | got -> (
          match affine_fit_rat points values with
          | exception Rat.Overflow -> true
          | expected -> same_fit got expected))

(* Coordinates, values and constants near +-2^61, where the common-
   denominator form overflows native ints, next to small ones; the
   coordinates are multiples of 60 so the Rat evaluation often still
   fits and the fallback is compared for real. *)
let gen_affine_point =
  QCheck.Gen.(
    int_range 1 3 >>= fun dim ->
    let big = oneof [ int_range (-50) 50; map (fun k -> (1 lsl 61) - k) (int_bound 1000);
                      map (fun k -> k - (1 lsl 61)) (int_bound 1000) ] in
    let rat = map2 Rat.make (int_range (-3) 3) (oneofl [ 1; 2; 3; 5; 6 ]) in
    quad
      (array_repeat dim rat)
      (map2 (fun c b -> Rat.add c (Rat.of_int (if abs b > 50 then b / 4 else b))) rat big)
      (array_repeat dim (map (fun x -> 60 * (x / 60)) big))
      big)

let prop_affine_int_eval =
  QCheck.Test.make ~name:"compare_int / floor_int / ceil_int = Rat eval"
    ~count:2000 (QCheck.make gen_affine_point) (fun (coeffs, const, x, v) ->
      let f = A.make coeffs const in
      match A.eval f x with
      | exception Rat.Overflow -> true
      | e -> (
          A.floor_int f x = Rat.floor e
          && A.ceil_int f x = Rat.ceil e
          &&
          match Rat.compare e (r v) with
          | exception Rat.Overflow -> true
          | c -> Int.compare c 0 = Int.compare (A.compare_int f x v) 0))

let test_affine_int_fallback () =
  let big = 1 lsl 61 in
  (* the common-denominator form needs 2 * 2^61 or 15 * (3 * 2^59):
     both overflow native ints, so these go through the Rat fallback *)
  let half = A.make [| Rat.make 1 2 |] Rat.zero in
  Alcotest.(check int) "x/2 vs 2^61" (-1) (A.compare_int half [| big |] big);
  Alcotest.(check int) "x/2 vs 2^60" 0 (A.compare_int half [| big |] (big / 2));
  let thirds = A.make [| Rat.make 1 3; Rat.make 1 5 |] Rat.zero in
  let x = [| 3 * (big / 4); 5 |] in
  Alcotest.(check int) "floor" ((big / 4) + 1) (A.floor_int thirds x);
  Alcotest.(check int) "ceil" ((big / 4) + 1) (A.ceil_int thirds x);
  Alcotest.(check int) "compare" 0 (A.compare_int thirds x ((big / 4) + 1));
  (* an overflow the Rat evaluation shares still raises *)
  let sum = A.of_int_coeffs [| 1; 1 |] 0 in
  Alcotest.check_raises "x + y past max_int" Rat.Overflow (fun () ->
      ignore (A.compare_int sum [| big; big |] 0))

let () =
  Alcotest.run "matrix"
    [ ( "unit",
        [ Alcotest.test_case "identity" `Quick test_identity_mul;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "rank" `Quick test_rank;
          Alcotest.test_case "solve unique" `Quick test_solve_unique;
          Alcotest.test_case "solve inconsistent" `Quick test_solve_inconsistent;
          Alcotest.test_case "solve underdetermined" `Quick
            test_solve_underdetermined;
          Alcotest.test_case "affine fit exact" `Quick test_affine_fit_exact;
          Alcotest.test_case "affine fit rejects x^2" `Quick
            test_affine_fit_rejects_nonaffine;
          Alcotest.test_case "affine fit rational" `Quick test_affine_fit_rational
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_solve_correct ]);
      ( "int fast paths",
        Alcotest.test_case "affine eval overflow falls back to Rat" `Quick
          test_affine_int_fallback
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_sample_solve_is_rat; prop_affine_int_eval ] ) ]
