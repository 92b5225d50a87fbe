(* Unit and property tests for exact rationals. *)

module Rat = Pp_util.Rat

let rat = Alcotest.testable (fun fmt r -> Rat.pp fmt r) Rat.equal

let test_make_normalises () =
  Alcotest.check rat "6/4 = 3/2" (Rat.make 3 2) (Rat.make 6 4);
  Alcotest.check rat "-6/-4 = 3/2" (Rat.make 3 2) (Rat.make (-6) (-4));
  Alcotest.check rat "6/-4 = -3/2" (Rat.make (-3) 2) (Rat.make 6 (-4));
  Alcotest.check rat "0/7 = 0" Rat.zero (Rat.make 0 7);
  Alcotest.check Alcotest.int "den of 0 is 1" 1 (Rat.den (Rat.make 0 5))

let test_zero_den () =
  Alcotest.check_raises "0 denominator" Rat.Division_by_zero (fun () ->
      ignore (Rat.make 1 0))

let test_arith () =
  Alcotest.check rat "1/2 + 1/3" (Rat.make 5 6)
    (Rat.add (Rat.make 1 2) (Rat.make 1 3));
  Alcotest.check rat "1/2 - 1/3" (Rat.make 1 6)
    (Rat.sub (Rat.make 1 2) (Rat.make 1 3));
  Alcotest.check rat "2/3 * 3/4" (Rat.make 1 2)
    (Rat.mul (Rat.make 2 3) (Rat.make 3 4));
  Alcotest.check rat "(2/3) / (4/3)" (Rat.make 1 2)
    (Rat.div (Rat.make 2 3) (Rat.make 4 3))

let test_floor_ceil () =
  Alcotest.(check int) "floor 7/2" 3 (Rat.floor (Rat.make 7 2));
  Alcotest.(check int) "ceil 7/2" 4 (Rat.ceil (Rat.make 7 2));
  Alcotest.(check int) "floor -7/2" (-4) (Rat.floor (Rat.make (-7) 2));
  Alcotest.(check int) "ceil -7/2" (-3) (Rat.ceil (Rat.make (-7) 2));
  Alcotest.(check int) "floor 4" 4 (Rat.floor (Rat.of_int 4));
  Alcotest.(check int) "ceil -4" (-4) (Rat.ceil (Rat.of_int (-4)));
  (* numerators at the ends of the int range must not wrap *)
  Alcotest.(check int) "floor max_int/5" (max_int / 5) (Rat.floor (Rat.make max_int 5));
  Alcotest.(check int) "ceil max_int/5" ((max_int / 5) + 1) (Rat.ceil (Rat.make max_int 5));
  Alcotest.(check int) "floor -max_int/5" (-(max_int / 5) - 1)
    (Rat.floor (Rat.make (-max_int) 5));
  Alcotest.(check int) "ceil -max_int/5" (-(max_int / 5)) (Rat.ceil (Rat.make (-max_int) 5))

let test_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true
    (Rat.compare (Rat.make 1 3) (Rat.make 1 2) < 0);
  Alcotest.(check bool) "-1/3 > -1/2" true
    (Rat.compare (Rat.make (-1) 3) (Rat.make (-1) 2) > 0);
  Alcotest.(check int) "sign -5/3" (-1) (Rat.sign (Rat.make (-5) 3));
  Alcotest.(check int) "sign 0" 0 (Rat.sign Rat.zero)

let test_gcd_lcm () =
  Alcotest.(check int) "gcd 12 18" 6 (Rat.gcd 12 18);
  Alcotest.(check int) "gcd 0 5" 5 (Rat.gcd 0 5);
  Alcotest.(check int) "gcd -12 18" 6 (Rat.gcd (-12) 18);
  Alcotest.(check int) "lcm 4 6" 12 (Rat.lcm 4 6);
  Alcotest.(check int) "lcm 0 6" 0 (Rat.lcm 0 6)

(* At [min_int] the canonical result may not fit: -min_int is 2^62.
   These used to wrap back to [min_int]. *)
let test_min_int () =
  Alcotest.check_raises "neg min_int" Rat.Overflow (fun () -> ignore (Rat.neg (Rat.of_int min_int)));
  Alcotest.check_raises "abs min_int" Rat.Overflow (fun () -> ignore (Rat.abs (Rat.of_int min_int)));
  Alcotest.check rat "abs (min_int + 1)" (Rat.of_int max_int) (Rat.abs (Rat.of_int (min_int + 1)));
  Alcotest.check rat "0/min_int = 0" Rat.zero (Rat.make 0 min_int);
  Alcotest.check rat "min_int/-2 = 2^61" (Rat.of_int (1 lsl 61)) (Rat.make min_int (-2));
  Alcotest.check rat "min_int/min_int = 1" Rat.one (Rat.make min_int min_int);
  Alcotest.check rat "min_int/2 = -2^61" (Rat.of_int (-(1 lsl 61))) (Rat.make min_int 2);
  Alcotest.check_raises "min_int/-1" Rat.Overflow (fun () -> ignore (Rat.make min_int (-1)));
  Alcotest.check_raises "1/min_int" Rat.Overflow (fun () -> ignore (Rat.make 1 min_int));
  Alcotest.check_raises "int_neg min_int" Rat.Overflow (fun () -> ignore (Rat.int_neg min_int));
  Alcotest.(check int) "int_neg max_int" (min_int + 1) (Rat.int_neg max_int)

(* property tests *)

let small = QCheck.int_range (-1000) 1000
let small_nz = QCheck.map (fun n -> if n >= 0 then n + 1 else n) small
let arb_rat = QCheck.map (fun (n, d) -> Rat.make n d) (QCheck.pair small small_nz)

let prop_add_comm =
  QCheck.Test.make ~name:"add commutative" ~count:500
    (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
      Rat.equal (Rat.add a b) (Rat.add b a))

let prop_add_assoc =
  QCheck.Test.make ~name:"add associative" ~count:500
    (QCheck.triple arb_rat arb_rat arb_rat) (fun (a, b, c) ->
      Rat.equal (Rat.add a (Rat.add b c)) (Rat.add (Rat.add a b) c))

let prop_mul_distributes =
  QCheck.Test.make ~name:"mul distributes over add" ~count:500
    (QCheck.triple arb_rat arb_rat arb_rat) (fun (a, b, c) ->
      Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)))

let prop_sub_inverse =
  QCheck.Test.make ~name:"a - a = 0" ~count:500 arb_rat (fun a ->
      Rat.is_zero (Rat.sub a a))

let prop_inv =
  QCheck.Test.make ~name:"a * 1/a = 1" ~count:500 arb_rat (fun a ->
      QCheck.assume (not (Rat.is_zero a));
      Rat.equal Rat.one (Rat.mul a (Rat.inv a)))

let prop_floor_ceil_bounds =
  QCheck.Test.make ~name:"floor <= x <= ceil, within 1" ~count:500 arb_rat
    (fun a ->
      let f = Rat.of_int (Rat.floor a) and c = Rat.of_int (Rat.ceil a) in
      Rat.compare f a <= 0
      && Rat.compare a c <= 0
      && Rat.ceil a - Rat.floor a <= 1)

let prop_canonical =
  QCheck.Test.make ~name:"canonical form: den > 0, coprime" ~count:500
    (QCheck.pair small small_nz) (fun (n, d) ->
      let r = Rat.make n d in
      Rat.den r > 0 && Rat.gcd (Rat.num r) (Rat.den r) <= 1 || Rat.is_zero r)

let () =
  Alcotest.run "rat"
    [ ( "unit",
        [ Alcotest.test_case "normalisation" `Quick test_make_normalises;
          Alcotest.test_case "zero denominator" `Quick test_zero_den;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "floor/ceil" `Quick test_floor_ceil;
          Alcotest.test_case "compare/sign" `Quick test_compare;
          Alcotest.test_case "gcd/lcm" `Quick test_gcd_lcm;
          Alcotest.test_case "min_int" `Quick test_min_int ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_add_comm; prop_add_assoc; prop_mul_distributes;
            prop_sub_inverse; prop_inv; prop_floor_ceil_bounds; prop_canonical ]
      ) ]
