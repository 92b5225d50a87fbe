type t = { num : int; den : int }

exception Overflow
exception Division_by_zero

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let int_mul_slow a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    (* min_int / -1 wraps back to min_int, so that product needs its own test *)
    if p / b <> a || (a = min_int && b = -1) then
      raise_notrace Overflow
    else p

(* |a|, |b| < 2^30 cannot overflow a 63-bit product: the common case
   skips the division. *)
let[@inline] int_mul a b =
  if a < 0x4000_0000 && a > -0x4000_0000 && b < 0x4000_0000 && b > -0x4000_0000
  then a * b
  else int_mul_slow a b

let[@inline] int_add a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then raise_notrace Overflow else s

let[@inline] int_sub a b =
  let s = a - b in
  if (a lxor b) land (a lxor s) < 0 then raise_notrace Overflow else s

let[@inline] int_neg a = if a = min_int then raise_notrace Overflow else -a

let lcm a b = if a = 0 || b = 0 then 0 else abs (int_mul (a / gcd a b) b)

(* Divide by the gcd before fixing the sign: the negation can then
   overflow only when the canonical result does not fit (a numerator or
   denominator of 2^62).  [gcd] is [min_int] only for [num] in
   [{0, min_int}] and [den = min_int], and the divisions still give the
   canonical [0/1] or [1/1] there. *)
let make num den =
  if den = 0 then raise Division_by_zero;
  let g = gcd num den in
  let num = num / g and den = den / g in
  if den > 0 then { num; den } else { num = int_neg num; den = int_neg den }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)
let num t = t.num
let den t = t.den

let add a b =
  let g = gcd a.den b.den in
  let da = a.den / g and db = b.den / g in
  (* a.num/ (g*da) + b.num/(g*db) = (a.num*db + b.num*da) / (g*da*db) *)
  let n = int_add (int_mul a.num db) (int_mul b.num da) in
  make n (int_mul (int_mul g da) db)

let neg a = { a with num = int_neg a.num }
let sub a b = add a (neg b)
let mul a b = make (int_mul a.num b.num) (int_mul a.den b.den)

let inv a =
  if a.num = 0 then raise Division_by_zero;
  make a.den a.num

let div a b = mul a (inv b)
let abs a = if a.num < 0 then neg a else a

let compare a b =
  (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den *)
  Stdlib.compare (int_mul a.num b.den) (int_mul b.num a.den)

let equal a b = a.num = b.num && a.den = b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let sign a = Stdlib.compare a.num 0
let is_zero a = a.num = 0
let is_integer a = a.den = 1

(* Truncating division corrected by the remainder's sign: no
   intermediate leaves the range of [num], so a numerator near
   [max_int] or [min_int] cannot wrap. *)
let floor a =
  let q = a.num / a.den in
  if a.num mod a.den < 0 then q - 1 else q

let ceil a =
  let q = a.num / a.den in
  if a.num mod a.den > 0 then q + 1 else q

let to_int_exn a =
  if a.den <> 1 then invalid_arg "Rat.to_int_exn: not an integer";
  a.num

let pp fmt a =
  if a.den = 1 then Format.fprintf fmt "%d" a.num
  else Format.fprintf fmt "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a
