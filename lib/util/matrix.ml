type t = { m : Rat.t array array; rows : int; cols : int }

let create ~rows ~cols =
  { m = Array.make_matrix rows cols Rat.zero; rows; cols }

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then { m = [||]; rows = 0; cols = 0 }
  else begin
    let cols = Array.length a.(0) in
    Array.iter (fun r -> assert (Array.length r = cols)) a;
    { m = Array.map Array.copy a; rows; cols }
  end

let of_int_arrays a = of_arrays (Array.map (Array.map Rat.of_int) a)
let rows t = t.rows
let cols t = t.cols
let get t i j = t.m.(i).(j)
let set t i j v = t.m.(i).(j) <- v
let copy t = { t with m = Array.map Array.copy t.m }

let identity n =
  let t = create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    set t i i Rat.one
  done;
  t

let transpose t =
  let r = create ~rows:t.cols ~cols:t.rows in
  for i = 0 to t.rows - 1 do
    for j = 0 to t.cols - 1 do
      set r j i (get t i j)
    done
  done;
  r

let mul a b =
  assert (a.cols = b.rows);
  let r = create ~rows:a.rows ~cols:b.cols in
  for i = 0 to a.rows - 1 do
    for j = 0 to b.cols - 1 do
      let acc = ref Rat.zero in
      for k = 0 to a.cols - 1 do
        acc := Rat.add !acc (Rat.mul (get a i k) (get b k j))
      done;
      set r i j !acc
    done
  done;
  r

let equal a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ok = ref true in
  for i = 0 to a.rows - 1 do
    for j = 0 to a.cols - 1 do
      if not (Rat.equal (get a i j) (get b i j)) then ok := false
    done
  done;
  !ok

let pp fmt t =
  for i = 0 to t.rows - 1 do
    Format.fprintf fmt "[";
    for j = 0 to t.cols - 1 do
      if j > 0 then Format.fprintf fmt " ";
      Rat.pp fmt (get t i j)
    done;
    Format.fprintf fmt "]@\n"
  done

(* Gauss-Jordan elimination with partial pivoting by first non-zero. *)
let rref t =
  let t = copy t in
  let pivots = ref [] in
  let row = ref 0 in
  for col = 0 to t.cols - 1 do
    if !row < t.rows then begin
      (* find a pivot row *)
      let p = ref (-1) in
      for i = !row to t.rows - 1 do
        if !p = -1 && not (Rat.is_zero (get t i col)) then p := i
      done;
      if !p >= 0 then begin
        let tmp = t.m.(!row) in
        t.m.(!row) <- t.m.(!p);
        t.m.(!p) <- tmp;
        let inv = Rat.inv (get t !row col) in
        for j = 0 to t.cols - 1 do
          set t !row j (Rat.mul (get t !row j) inv)
        done;
        for i = 0 to t.rows - 1 do
          if i <> !row && not (Rat.is_zero (get t i col)) then begin
            let f = get t i col in
            for j = 0 to t.cols - 1 do
              set t i j (Rat.sub (get t i j) (Rat.mul f (get t !row j)))
            done
          end
        done;
        pivots := col :: !pivots;
        incr row
      end
    end
  done;
  (t, List.rev !pivots)

let rank t =
  let _, pivots = rref t in
  List.length pivots

let solve a b =
  assert (a.rows = Array.length b);
  (* augmented matrix [a | b] *)
  let aug = create ~rows:a.rows ~cols:(a.cols + 1) in
  for i = 0 to a.rows - 1 do
    for j = 0 to a.cols - 1 do
      set aug i j (get a i j)
    done;
    set aug i a.cols b.(i)
  done;
  let r, pivots = rref aug in
  if List.mem a.cols pivots then None (* inconsistent: pivot in b column *)
  else begin
    let x = Array.make a.cols Rat.zero in
    List.iteri
      (fun i col -> if col < a.cols then x.(col) <- get r i a.cols)
      pivots;
    Some x
  end

(* The Rat system [c . x_i + d = v_i], solved by [solve] and checked
   against every sample. *)
let affine_fit points values =
  assert (Array.length points > 0 && Array.length points = Array.length values);
  let n = Array.length points in
  let dims = Array.length points.(0) in
  (* unknowns: c_0 .. c_{dims-1}, d *)
  let a = create ~rows:n ~cols:(dims + 1) in
  for i = 0 to n - 1 do
    for k = 0 to dims - 1 do
      set a i k (Rat.of_int points.(i).(k))
    done;
    set a i dims Rat.one
  done;
  let values = Array.map Rat.of_int values in
  match solve a values with
  | None -> None
  | Some x ->
      (* [solve] returns a least-constrained solution; verify it actually
         interpolates (it always does when consistent, but keep the
         check as a guard against under-determined corner cases). *)
      let ok = ref true in
      for i = 0 to n - 1 do
        let acc = ref x.(dims) in
        for k = 0 to dims - 1 do
          acc := Rat.add !acc (Rat.mul x.(k) (Rat.of_int points.(i).(k)))
        done;
        if not (Rat.equal !acc values.(i)) then ok := false
      done;
      if !ok then Some (Array.sub x 0 dims, x.(dims)) else None
