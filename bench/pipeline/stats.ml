(* Sample statistics shared by the timed run, the traced run and the
   compare mode.  Percentiles use the nearest-rank rule: the p-th
   percentile of n sorted samples is the ceil(p*n)-th smallest, which
   leaves n - ceil(p*n) samples strictly beyond it. *)

let sorted xs = List.sort compare xs

let rank ~n p = max 1 (int_of_float (Float.ceil (p *. float_of_int n -. 1e-9)))

let beyond ~n p = n - rank ~n p

let percentile p xs =
  match sorted xs with
  | [] -> 0.0
  | s -> List.nth s (rank ~n:(List.length s) p - 1)

let median = Obs.Clock.median

type summary = { value : float; q1 : float option; q3 : float option; n : int }

(* Median of a per-pass series with its nearest-rank quartiles; the
   quartiles are omitted below four samples, where they say nothing. *)
let summarize xs =
  let n = List.length xs in
  let q p = if n >= 4 then Some (percentile p xs) else None in
  { value = median xs; q1 = q 0.25; q3 = q 0.75; n }

let single ?(n = 1) value = { value; q1 = None; q3 = None; n }

(* Relative quartile spread, when the quartiles exist. *)
let spread s =
  match (s.q1, s.q3) with
  | Some a, Some b when s.value <> 0.0 -> Some ((b -. a) /. Float.abs s.value)
  | _ -> None
