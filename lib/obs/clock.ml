external stub_monotonic_ns : unit -> int = "polyprof_obs_monotonic_ns"
  [@@noalloc]

let stub_ok = stub_monotonic_ns () >= 0

(* Fallback when CLOCK_MONOTONIC is unavailable: gettimeofday clamped to
   never decrease. *)
let fallback_last = ref 0

let fallback_ns () =
  let ns = int_of_float (Unix.gettimeofday () *. 1e9) in
  if ns > !fallback_last then fallback_last := ns;
  !fallback_last

let now_ns () = if stub_ok then stub_monotonic_ns () else fallback_ns ()
let monotonic () = float_of_int (now_ns ()) *. 1e-9

let timed f =
  let t0 = monotonic () in
  let r = f () in
  (r, monotonic () -. t0)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2)
      else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let wall_iso8601 () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec
