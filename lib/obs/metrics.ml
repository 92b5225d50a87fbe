type kind = Counter | Gauge | Histogram

type hist = {
  mutable hn : int;
  mutable hsum : int;
  mutable hmin : int;
  mutable hmax : int;
  hbuckets : int array;
}

type desc = {
  d_name : string;
  d_kind : kind;
  d_help : string;
  mutable d_updated : bool;
  mutable d_value : int;
  d_hist : hist;
}

type counter = desc
type gauge = desc
type histogram = desc

(* ------------------------------------------------------------------ *)
(* Histogram buckets: power-of-two.  Bucket 0 holds zeros; bucket k
   (k >= 1) holds values with exactly k significant bits, i.e. the
   range [2^(k-1), 2^k - 1].                                           *)
(* ------------------------------------------------------------------ *)

let n_buckets = 63
let bucket_le k = if k >= 62 then max_int else (1 lsl k) - 1

let bucket_of v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and x = ref v in
    while !x > 0 do
      incr i;
      x := !x lsr 1
    done;
    min (n_buckets - 1) !i
  end

type hist_summary = {
  h_count : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_buckets : int array;
}

type value = Vint of int | Vhist of hist_summary
type snapshot = (desc * value) list

(* Quantile estimate from the cumulative power-of-two buckets: find the
   bucket holding the target rank, interpolate linearly inside its value
   range, clamp to the exact observed [min, max].  The bucket bounds
   limit the error to one power of two — property-tested against known
   synthetic distributions.                                            *)
let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank =
      Float.max 1.0
        (Float.min (float_of_int h.h_count)
           (Float.ceil (q *. float_of_int h.h_count)))
    in
    let rec find k cum =
      if k >= n_buckets then float_of_int h.h_max
      else begin
        let here = h.h_buckets.(k) in
        let cum' = cum + here in
        if here > 0 && float_of_int cum' >= rank then begin
          let lo = if k = 0 then 0.0 else float_of_int (bucket_le (k - 1) + 1) in
          let hi = if k = 0 then 0.0 else float_of_int (bucket_le k) in
          let frac = (rank -. float_of_int cum) /. float_of_int here in
          lo +. (frac *. (hi -. lo))
        end
        else find (k + 1) cum'
      end
    in
    let est = find 0 0 in
    Float.min (float_of_int h.h_max) (Float.max (float_of_int h.h_min) est)
  end

let default_quantiles = [ 0.5; 0.9; 0.99 ]
let quantiles h = List.map (fun q -> (q, quantile h q)) default_quantiles

(* ------------------------------------------------------------------ *)
(* Descriptor registry: registration happens at module init or first
   use, never on hot paths                                             *)
(* ------------------------------------------------------------------ *)

let by_name : (string, desc) Hashtbl.t = Hashtbl.create 64

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let clear_hist h =
  h.hn <- 0;
  h.hsum <- 0;
  h.hmin <- max_int;
  h.hmax <- min_int;
  Array.fill h.hbuckets 0 (Array.length h.hbuckets) 0

let register ?(help = "") name kind =
  match Hashtbl.find_opt by_name name with
  | Some d ->
      if d.d_kind <> kind then
        invalid_arg
          (Printf.sprintf "Obs.Metrics: %s already registered as a %s (wanted %s)"
             name (kind_name d.d_kind) (kind_name kind));
      d
  | None ->
      let nb = if kind = Histogram then n_buckets else 0 in
      let d =
        { d_name = name; d_kind = kind; d_help = help; d_updated = false;
          d_value = 0;
          d_hist =
            { hn = 0; hsum = 0; hmin = max_int; hmax = min_int;
              hbuckets = Array.make nb 0 } }
      in
      Hashtbl.add by_name name d;
      d

let counter ?help name = register ?help name Counter
let gauge ?help name = register ?help name Gauge
let histogram ?help name = register ?help name Histogram

(* ------------------------------------------------------------------ *)
(* Updates and snapshots: each descriptor holds its own value          *)
(* ------------------------------------------------------------------ *)

let add c n =
  if Registry.enabled () then begin
    c.d_updated <- true;
    c.d_value <- c.d_value + n
  end

let set_max g v =
  if Registry.enabled () then begin
    g.d_updated <- true;
    if v > g.d_value then g.d_value <- v
  end

let observe h v =
  if Registry.enabled () then begin
    let v = max 0 v and s = h.d_hist in
    h.d_updated <- true;
    s.hn <- s.hn + 1;
    s.hsum <- s.hsum + v;
    if v < s.hmin then s.hmin <- v;
    if v > s.hmax then s.hmax <- v;
    let b = bucket_of v in
    s.hbuckets.(b) <- s.hbuckets.(b) + 1
  end

let value d =
  match d.d_kind with
  | Counter | Gauge -> Vint d.d_value
  | Histogram ->
      let s = d.d_hist in
      Vhist
        { h_count = s.hn; h_sum = s.hsum; h_min = s.hmin; h_max = s.hmax;
          h_buckets = Array.copy s.hbuckets }

let snapshot () =
  Hashtbl.fold
    (fun _ d acc -> if d.d_updated then (d, value d) :: acc else acc)
    by_name []
  |> List.sort (fun (a, _) (b, _) -> compare a.d_name b.d_name)

let reset () =
  Hashtbl.iter
    (fun _ d ->
      d.d_updated <- false;
      d.d_value <- 0;
      clear_hist d.d_hist)
    by_name
