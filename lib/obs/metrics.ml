type kind = Counter | Gauge | Histogram

type desc = { d_id : int; d_name : string; d_kind : kind; d_help : string }
type counter = desc
type gauge = desc
type histogram = desc

(* ------------------------------------------------------------------ *)
(* Descriptor registry (process-global, mutex-protected; registration
   happens at module init or first use, never on hot paths)            *)
(* ------------------------------------------------------------------ *)

let reg_mutex = Mutex.create ()
let by_name : (string, desc) Hashtbl.t = Hashtbl.create 64
let all_descs : desc list ref = ref []
let next_id = ref 0

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let register ?(help = "") name kind =
  Mutex.protect reg_mutex (fun () ->
      match Hashtbl.find_opt by_name name with
      | Some d ->
          if d.d_kind <> kind then
            invalid_arg
              (Printf.sprintf
                 "Obs.Metrics: %s already registered as a %s (wanted %s)" name
                 (kind_name d.d_kind) (kind_name kind));
          d
      | None ->
          let d =
            { d_id = !next_id; d_name = name; d_kind = kind; d_help = help }
          in
          incr next_id;
          Hashtbl.add by_name name d;
          all_descs := d :: !all_descs;
          d)

let descs_sorted () =
  List.sort
    (fun a b -> compare a.d_name b.d_name)
    (Mutex.protect reg_mutex (fun () -> !all_descs))

let counter ?help name = register ?help name Counter
let gauge ?help name = register ?help name Gauge
let histogram ?help name = register ?help name Histogram

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
(* Sinks: plain mutable per-domain accumulators.  Merge semantics per
   kind: counters and histogram buckets add, gauges take the max —
   every operation is commutative and associative on ints, so merging
   any partition of the same updates in any order is bit-identical.    *)
(* ------------------------------------------------------------------ *)

module Sink = struct
  type hstate = {
    mutable hn : int;
    mutable hsum : int;
    mutable hmin : int;
    mutable hmax : int;
    hbuckets : int array;
  }

  type cell = Cnone | Cint of int ref | Chist of hstate

  type t = { mutable cells : cell array }

  let create () = { cells = [||] }

  let ensure t id =
    let n = Array.length t.cells in
    if id >= n then begin
      let grown = Array.make (max 16 (max (id + 1) (2 * n))) Cnone in
      Array.blit t.cells 0 grown 0 n;
      t.cells <- grown
    end

  let int_cell t (d : desc) =
    ensure t d.d_id;
    match t.cells.(d.d_id) with
    | Cint r -> r
    | Cnone ->
        let r = ref 0 in
        t.cells.(d.d_id) <- Cint r;
        r
    | Chist _ -> invalid_arg "Obs.Metrics: histogram used as counter/gauge"

  let hist_cell t (d : desc) =
    ensure t d.d_id;
    match t.cells.(d.d_id) with
    | Chist h -> h
    | Cnone ->
        let h =
          { hn = 0; hsum = 0; hmin = max_int; hmax = min_int;
            hbuckets = Array.make n_buckets 0 }
        in
        t.cells.(d.d_id) <- Chist h;
        h
    | Cint _ -> invalid_arg "Obs.Metrics: counter/gauge used as histogram"

  let add t (c : counter) n =
    let r = int_cell t c in
    r := !r + n

  let set_max t (g : gauge) v =
    let r = int_cell t g in
    if v > !r then r := v

  let observe t (h : histogram) v =
    let v = max 0 v in
    let s = hist_cell t h in
    s.hn <- s.hn + 1;
    s.hsum <- s.hsum + v;
    if v < s.hmin then s.hmin <- v;
    if v > s.hmax then s.hmax <- v;
    let b = bucket_of v in
    s.hbuckets.(b) <- s.hbuckets.(b) + 1

  let merge_cell ~is_gauge dst id cell =
    match cell with
    | Cnone -> ()
    | Cint r -> (
        ensure dst id;
        match dst.cells.(id) with
        | Cint r' -> if is_gauge id then r' := max !r' !r else r' := !r' + !r
        | Cnone -> dst.cells.(id) <- Cint (ref !r)
        | Chist _ -> invalid_arg "Obs.Metrics.merge: kind mismatch")
    | Chist h -> (
        ensure dst id;
        match dst.cells.(id) with
        | Chist h' ->
            h'.hn <- h'.hn + h.hn;
            h'.hsum <- h'.hsum + h.hsum;
            if h.hmin < h'.hmin then h'.hmin <- h.hmin;
            if h.hmax > h'.hmax then h'.hmax <- h.hmax;
            Array.iteri
              (fun b n -> h'.hbuckets.(b) <- h'.hbuckets.(b) + n)
              h.hbuckets
        | Cnone ->
            dst.cells.(id) <-
              Chist
                { hn = h.hn; hsum = h.hsum; hmin = h.hmin; hmax = h.hmax;
                  hbuckets = Array.copy h.hbuckets }
        | Cint _ -> invalid_arg "Obs.Metrics.merge: kind mismatch")

  let gauge_lookup () =
    let descs = Mutex.protect reg_mutex (fun () -> !all_descs) in
    let n = List.fold_left (fun a d -> max a (d.d_id + 1)) 0 descs in
    let tbl = Array.make n false in
    List.iter (fun d -> if d.d_kind = Gauge then tbl.(d.d_id) <- true) descs;
    fun id -> id < n && tbl.(id)

  let merge_into ~dst src =
    let is_gauge = gauge_lookup () in
    Array.iteri (merge_cell ~is_gauge dst) src.cells

  let snapshot_of sinks =
    let merged = create () in
    List.iter (fun src -> merge_into ~dst:merged src) sinks;
    List.filter_map
      (fun d ->
        if d.d_id >= Array.length merged.cells then None
        else
          match merged.cells.(d.d_id) with
          | Cnone -> None
          | Cint r -> Some (d, Vint !r)
          | Chist h ->
              Some
                ( d,
                  Vhist
                    { h_count = h.hn; h_sum = h.hsum; h_min = h.hmin;
                      h_max = h.hmax; h_buckets = Array.copy h.hbuckets } ))
      (descs_sorted ())
end

(* ------------------------------------------------------------------ *)
(* Per-domain plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let dls_key = Domain.DLS.new_key (fun () -> Sink.create ())
let current () = Domain.DLS.get dls_key
let snapshot () = Sink.snapshot_of [ current () ]
let reset () = Domain.DLS.set dls_key (Sink.create ())

let add c n = if Registry.enabled () then Sink.add (current ()) c n
let set_max g v = if Registry.enabled () then Sink.set_max (current ()) g v
let observe h v = if Registry.enabled () then Sink.observe (current ()) h v
