module P = Minisl.Polyhedron
module A = Minisl.Affine
module Cstr = Minisl.Constr
module Rat = Pp_util.Rat
module Matrix = Pp_util.Matrix

type piece = {
  dom : P.t;
  labels : A.t option array;
  exact : bool;
  points : int;
  under : P.t option;
      (* for over-approximated domains: a certified exact inner region
         (the paper's §10 future work, "under-approximation schemes in
         the DDG"); [None] when [exact] (the domain is its own under-
         approximation) or when no inner region was recovered *)
}

let piece_label_fn p =
  if Array.for_all Option.is_some p.labels then
    Some (Array.map Option.get p.labels)
  else None

let pp_piece ?names ?label_names fmt p =
  Format.fprintf fmt "%a (%d pts%s%s)" (P.pp ?names) p.dom p.points
    (if p.exact then "" else ", approx")
    (match p.under with None -> "" | Some _ -> ", has under-approx");
  if Array.length p.labels = 0 then ()
  else begin
    Format.fprintf fmt " -> [";
    Array.iteri
      (fun i f ->
        if i > 0 then Format.fprintf fmt ", ";
        (match label_names with
        | Some ns when i < Array.length ns -> Format.fprintf fmt "%s = " ns.(i)
        | _ -> ());
        match f with
        | Some f -> A.pp ?names fmt f
        | None -> Format.fprintf fmt "T")
      p.labels;
    Format.fprintf fmt "]"
  end

(* ------------------------------------------------------------------ *)
(* Affine fitting with sampling + verification                         *)
(* ------------------------------------------------------------------ *)

(* Every per-point check below goes through [A.compare_int] /
   [A.floor_int] / [A.ceil_int]: checked native-int evaluation that
   falls back to [Rat] for the one call that would overflow, so no
   folding decision depends on which path ran. *)

(* Fit an affine function of [sub_dim] leading coordinates through all
   (point, value) samples, by fitting a small sample then verifying the
   rest; points failing verification are added to the sample and the fit
   is retried a bounded number of times. *)
let fit_affine ~sub_dim (points : int array array) (values : int array) :
    A.t option =
  let n = Array.length points in
  if n = 0 then None
  else begin
    let rec attempt round idxs =
      if round > sub_dim + 4 then None
      else begin
        let pts = Array.of_list (List.map (fun i -> Array.sub points.(i) 0 sub_dim) idxs) in
        let vals = Array.of_list (List.map (fun i -> values.(i)) idxs) in
        match Matrix.affine_fit pts vals with
        | None -> None
        | Some (coeffs, const) ->
            let f = A.make coeffs const in
            (* verify on the full set *)
            let bad = ref 0 in
            while !bad < n && A.compare_int f points.(!bad) values.(!bad) = 0 do
              incr bad
            done;
            if !bad = n then Some (A.extend f (Array.length points.(0)))
            else attempt (round + 1) (!bad :: idxs)
      end
    in
    attempt 0 (List.init (min n (sub_dim + 2)) Fun.id)
  end

(* ------------------------------------------------------------------ *)
(* Nest fitting: lo_d(outer) <= c_d <= hi_d(outer) with affine bounds   *)
(* ------------------------------------------------------------------ *)

type nest = { bnds : (A.t * A.t) array (* per dim, over the full space *) }

let same_prefix d (a : int array) (b : int array) =
  let k = ref 0 in
  while !k < d && a.(!k) = b.(!k) do incr k done;
  !k = d

(* Group [points] by their first [d] coordinates.  The table is keyed on
   the points themselves (open addressing over group ids, hashed and
   compared on the prefix in place, grown with the number of groups), so
   no key is built.  Returns each group's first point index, in
   first-appearance order — [fit_affine] samples the first groups, so
   the order picks the fit on rank-deficient data — and each point's
   group. *)
let group_by_prefix (points : int array array) d =
  let bits = ref 4 in
  let slots = ref (Array.make 16 (-1)) and first = ref (Array.make 8 0) in
  let ngroups = ref 0 in
  (* the slot holding [p]'s group, or the empty slot where it goes *)
  let find p =
    let h = ref 0 in
    for k = 0 to d - 1 do
      h := (!h + p.(k)) * 0x2545F4914F6CDD1D
    done;
    let slots = !slots and first = !first in
    let mask = Array.length slots - 1 in
    let s = ref ((!h lsr (63 - !bits)) land mask) in
    while slots.(!s) >= 0 && not (same_prefix d points.(first.(slots.(!s))) p) do
      s := (!s + 1) land mask
    done;
    !s
  in
  (* keep the table at most half full; [first] holds half its size *)
  let grow () =
    incr bits;
    slots := Array.make (1 lsl !bits) (-1);
    for g = 0 to !ngroups - 1 do
      !slots.(find points.(!first.(g))) <- g
    done;
    let f = Array.make (1 lsl (!bits - 1)) 0 in
    Array.blit !first 0 f 0 !ngroups;
    first := f
  in
  let group = Array.make (Array.length points) 0 in
  Array.iteri
    (fun i p ->
      let s = find p in
      if !slots.(s) >= 0 then group.(i) <- !slots.(s)
      else begin
        !slots.(s) <- !ngroups;
        !first.(!ngroups) <- i;
        group.(i) <- !ngroups;
        incr ngroups;
        if 2 * !ngroups >= Array.length !slots then grow ()
      end)
    points;
  (Array.sub !first 0 !ngroups, group)

(* Per prefix group of [points] (see [group_by_prefix]): the min and max
   of coordinate [d]. *)
let prefix_ranges (points : int array array) d =
  let first, group = group_by_prefix points d in
  let lo = Array.make (Array.length first) max_int in
  let hi = Array.make (Array.length first) min_int in
  Array.iteri
    (fun i p ->
      let g = group.(i) in
      if p.(d) < lo.(g) then lo.(g) <- p.(d);
      if p.(d) > hi.(g) then hi.(g) <- p.(d))
    points;
  (first, group, lo, hi)

let fit_domain ~dim (points : int array array) : nest option =
  if Array.length points = 0 then None
  else begin
    let bnds = Array.make dim (A.const ~dim Rat.zero, A.const ~dim Rat.zero) in
    let rec fit_from d =
      if d = dim then Some { bnds }
      else begin
        let first, _, lo, hi = prefix_ranges points d in
        (* one point per prefix; [fit_affine] reads only its first [d]
           coordinates *)
        let reps = Array.map (fun i -> points.(i)) first in
        match fit_affine ~sub_dim:d reps lo with
        | None -> None
        | Some lo_f -> (
            match fit_affine ~sub_dim:d reps hi with
            | None -> None
            | Some hi_f ->
                bnds.(d) <- (lo_f, hi_f);
                fit_from (d + 1))
      end
    in
    fit_from 0
  end

(* Count the integer points implied by the nest, aborting early past
   [limit]. *)
let implied_count ~dim nest ~limit =
  let exception Too_many in
  let prefix = Array.make dim 0 in
  let work = ref 0 in
  let rec go d =
    if d = dim then 1
    else begin
      let lo_f, hi_f = nest.bnds.(d) in
      let lo = A.ceil_int lo_f prefix in
      let hi = A.floor_int hi_f prefix in
      (* bound the sheer iteration count too: extrapolated bounds on
         prefixes absent from the data can span huge empty ranges *)
      if hi - lo > limit then raise Too_many;
      let total = ref 0 in
      for v = lo to hi do
        incr work;
        if !work > 4 * (limit + dim + 1) then raise Too_many;
        prefix.(d) <- v;
        total := !total + go (d + 1);
        if !total > limit then raise Too_many
      done;
      prefix.(d) <- 0;
      !total
    end
  in
  try Some (go 0) with Too_many -> None

let nest_to_polyhedron ~dim nest =
  let cons = ref [] in
  for d = 0 to dim - 1 do
    let lo_f, hi_f = nest.bnds.(d) in
    let v = A.var ~dim d in
    cons := Cstr.of_affine Ge (A.sub v lo_f) :: Cstr.of_affine Ge (A.sub hi_f v) :: !cons
  done;
  P.make dim !cons

(* Exact fit of a segment: affine-bounded nest + affine labels.  With
   [strict:false] individual label components may come out as top. *)
let fit_segment ?(strict = true) ~dim ~label_dim (points : int array array)
    (labels : int array array) lo len : piece option =
  let pts = Array.sub points lo len in
  let lbs = Array.sub labels lo len in
  if dim = 0 then begin
    (* scalar context: a single execution; several executions of a
       0-dimensional statement cannot be folded exactly *)
    if len <> 1 then None
    else
      Some
        { dom = P.universe 0;
          labels =
            Array.map (fun v -> Some (A.const ~dim:0 (Rat.of_int v))) lbs.(0);
          exact = true;
          points = 1;
          under = None }
  end
  else
    match fit_domain ~dim pts with
    | None -> None
    | Some nest ->
        (* every point lies in the nest: each bound was verified against
           the min / max of every prefix group; so the nest is exact iff
           it holds no other integer point *)
        if implied_count ~dim nest ~limit:len <> Some len then None
        else begin
          let lfs =
            Array.init label_dim (fun k ->
                fit_affine ~sub_dim:dim pts (Array.map (fun l -> l.(k)) lbs))
          in
          if strict && not (Array.for_all Option.is_some lfs) then None
          else
            Some
              { dom = nest_to_polyhedron ~dim nest;
                labels = lfs;
                exact = true;
                points = len;
                under = None }
        end

let box_piece ~dim ~label_dim (points : int array array)
    (labels : int array array) =
  let dom =
    if Array.length points = 0 then P.empty dim
    else Minisl.Hull.box_of_points (Array.to_list points)
  in
  let lfs =
    Array.init label_dim (fun k ->
        fit_affine ~sub_dim:dim points (Array.map (fun l -> l.(k)) labels))
  in
  (* under-approximation: the longest exactly-foldable prefix of the
     stream certifies an inner region that is definitely iterated *)
  let under =
    if dim = 0 || Array.length points < 2 then None
    else begin
      let n = Array.length points in
      let fits len =
        fit_segment ~strict:false ~dim ~label_dim points labels 0 len
      in
      let len = ref 1 in
      while (2 * !len <= n) && fits (2 * !len) <> None do
        len := 2 * !len
      done;
      match fits !len with
      | Some p when !len > 1 -> Some p.dom
      | _ -> None
    end
  in
  { dom; labels = lfs; exact = false; points = Array.length points; under }

(* Split the stream by a per-dimension boundary predicate: points at the
   first iteration of dim [d] (within their prefix) versus the rest.
   This captures the classic boundary pieces of dependence relations —
   e.g. a reduction whose first inner iteration reads the previous outer
   iteration's result (paper Table 2: the I4->I4 dependence holds on
   ck >= 1 only).  [part] holds indices into [points]; both halves keep
   its order. *)
let split_boundary_iteration ~last points part d =
  let pts = Array.map (fun i -> points.(i)) part in
  let _, group, lo, hi = prefix_ranges pts d in
  let extreme = if last then hi else lo in
  let boundary = ref [] and rest = ref [] in
  for k = Array.length part - 1 downto 0 do
    if pts.(k).(d) = extreme.(group.(k)) then boundary := part.(k) :: !boundary
    else rest := part.(k) :: !rest
  done;
  (Array.of_list !boundary, Array.of_list !rest)

let fold_exact ?(boundary_splits = true) ~dim ~label_dim ~max_pieces points
    labels =
  let n = Array.length points in
  if n = 0 then []
  else
    let fit_part part =
      fit_segment ~dim ~label_dim
        (Array.map (fun i -> points.(i)) part)
        (Array.map (fun i -> labels.(i)) part)
        0 (Array.length part)
    in
    (* recursive boundary splitting, innermost dimension first, with a
       small budget (up to 4 pieces); [split] is tried once the whole
       of [part] failed to fit *)
    let rec split part budget =
      let rec go d last =
        if d < 0 then if last then None else go (dim - 1) true
        else begin
          let first, rest = split_boundary_iteration ~last points part d in
          if Array.length first = 0 || Array.length rest = 0 then go (d - 1) last
          else
            match fit_with_splits first (budget - 1) with
            | None -> go (d - 1) last
            | Some a -> (
                match fit_with_splits rest (budget - 1) with
                | Some b -> Some (a @ b)
                | None -> go (d - 1) last)
        end
      in
      go (dim - 1) false
    and fit_with_splits part budget =
      match fit_part part with
      | Some p -> Some [ p ]
      | None when budget > 0 -> split part budget
      | None -> None
    in
    match fit_segment ~dim ~label_dim points labels 0 n with
    | Some p -> [ p ]
    | None ->
    match
      if dim > 0 && boundary_splits then split (Array.init n Fun.id) 2 else None
    with
    | Some ps -> ps
    | None ->
        (* greedy segmentation with doubling + binary search *)
        let pieces = ref [] in
        let i = ref 0 in
        let too_many = ref false in
        while !i < n && not !too_many do
          let fits len = Option.is_some (fit_segment ~dim ~label_dim points labels !i len) in
          (* grow the segment by doubling + binary search; fits() is not
             monotone (a partial inner row can fail where the next full
             row succeeds), so retry the expansion from each new best
             until it stops improving *)
          let best = ref 1 in
          let improved = ref true in
          while !improved do
            improved := false;
            let len = ref !best in
            while !i + (2 * !len) <= n && fits (2 * !len) do
              len := 2 * !len
            done;
            let lo = ref !len and hi = ref (min (2 * !len) (n - !i)) in
            while !lo < !hi do
              let mid = (!lo + !hi + 1) / 2 in
              if fits mid then lo := mid else hi := mid - 1
            done;
            if !lo > !best then begin
              best := !lo;
              improved := true
            end
          done;
          let best = !best in
          (match fit_segment ~dim ~label_dim points labels !i best with
          | Some p -> pieces := p :: !pieces
          | None -> assert false);
          i := !i + best;
          if List.length !pieces > max_pieces then too_many := true
        done;
        if !too_many then
          (* before giving up the domain, try the whole stream with
             per-component label over-approximation: an exact domain
             whose irregular label components are top *)
          match fit_segment ~strict:false ~dim ~label_dim points labels 0 n with
          | Some p -> [ p ]
          | None -> [ box_piece ~dim ~label_dim points labels ]
        else List.rev !pieces

(* ------------------------------------------------------------------ *)
(* Streaming collector                                                  *)
(* ------------------------------------------------------------------ *)

module Collector = struct
  let obs_points = Obs.Metrics.counter ~help:"dependence points folded into polyhedral pieces" "fold.points"
  let obs_pieces = Obs.Metrics.counter ~help:"polyhedral pieces produced by folding" "fold.pieces"
  let obs_approx = Obs.Metrics.counter ~help:"collectors that overflowed their cap into approx mode" "fold.approx_spills"
  let obs_collector_points = Obs.Metrics.histogram ~help:"points per folded collector" "fold.collector_points"

  type approx_state = {
    mutable lo : int array;
    mutable hi : int array;
    mutable labels : A.t option array;  (* still-valid incremental fits *)
  }

  (* The points added so far, in order: [pts.(i)] and [lbls.(i)] for
     [i < n].  The arrays hold the caller's arrays themselves (no tuple
     or cons per point) and double when full. *)
  type buffer = { mutable pts : int array array; mutable lbls : int array array }

  type mode =
    | Buffering of buffer
    | Approx of approx_state

  type t = {
    dim : int;
    label_dim : int;
    cap : int;
    max_pieces : int;
    boundary_splits : bool;
    per_component : bool;
    mutable n : int;
    mutable mode : mode;
    mutable finalized : piece list option;
  }

  let create ?(cap = 100_000) ?(max_pieces = 16) ?(boundary_splits = true)
      ?(per_component = true) ~dim ~label_dim () =
    { dim;
      label_dim;
      cap;
      max_pieces;
      boundary_splits;
      per_component;
      n = 0;
      mode = Buffering { pts = [||]; lbls = [||] };
      finalized = None }

  let npoints t = t.n
  let dim t = t.dim

  let spilled t = match t.mode with Approx _ -> true | Buffering _ -> false

  let to_arrays t b = (Array.sub b.pts 0 t.n, Array.sub b.lbls 0 t.n)

  let push t b coords label =
    let i = t.n - 1 in
    if i = Array.length b.pts then begin
      (* never more than [cap] slots: the cap-th point spills *)
      let size = min (max 8 (2 * i)) (max t.cap 1) in
      let grow a =
        let g = Array.make size [||] in
        Array.blit a 0 g 0 i;
        g
      in
      b.pts <- grow b.pts;
      b.lbls <- grow b.lbls
    end;
    b.pts.(i) <- coords;
    b.lbls.(i) <- label

  let switch_to_approx t b =
    let points, labels = to_arrays t b in
    let lo = Array.copy points.(0) and hi = Array.copy points.(0) in
    Array.iter
      (fun p ->
        Array.iteri
          (fun k v ->
            if v < lo.(k) then lo.(k) <- v;
            if v > hi.(k) then hi.(k) <- v)
          p)
      points;
    let lfs =
      Array.init t.label_dim (fun k ->
          fit_affine ~sub_dim:t.dim points (Array.map (fun l -> l.(k)) labels))
    in
    let st = { lo; hi; labels = lfs } in
    t.mode <- Approx st;
    st

  let add t coords label =
    assert (Array.length coords = t.dim && Array.length label = t.label_dim);
    assert (Option.is_none t.finalized);
    t.n <- t.n + 1;
    match t.mode with
    | Buffering b ->
        push t b coords label;
        if t.n >= t.cap then ignore (switch_to_approx t b)
    | Approx st ->
        for k = 0 to t.dim - 1 do
          let v = coords.(k) in
          if v < st.lo.(k) then st.lo.(k) <- v;
          if v > st.hi.(k) then st.hi.(k) <- v
        done;
        for k = 0 to t.label_dim - 1 do
          match st.labels.(k) with
          | Some f -> if A.compare_int f coords label.(k) <> 0 then st.labels.(k) <- None
          | None -> ()
        done

  let box_of_bounds dim lo hi =
    let cons = ref [] in
    for k = 0 to dim - 1 do
      let up = Array.make dim 0 and dn = Array.make dim 0 in
      up.(k) <- 1;
      dn.(k) <- -1;
      cons := Cstr.make Ge up (-lo.(k)) :: Cstr.make Ge dn hi.(k) :: !cons
    done;
    P.make dim !cons

  let result t =
    match t.finalized with
    | Some ps -> ps
    | None ->
        let ps =
          match t.mode with
          | Buffering b ->
              let points, labels = to_arrays t b in
              b.pts <- [||];
              b.lbls <- [||];
              fold_exact ~boundary_splits:t.boundary_splits ~dim:t.dim
                ~label_dim:t.label_dim ~max_pieces:t.max_pieces points labels
          | Approx st ->
              [ { dom = box_of_bounds t.dim st.lo st.hi;
                  labels = st.labels;
                  exact = false;
                  points = t.n;
                  under = None } ]
        in
        let ps =
          if t.per_component then ps
          else
            (* ablation: the paper-style all-or-nothing label
               over-approximation — one irregular component tops them all *)
            List.map
              (fun (p : piece) ->
                if Array.exists Option.is_none p.labels then
                  { p with labels = Array.map (fun _ -> None) p.labels }
                else p)
              ps
        in
        t.finalized <- Some ps;
        if Obs.Registry.enabled () then begin
          Obs.Metrics.add obs_points t.n;
          Obs.Metrics.observe obs_collector_points t.n;
          Obs.Metrics.add obs_pieces (List.length ps);
          match t.mode with
          | Approx _ -> Obs.Metrics.add obs_approx 1
          | Buffering _ -> ()
        end;
        ps

  let is_affine t =
    List.for_all
      (fun p -> p.exact && Array.for_all Option.is_some p.labels)
      (result t)
end

let fold_points ~dim ~label_dim pts =
  let c = Collector.create ~dim ~label_dim () in
  List.iter (fun (p, l) -> Collector.add c p l) pts;
  Collector.result c
