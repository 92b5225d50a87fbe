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
(* Run-length streams                                                   *)
(* ------------------------------------------------------------------ *)

(* A stream of (point, label) pairs held as runs.  Run [j] stands for the
   points [p0 + t * e_(dim-1)] with labels [l0 + t * step], [t < len]:
   consecutive iterations of the innermost loop, whose labels change by
   a constant step.  Runs sit in one flat int array, [stride] ints each:

     p0 (dim) | len | l0 (label_dim) | step (label_dim) | last label (label_dim)

   A run is an exact progression: neither its innermost coordinate nor
   any label wraps around [max_int] inside it, so every point and label
   it stands for is [p0 + t * e] and [l0 + t * step] over the integers.
   A point that would need a wrapping step starts a new run.  In a
   0-dimensional stream every point is a run of its own. *)
module Runs = struct
  type t = {
    dim : int;
    label_dim : int;
    stride : int;
    max_runs : int;  (* the buffer never grows past this many runs *)
    mutable buf : int array;
    mutable nruns : int;
    mutable npoints : int;
  }

  let create ~dim ~label_dim ~max_runs ~size =
    let stride = dim + 1 + (3 * label_dim) in
    { dim; label_dim; stride; max_runs; buf = Array.make (size * stride) 0; nruns = 0;
      npoints = 0 }

  let clear r =
    r.nruns <- 0;
    r.npoints <- 0

  (* Whether [(coords, label)] continues the last run: the same outer
     coordinates, the next innermost one and the next label, with no
     step wrapping around.  Overflow is tested on the sign bits inline
     (no exception handler per point). *)
  let continues r coords label =
    let dim = r.dim and ld = r.label_dim and buf = r.buf in
    if r.nruns = 0 || dim = 0 then false
    else begin
      let b = (r.nruns - 1) * r.stride in
      let len = buf.(b + dim) in
      let ok = ref true and k = ref 0 in
      while !ok && !k < dim - 1 do
        ok := buf.(b + !k) = coords.(!k);
        incr k
      done;
      let last = buf.(b + dim - 1) + len - 1 in
      ok := !ok && last <> max_int && coords.(dim - 1) = last + 1;
      let l = b + dim + 1 in
      k := 0;
      if len = 1 then
        (* the step is [v - l0]: it must not overflow *)
        while !ok && !k < ld do
          let l0 = buf.(l + !k) and v = label.(!k) in
          ok := (v lxor l0) land (v lxor (v - l0)) >= 0;
          incr k
        done
      else
        while !ok && !k < ld do
          let step = buf.(l + ld + !k) and last = buf.(l + (2 * ld) + !k) in
          let next = last + step in
          ok := next = label.(!k) && (last lxor next) land (step lxor next) >= 0;
          incr k
        done;
      !ok
    end

  (* Append a point: the values are copied, never the arrays. *)
  let push r coords label =
    let dim = r.dim and ld = r.label_dim in
    r.npoints <- r.npoints + 1;
    if continues r coords label then begin
      let b = (r.nruns - 1) * r.stride in
      let l = b + dim + 1 in
      let len = r.buf.(b + dim) in
      r.buf.(b + dim) <- len + 1;
      for k = 0 to ld - 1 do
        if len = 1 then r.buf.(l + ld + k) <- label.(k) - r.buf.(l + k);
        r.buf.(l + (2 * ld) + k) <- label.(k)
      done
    end
    else begin
      if (r.nruns + 1) * r.stride > Array.length r.buf then begin
        let size = min (max 8 (2 * r.nruns)) (max r.max_runs 1) in
        let g = Array.make (size * r.stride) 0 in
        Array.blit r.buf 0 g 0 (r.nruns * r.stride);
        r.buf <- g
      end;
      let b = r.nruns * r.stride in
      r.nruns <- r.nruns + 1;
      Array.blit coords 0 r.buf b dim;
      r.buf.(b + dim) <- 1;
      let l = b + dim + 1 in
      for k = 0 to ld - 1 do
        r.buf.(l + k) <- label.(k);
        r.buf.(l + ld + k) <- 0;
        r.buf.(l + (2 * ld) + k) <- label.(k)
      done
    end

  (* [r] becomes the points [idx.(ofs) .. idx.(ofs + len - 1)] of
     [points] / [labels], in that order. *)
  let encode r points labels idx ofs len =
    clear r;
    for q = ofs to ofs + len - 1 do
      let i = idx.(q) in
      push r points.(i) labels.(i)
    done

  let run_len r j = r.buf.((j * r.stride) + r.dim)

  (* label component [k] of the [t]-th point of run [j] *)
  let label r j t k =
    let l = (j * r.stride) + r.dim + 1 + k in
    (* exact: the run's labels never wrap, so the product's wrap-around
       cancels *)
    r.buf.(l) + (t * r.buf.(l + r.label_dim))

  (* the [t]-th point of run [j], as a fresh array *)
  let point r j t =
    let p = Array.sub r.buf (j * r.stride) r.dim in
    if t > 0 then p.(r.dim - 1) <- p.(r.dim - 1) + t;
    p

  (* the run holding the [i]-th point, and the point's offset in it *)
  let locate r i =
    let j = ref 0 and i = ref i in
    while !i >= run_len r !j do
      i := !i - run_len r !j;
      incr j
    done;
    (!j, !i)

  let decode r =
    let points = Array.make r.npoints [||] and labels = Array.make r.npoints [||] in
    let i = ref 0 in
    for j = 0 to r.nruns - 1 do
      for t = 0 to run_len r j - 1 do
        points.(!i) <- point r j t;
        let l = Array.make r.label_dim 0 in
        for k = 0 to r.label_dim - 1 do
          l.(k) <- label r j t k
        done;
        labels.(!i) <- l;
        incr i
      done
    done;
    (points, labels)

  let of_points ~dim ~label_dim pts =
    let n = List.length pts in
    let r = create ~dim ~label_dim ~max_runs:n ~size:n in
    List.iter (fun (p, l) -> push r p l) pts;
    r

  let to_points r =
    let points, labels = decode r in
    Array.to_list (Array.map2 (fun p l -> (p, l)) points labels)

  let length r = r.nruns
end

(* ------------------------------------------------------------------ *)
(* Affine fitting with sampling + verification                         *)
(* ------------------------------------------------------------------ *)

(* Every per-point check below goes through [A.compare_int] /
   [A.floor_int] / [A.ceil_int]: checked native-int evaluation that
   falls back to [Rat] for the one call that would overflow, so no
   folding decision depends on which path ran. *)

(* Fit an affine function of the first [sub_dim] coordinates through
   [n] (point, value) samples, extended to [dim] dimensions, by fitting
   a small sample then verifying the rest: [point i] / [value i] give
   the [i]-th sample ([point]'s array is read before the next call) and
   [first_bad f] the first index [f] misses, or [n].  A missed point is
   added to the sample and the fit retried a bounded number of times. *)
let fit_affine ~sub_dim ~dim n point value first_bad : A.t option =
  if n = 0 then None
  else begin
    let rec attempt round idxs =
      if round > sub_dim + 4 then None
      else begin
        let pts = Array.of_list (List.map (fun i -> Array.sub (point i) 0 sub_dim) idxs) in
        let vals = Array.of_list (List.map value idxs) in
        match Matrix.affine_fit pts vals with
        | None -> None
        | Some (coeffs, const) ->
            let f = A.make coeffs const in
            let bad = first_bad f in
            if bad = n then Some (A.extend f dim) else attempt (round + 1) (bad :: idxs)
      end
    in
    attempt 0 (List.init (min n (sub_dim + 2)) Fun.id)
  end

(* [fit_affine] verified point by point *)
let fit_points ~sub_dim ~dim n point value =
  fit_affine ~sub_dim ~dim n point value (fun f ->
      let bad = ref 0 in
      while !bad < n && A.compare_int f (point !bad) (value !bad) = 0 do
        incr bad
      done;
      !bad)

(* Label component [k] of every point of [r], as a function of the
   whole point.  The sample is [fit_affine]'s (the first points, decoded
   by index); verification checks each run at [t = 0] and [t = 1] only:
   [f (p0 + t e) - (l0 + t step)] is affine in [t], so it vanishes on the
   whole run iff it vanishes at both, and the first missed point is the
   same as a point-by-point walk finds. *)
let fit_label (r : Runs.t) k =
  let dim = r.dim in
  let p = Array.make dim 0 in
  let first_bad f =
    let bad = ref (-1) and i = ref 0 and j = ref 0 in
    while !bad < 0 && !j < r.nruns do
      let len = Runs.run_len r !j in
      Array.blit r.buf (!j * r.stride) p 0 dim;
      if A.compare_int f p (Runs.label r !j 0 k) <> 0 then bad := !i
      else if len > 1 then begin
        p.(dim - 1) <- p.(dim - 1) + 1;
        if A.compare_int f p (Runs.label r !j 1 k) <> 0 then bad := !i + 1
      end;
      i := !i + len;
      incr j
    done;
    if !bad < 0 then r.npoints else !bad
  in
  fit_affine ~sub_dim:dim ~dim r.npoints
    (fun i ->
      let j, t = Runs.locate r i in
      Runs.point r j t)
    (fun i ->
      let j, t = Runs.locate r i in
      Runs.label r j t k)
    first_bad

(* ------------------------------------------------------------------ *)
(* Nest fitting: lo_d(outer) <= c_d <= hi_d(outer) with affine bounds   *)
(* ------------------------------------------------------------------ *)

(* per dim, over the full space *)
type nest = (A.t * A.t) array

(* Group the runs of [r] by the first [d < dim] coordinates of their
   points.  All points of a run share their first [dim - 1] coordinates,
   so grouping run starts gives the groups of the points, each first
   seen at a run start.  The table is keyed on the buffer in place (open
   addressing over group ids, hashed and compared on the prefix, grown
   with the number of groups), so no key is built.  Returns each group's
   first run, in first-appearance order — [fit_affine] samples the first
   groups, so the order picks the fit on rank-deficient data — and each
   run's group. *)
let group_by_prefix (r : Runs.t) d =
  let buf = r.buf and stride = r.stride in
  let same_prefix a b =
    let k = ref 0 in
    while !k < d && buf.(a + !k) = buf.(b + !k) do incr k done;
    !k = d
  in
  let bits = ref 4 in
  let slots = ref (Array.make 16 (-1)) and first = ref (Array.make 8 0) in
  let ngroups = ref 0 in
  (* the slot holding the group of the run at [b], or the empty slot
     where it goes *)
  let find b =
    let h = ref 0 in
    for k = 0 to d - 1 do
      h := (!h + buf.(b + k)) * 0x2545F4914F6CDD1D
    done;
    let slots = !slots and first = !first in
    let mask = Array.length slots - 1 in
    let s = ref ((!h lsr (63 - !bits)) land mask) in
    while slots.(!s) >= 0 && not (same_prefix (first.(slots.(!s)) * stride) b) do
      s := (!s + 1) land mask
    done;
    !s
  in
  (* keep the table at most half full; [first] holds half its size *)
  let grow () =
    incr bits;
    slots := Array.make (1 lsl !bits) (-1);
    for g = 0 to !ngroups - 1 do
      !slots.(find (!first.(g) * stride)) <- g
    done;
    let f = Array.make (1 lsl (!bits - 1)) 0 in
    Array.blit !first 0 f 0 !ngroups;
    first := f
  in
  let group = Array.make r.nruns 0 in
  for j = 0 to r.nruns - 1 do
    let s = find (j * stride) in
    if !slots.(s) >= 0 then group.(j) <- !slots.(s)
    else begin
      !slots.(s) <- !ngroups;
      !first.(!ngroups) <- j;
      group.(j) <- !ngroups;
      incr ngroups;
      if 2 * !ngroups >= Array.length !slots then grow ()
    end
  done;
  (Array.sub !first 0 !ngroups, group)

(* Per prefix group of [r] (see [group_by_prefix]): the min and max of
   coordinate [d], from the run endpoints. *)
let prefix_ranges (r : Runs.t) d =
  let first, group = group_by_prefix r d in
  let lo = Array.make (Array.length first) max_int in
  let hi = Array.make (Array.length first) min_int in
  let inner = if d = r.dim - 1 then 1 else 0 in
  for j = 0 to r.nruns - 1 do
    let g = group.(j) and v = r.buf.((j * r.stride) + d) in
    if v < lo.(g) then lo.(g) <- v;
    let v = v + (inner * (Runs.run_len r j - 1)) in
    if v > hi.(g) then hi.(g) <- v
  done;
  (first, group, lo, hi)

let fit_nest (r : Runs.t) : nest option =
  let dim = r.dim in
  let bnds = Array.make dim (A.const ~dim Rat.zero, A.const ~dim Rat.zero) in
  (* one point per prefix group, its group's first run start; only its
     first [d] coordinates are read *)
  let rep = Array.make dim 0 in
  let rec fit_from d =
    if d = dim then Some bnds
    else begin
      let first, _, lo, hi = prefix_ranges r d in
      let point g =
        Array.blit r.buf (first.(g) * r.stride) rep 0 d;
        rep
      in
      let fit vs = fit_points ~sub_dim:d ~dim (Array.length first) point (Array.get vs) in
      match fit lo with
      | None -> None
      | Some lo_f -> (
          match fit hi with
          | None -> None
          | Some hi_f ->
              bnds.(d) <- (lo_f, hi_f);
              fit_from (d + 1))
    end
  in
  fit_from 0

(* Count the integer points implied by the nest, aborting early past
   [limit]. *)
let implied_count (nest : nest) ~limit =
  let dim = Array.length nest in
  let exception Too_many in
  let prefix = Array.make dim 0 in
  let work = ref 0 and max_work = 4 * (limit + dim + 1) in
  let rec go d =
    if d = dim then 1
    else begin
      let lo_f, hi_f = nest.(d) in
      let lo = A.ceil_int lo_f prefix in
      let hi = A.floor_int hi_f prefix in
      (* bound the sheer iteration count too: extrapolated bounds on
         prefixes absent from the data can span huge empty ranges *)
      if hi - lo > limit then raise Too_many;
      if d = dim - 1 then begin
        (* the innermost row in closed form: the work and the count only
           grow along it, so checking both once after the row raises
           exactly when a per-point loop would (a row too long for an
           int comes out non-positive) *)
        if hi < lo then 0
        else begin
          let row = hi - lo + 1 in
          if row <= 0 || row > max_work - !work || row > limit then raise Too_many;
          work := !work + row;
          row
        end
      end
      else begin
        let total = ref 0 in
        for v = lo to hi do
          incr work;
          if !work > max_work then raise Too_many;
          prefix.(d) <- v;
          total := !total + go (d + 1);
          if !total > limit then raise Too_many
        done;
        prefix.(d) <- 0;
        !total
      end
    end
  in
  try Some (go 0) with Too_many -> None

let nest_to_polyhedron (nest : nest) =
  let dim = Array.length nest in
  let cons = ref [] in
  for d = 0 to dim - 1 do
    let lo_f, hi_f = nest.(d) in
    let v = A.var ~dim d in
    cons := Cstr.of_affine Ge (A.sub v lo_f) :: Cstr.of_affine Ge (A.sub hi_f v) :: !cons
  done;
  P.make dim !cons

(* Exact fit of a whole stream: affine-bounded nest + affine labels.
   With [strict:false] individual label components may come out as
   top. *)
let fit_segment ?(strict = true) (r : Runs.t) : piece option =
  let dim = r.dim and n = r.npoints in
  if n = 0 then None
  else if dim = 0 then begin
    (* scalar context: a single execution; several executions of a
       0-dimensional statement cannot be folded exactly *)
    if n <> 1 then None
    else
      Some
        { dom = P.universe 0;
          labels =
            Array.init r.label_dim (fun k -> Some (A.const ~dim:0 (Rat.of_int (Runs.label r 0 0 k))));
          exact = true;
          points = 1;
          under = None }
  end
  else
    match fit_nest r with
    | None -> None
    | Some nest ->
        (* every point lies in the nest: each bound was verified against
           the min / max of every prefix group; so the nest is exact iff
           it holds no other integer point *)
        if implied_count nest ~limit:n <> Some n then None
        else begin
          let lfs = Array.init r.label_dim (fit_label r) in
          if strict && not (Array.for_all Option.is_some lfs) then None
          else
            Some
              { dom = nest_to_polyhedron nest;
                labels = lfs;
                exact = true;
                points = n;
                under = None }
        end

(* ------------------------------------------------------------------ *)
(* Int-array keys                                                       *)
(* ------------------------------------------------------------------ *)

(* The key of every table that remembers a fold: a few header ints and
   the slice [body.(0 .. len - 1)] of an int array, referenced in place
   (never copied).  Hashing and equality read every int: [Hashtbl.hash]
   reads only the first ten of an array, and streams that differ late
   would all collide. *)
module Key = struct
  type t = { head : int array; body : int array; len : int }

  let equal a b =
    let rec same x y i n = i = n || (x.(i) = y.(i) && same x y (i + 1) n) in
    a.len = b.len
    && Array.length a.head = Array.length b.head
    && same a.head b.head 0 (Array.length a.head)
    && same a.body b.body 0 a.len

  let hash k =
    let h = ref k.len in
    let mix v = h := (!h + v) * 0x2545F4914F6CDD1D in
    Array.iter mix k.head;
    for i = 0 to k.len - 1 do
      mix k.body.(i)
    done;
    (* [Hashtbl] indexes by the low bits: fold the high ones in *)
    !h lxor (!h lsr 31)
end

module Key_tbl = Hashtbl.Make (Key)

(* ------------------------------------------------------------------ *)
(* Split search, over decoded points                                    *)
(* ------------------------------------------------------------------ *)

(* [points] / [labels] are a stream that did not fit as one piece.  Each
   candidate part or segment is encoded into [scratch] (sized for the
   whole stream once) and fitted by [fit_segment].  The fits are pure,
   so a candidate the search meets again is looked up, not refitted. *)

let label_column labels k = fun i -> labels.(i).(k)

(* [fit_segment] on the points [idx.(ofs) .. idx.(ofs + len - 1)] *)
let fit_indices ?strict scratch points labels idx ofs len =
  Runs.encode scratch points labels idx ofs len;
  fit_segment ?strict scratch

let box_piece (scratch : Runs.t) (points : int array array) (labels : int array array) ident =
  let dim = scratch.dim and n = Array.length points in
  let dom = if n = 0 then P.empty dim else Minisl.Hull.box_of_points (Array.to_list points) in
  let lfs =
    Array.init scratch.label_dim (fun k ->
        fit_points ~sub_dim:dim ~dim n (Array.get points) (label_column labels k))
  in
  (* under-approximation: the longest exactly-foldable prefix of the
     stream, doubling from one point, certifies an inner region that is
     definitely iterated *)
  let under =
    if dim = 0 || n < 2 then None
    else begin
      let fits len = fit_indices ~strict:false scratch points labels ident 0 len in
      let rec grow len best =
        if 2 * len > n then best
        else
          match fits (2 * len) with
          | Some p -> grow (2 * len) (Some p)
          | None -> best
      in
      match grow 1 None with
      | Some p -> Some p.dom
      | None ->
          (* a single point certifies nothing, but it is still fitted:
             what that raises, the stream raises *)
          ignore (fits 1);
          None
    end
  in
  { dom; labels = lfs; exact = false; points = n; under }

(* Split a part of the stream by per-dimension boundary predicates:
   points at the first iteration of dim [d] (within their prefix) versus
   the rest, and points at the last iteration versus the rest, from one
   encoding of the part.  This captures the classic boundary pieces of
   dependence relations — e.g. a reduction whose first inner iteration
   reads the previous outer iteration's result (paper Table 2: the
   I4->I4 dependence holds on ck >= 1 only).  [part] holds indices into
   [points]; every half keeps its order.  Along a run only the innermost
   coordinate moves, so a run is on the boundary as a whole for an outer
   [d], and in at most one point for the innermost. *)
let split_boundary_iterations scratch points labels part d =
  let np = Array.length part in
  Runs.encode scratch points labels part 0 np;
  let r = scratch in
  let _, group, lo, hi = prefix_ranges r d in
  let split extreme =
    let boundary = Array.make np 0 and rest = Array.make np 0 in
    let nb = ref 0 and nr = ref 0 and q = ref 0 in
    for j = 0 to r.nruns - 1 do
      let v0 = r.buf.((j * r.stride) + d) and ext = extreme.(group.(j)) in
      for t = 0 to Runs.run_len r j - 1 do
        let v = if d = r.dim - 1 then v0 + t else v0 in
        if v = ext then begin
          boundary.(!nb) <- part.(!q);
          incr nb
        end
        else begin
          rest.(!nr) <- part.(!q);
          incr nr
        end;
        incr q
      done
    done;
    (Array.sub boundary 0 !nb, Array.sub rest 0 !nr)
  in
  (split lo, split hi)

(* The piece list of a stream [r] that [fit_segment] could not fit
   whole: boundary splits, then greedy segmentation, then per-component
   label over-approximation or a box. *)
let fold_split ~boundary_splits ~max_pieces (r : Runs.t) =
  let dim = r.dim and label_dim = r.label_dim in
  let points, labels = Runs.decode r in
  let n = Array.length points in
  let scratch = Runs.create ~dim ~label_dim ~max_runs:n ~size:n in
  let ident = Array.init n Fun.id in
  (* the fit of every part the boundary splits tried, by the part's
     contents: different split paths reach the same part *)
  let parts = Key_tbl.create 16 in
  let fit_part part =
    let key = { Key.head = [||]; body = part; len = Array.length part } in
    match Key_tbl.find_opt parts key with
    | Some p -> p
    | None ->
        let p = fit_indices scratch points labels part 0 (Array.length part) in
        Key_tbl.add parts key p;
        p
  in
  (* recursive boundary splitting, innermost dimension first, with a
     small budget (up to 4 pieces); [split] is tried once the whole
     of [part] failed to fit *)
  let rec split part budget =
    (* per dim, the first- and last-iteration splits of [part],
       classified when [go] first reaches the dim *)
    let classified = Array.make dim None in
    let halves d last =
      let s =
        match classified.(d) with
        | Some s -> s
        | None ->
            let s = split_boundary_iterations scratch points labels part d in
            classified.(d) <- Some s;
            s
      in
      if last then snd s else fst s
    in
    let rec go d last =
      if d < 0 then if last then None else go (dim - 1) true
      else begin
        let boundary, rest = halves d last in
        if Array.length boundary = 0 || Array.length rest = 0 then go (d - 1) last
        else
          match fit_with_splits boundary (budget - 1) with
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
  match if dim > 0 && boundary_splits then split ident 2 else None with
  | Some ps -> ps
  | None ->
      (* the boundary phase is over: drop its parts *)
      Key_tbl.reset parts;
      (* greedy segmentation with doubling + binary search *)
      let pieces = ref [] in
      let i = ref 0 in
      let too_many = ref false in
      (* the fit of every length tried from the current start *)
      let tried = Hashtbl.create 16 in
      let segment len =
        match Hashtbl.find_opt tried len with
        | Some p -> p
        | None ->
            let p = fit_indices scratch points labels ident !i len in
            Hashtbl.add tried len p;
            p
      in
      while !i < n && not !too_many do
        Hashtbl.clear tried;
        let fits len = Option.is_some (segment len) in
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
        (match segment best with
        | Some p -> pieces := p :: !pieces
        | None -> assert false);
        i := !i + best;
        if List.length !pieces > max_pieces then too_many := true
      done;
      if !too_many then
        (* before giving up the domain, try the whole stream with
           per-component label over-approximation: an exact domain
           whose irregular label components are top *)
        match fit_segment ~strict:false r with
        | Some p -> [ p ]
        | None -> [ box_piece scratch points labels ident ]
      else List.rev !pieces

(* ------------------------------------------------------------------ *)
(* Streaming collector                                                  *)
(* ------------------------------------------------------------------ *)

module Collector = struct
  let obs_points = Obs.Metrics.counter ~help:"dependence points folded into polyhedral pieces" "fold.points"
  let obs_pieces = Obs.Metrics.counter ~help:"polyhedral pieces produced by folding" "fold.pieces"
  let obs_approx = Obs.Metrics.counter ~help:"collectors that overflowed their cap into approx mode" "fold.approx_spills"
  let obs_runs = Obs.Metrics.counter ~help:"runs the collectors held when they stopped buffering" "fold.runs"
  let obs_decoded = Obs.Metrics.counter ~help:"points decoded from runs for the split search or a cap spill" "fold.decoded_points"
  let obs_shared = Obs.Metrics.counter ~help:"collectors answered from the stream table without folding" "fold.shared"
  let obs_collector_points = Obs.Metrics.histogram ~help:"points per folded collector" "fold.collector_points"

  type approx_state = {
    mutable lo : int array;
    mutable hi : int array;
    mutable labels : A.t option array;  (* still-valid incremental fits *)
    spill_runs : int;  (* runs held when the cap was reached *)
    spill_points : int;  (* points decoded then *)
  }

  type mode =
    | Buffering of Runs.t
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
      (* never more than [cap] runs: the cap-th point spills *)
      mode = Buffering (Runs.create ~dim ~label_dim ~max_runs:cap ~size:0);
      finalized = None }

  let npoints t = t.n
  let dim t = t.dim

  let spilled t = match t.mode with Approx _ -> true | Buffering _ -> false

  let switch_to_approx t r =
    let points, labels = Runs.decode r in
    let lo = Array.copy points.(0) and hi = Array.copy points.(0) in
    Array.iter
      (fun p ->
        Array.iteri
          (fun k v ->
            if v < lo.(k) then lo.(k) <- v;
            if v > hi.(k) then hi.(k) <- v)
          p)
      points;
    let n = Array.length points in
    let lfs =
      Array.init t.label_dim (fun k ->
          fit_points ~sub_dim:t.dim ~dim:t.dim n (Array.get points) (label_column labels k))
    in
    t.mode <- Approx { lo; hi; labels = lfs; spill_runs = r.nruns; spill_points = n }

  let add t coords label =
    assert (Array.length coords = t.dim && Array.length label = t.label_dim);
    assert (Option.is_none t.finalized);
    t.n <- t.n + 1;
    match t.mode with
    | Buffering r ->
        Runs.push r coords label;
        if t.n >= t.cap then switch_to_approx t r
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

  (* The raw pieces (before the [per_component] ablation) of every
     buffered stream folded so far, keyed on the folding options that
     shape them and on the stream's runs, in the collector's own buffer.
     [dim] and [label_dim] belong to the key: different layouts can have
     the same stride and the same buffer. *)
  type shared = piece list Key_tbl.t

  let shared () : shared = Key_tbl.create 64

  (* [r]'s pieces, whether they came from [shared], and the points
     decoded for them *)
  let fold_buffered ~shared t (r : Runs.t) =
    let key =
      { Key.head = [| t.dim; t.label_dim; t.max_pieces; Bool.to_int t.boundary_splits |];
        body = r.buf;
        len = r.nruns * r.stride }
    in
    match Key_tbl.find_opt shared key with
    | Some ps -> (ps, true, 0)
    | None ->
        let ps, decoded =
          match fit_segment r with
          | Some p -> ([ p ], 0)
          | None ->
              ( fold_split ~boundary_splits:t.boundary_splits ~max_pieces:t.max_pieces r,
                r.npoints )
        in
        Key_tbl.add shared key ps;
        (ps, false, decoded)

  let result ~shared t =
    match t.finalized with
    | Some ps -> ps
    | None ->
        let ps, runs, hit, decoded =
          match t.mode with
          | Buffering r ->
              let runs = r.nruns in
              let ps, hit, decoded = fold_buffered ~shared t r in
              (* the table keeps the buffer of a stream it holds *)
              Runs.clear r;
              r.buf <- [||];
              (ps, runs, hit, decoded)
          | Approx st ->
              ( [ { dom = box_of_bounds t.dim st.lo st.hi;
                    labels = st.labels;
                    exact = false;
                    points = t.n;
                    under = None } ],
                st.spill_runs,
                false,
                st.spill_points )
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
          Obs.Metrics.add obs_runs runs;
          Obs.Metrics.add obs_decoded decoded;
          Obs.Metrics.add obs_shared (Bool.to_int hit);
          match t.mode with
          | Approx _ -> Obs.Metrics.add obs_approx 1
          | Buffering _ -> ()
        end;
        ps

  let is_affine t =
    match t.finalized with
    | Some ps -> List.for_all (fun p -> p.exact && Array.for_all Option.is_some p.labels) ps
    | None -> invalid_arg "Fold.Collector.is_affine: the collector is not finalized"
end

let fold_points ~dim ~label_dim pts =
  let c = Collector.create ~dim ~label_dim () in
  List.iter (fun (p, l) -> Collector.add c p l) pts;
  Collector.result ~shared:(Collector.shared ()) c
