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
    mutable dim : int;
    mutable label_dim : int;
    mutable stride : int;
    mutable max_runs : int;  (* the buffer never grows past this many runs *)
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

  (* [r], emptied, in another layout: its buffer is kept (a scratch
     stream reused for streams of every layout) *)
  let reshape r ~dim ~label_dim ~max_runs =
    r.dim <- dim;
    r.label_dim <- label_dim;
    r.stride <- dim + 1 + (3 * label_dim);
    r.max_runs <- max_runs;
    clear r

  (* Whether [label] continues the labels of the last run (there is
     one) by a constant step, with no step wrapping around.  Overflow is
     tested on the sign bits inline (no exception handler per point). *)
  let labels_continue r label =
    let ld = r.label_dim and buf = r.buf in
    let b = (r.nruns - 1) * r.stride in
    let len = buf.(b + r.dim) and l = b + r.dim + 1 in
    let ok = ref true and k = ref 0 in
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

  (* Whether [coords] continues the points of the last run: the same
     outer coordinates and the next innermost one. *)
  let coords_continue r coords =
    let dim = r.dim and buf = r.buf in
    if r.nruns = 0 || dim = 0 then false
    else begin
      let b = (r.nruns - 1) * r.stride in
      let ok = ref true and k = ref 0 in
      while !ok && !k < dim - 1 do
        ok := buf.(b + !k) = coords.(!k);
        incr k
      done;
      let last = buf.(b + dim - 1) + buf.(b + dim) - 1 in
      !ok && last <> max_int && coords.(dim - 1) = last + 1
    end

  (* Whether [(coords, label)] continues the last run. *)
  let continues r coords label = coords_continue r coords && labels_continue r label

  (* Append a point, [cont] telling whether it [continues] the last run:
     the values are copied, never the arrays. *)
  let append r ~cont coords label =
    let dim = r.dim and ld = r.label_dim in
    r.npoints <- r.npoints + 1;
    if cont then begin
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
        (* int loops, not [Array.blit]: that cannot tell ints from
           pointers and goes through the write barrier per element of a
           major-heap buffer *)
        for i = 0 to (r.nruns * r.stride) - 1 do
          g.(i) <- r.buf.(i)
        done;
        r.buf <- g
      end;
      let b = r.nruns * r.stride in
      r.nruns <- r.nruns + 1;
      for k = 0 to dim - 1 do
        r.buf.(b + k) <- coords.(k)
      done;
      r.buf.(b + dim) <- 1;
      let l = b + dim + 1 in
      for k = 0 to ld - 1 do
        r.buf.(l + k) <- label.(k);
        r.buf.(l + ld + k) <- 0;
        r.buf.(l + (2 * ld) + k) <- label.(k)
      done
    end

  let push r coords label = append r ~cont:(continues r coords label) coords label
  let run_len r j = r.buf.((j * r.stride) + r.dim)

  (* label component [k] of the [t]-th point of run [j] *)
  let label r j t k =
    let l = (j * r.stride) + r.dim + 1 + k in
    (* exact: the run's labels never wrap, so the product's wrap-around
       cancels *)
    r.buf.(l) + (t * r.buf.(l + r.label_dim))

  (* Extend the last run of [r] by [n] points, the last of which is point
     [t] of run [j] of [src], where [push] would have extended it point by
     point: the run's step is already [src]'s run's step. *)
  let extend r n src j t =
    let b = (r.nruns - 1) * r.stride in
    r.buf.(b + r.dim) <- r.buf.(b + r.dim) + n;
    r.npoints <- r.npoints + n;
    let l = b + r.dim + 1 + (2 * r.label_dim) in
    for k = 0 to r.label_dim - 1 do
      r.buf.(l + k) <- label src j t k
    done

  (* the [t]-th point of run [j], as a fresh array *)
  let point r j t =
    let p = Array.sub r.buf (j * r.stride) r.dim in
    if t > 0 then p.(r.dim - 1) <- p.(r.dim - 1) + t;
    p

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
  let npoints r = r.npoints
  let run_lengths r = Array.init r.nruns (run_len r)
  let contents r = Array.sub r.buf 0 (r.nruns * r.stride)
end

(* ------------------------------------------------------------------ *)
(* Int-array keys                                                       *)
(* ------------------------------------------------------------------ *)

(* The key of every table that remembers a fold: a few header ints and
   the slice [body.(0 .. len - 1)] of an int array, referenced in place
   (never copied).  The slice is a sequence of records of
   [Array.length rel] ints, and int [i] of every record is read less int
   [rel.(i)] of the slice when [rel.(i) >= 0]: the stream table reads
   each label relative to the stream's first one this way, so streams
   that differ by a constant per label component share a key.  The
   differences wrap around like the ints themselves, so equality stays
   an equivalence.  Hashing and equality read every int: [Hashtbl.hash]
   reads only the first ten of an array, and streams that differ late
   would all collide. *)
module Key = struct
  type t = { head : int array; body : int array; len : int; rel : int array }

  (* read every int as is *)
  let plain = [| -1 |]

  let[@inline] get k o i =
    let r = k.rel.(i) in
    if r < 0 then k.body.(o + i) else k.body.(o + i) - k.body.(r)

  let same_ints x y =
    let n = Array.length x in
    n = Array.length y
    &&
    let i = ref 0 in
    while !i < n && x.(!i) = y.(!i) do
      incr i
    done;
    !i = n

  (* the bodies of [a] and [b], [a.len] ints read record by record *)
  let same_body a b =
    let w = Array.length a.rel in
    let same = ref true and o = ref 0 in
    while !same && !o < a.len do
      let i = ref 0 in
      while !same && !i < w do
        same := get a !o !i = get b !o !i;
        incr i
      done;
      o := !o + w
    done;
    !same

  (* Keys on one buffer (the collectors a block domain fills share it)
     with the same length and relative reads are equal without reading
     the buffer. *)
  let equal a b =
    a.len = b.len
    && same_ints a.head b.head
    && ((a.body == b.body && same_ints a.rel b.rel) || same_body a b)

  let hash k =
    let h = ref k.len in
    for i = 0 to Array.length k.head - 1 do
      h := (!h + k.head.(i)) * 0x2545F4914F6CDD1D
    done;
    let w = Array.length k.rel in
    let o = ref 0 in
    while !o < k.len do
      for i = 0 to w - 1 do
        h := (!h + get k !o i) * 0x2545F4914F6CDD1D
      done;
      o := !o + w
    done;
    (* [Hashtbl] indexes by the low bits: fold the high ones in *)
    !h lxor (!h lsr 31)
end

module Key_tbl = Hashtbl.Make (Key)

(* ------------------------------------------------------------------ *)
(* Fitting workspace                                                    *)
(* ------------------------------------------------------------------ *)

(* Every fit of one stream table works in one [Ws.t] of flat int arrays,
   grown to the largest fit the table makes and dropped with the table,
   so a fit allocates nothing, and a fit that builds its result only
   that result:

   - the sample solve: [smp] holds a fit's sample rows [x_0 .. x_(s-1)
     1 v] ([s] coordinates fitted) in the order they were added: the
     first [min n (s + 2)] points, then each point a candidate missed.
     Each round copies them into [mat] and eliminates there;
   - the candidate: unknown [k] ([k = s] the constant) is [num.(k) /
     den.(k)], in [Rat.make]'s canonical form.  [sc] holds its integer
     form over the common denominator [cden], which is [0] when that
     form overflows; [cand] is the candidate as an [A.t], built only for
     the overflow fallback;
   - what a fit reads its samples from: the stream [fr], a label
     component [fk], or per-group values [fvals];
   - the nest: bound slot [2d] (lower) and [2d + 1] (upper) of dim [d]
     holds the fractions [bnum] / [bden] of a bound [fit_nest] fitted,
     over all [dim] coordinates, and the same integer form ([bsc],
     [bcden]) for [implied_count]; [prefix] and [work] are the count's
     outer coordinates and work so far; [knum] / [kden] hold one
     constraint of the nest's polyhedron for [check_nest];
   - prefix grouping: [slots] is an open-addressing table over group
     ids ([2^bits] slots, all empty between calls), or a map from a
     stream's prefix group ids to a part's groups; per group its slot,
     its first run and the range [lo, hi] of one coordinate; per run its
     group;
   - [coord]: one point, for the overflow fallback;
   - the split search over the stream [sr]: the part encoded from it
     into [out] ([src], [pt] and [lab] as [append] uses them), the
     index of each run's first point ([starts]), the stream's prefix
     group ids per dim ([ids], [nids]), the two halves of a boundary
     split ([bnd] and [rst], [nb] and [nr] ints long), the boundary
     phase's verdicts by part ([parts]) and the parts it keeps ([kept]),
     the greedy phase's kept segments ([segs]) and the verdicts of the
     lengths it tried from one start (stamped [stamp]), and the pieces
     fits have built ([built]). *)
module Ws = struct
  type t = {
    mutable smp : int array;
    mutable mat : int array;
    mutable piv : int array;
    mutable num : int array;
    mutable den : int array;
    mutable sc : int array;
    mutable cden : int;
    mutable cand : A.t option;
    mutable fr : Runs.t;
    mutable fk : int;
    mutable fvals : int array;
    mutable bnum : int array;
    mutable bden : int array;
    mutable bsc : int array;
    mutable bcden : int array;
    mutable prefix : int array;
    mutable work : int;
    mutable knum : int array;
    mutable kden : int array;
    mutable coord : int array;
    mutable slots : int array;
    mutable bits : int;
    mutable gslot : int array;
    mutable first : int array;
    mutable lo : int array;
    mutable hi : int array;
    mutable group : int array;
    mutable ngroups : int;
    mutable sr : Runs.t;
    out : Runs.t;
    mutable src : int array;
    mutable pt : int array;
    mutable lab : int array;
    mutable starts : int array;
    mutable ids : int array;
    mutable nids : int array;
    mutable bnd : int array;
    mutable rst : int array;
    mutable nb : int;
    mutable nr : int;
    parts : bool Key_tbl.t;
    mutable kept : int array array;
    mutable nkept : int;
    mutable segs : int array;
    mutable tried : int array;
    mutable stamp : int;
    mutable built : int;
  }

  let create () =
    let none () = Runs.create ~dim:0 ~label_dim:0 ~max_runs:0 ~size:0 in
    { smp = [||]; mat = [||]; piv = [||]; num = [||]; den = [||]; sc = [||]; cden = 0;
      cand = None; fr = none (); fk = 0; fvals = [||]; bnum = [||]; bden = [||]; bsc = [||];
      bcden = [||]; prefix = [||]; work = 0; knum = [||]; kden = [||]; coord = [||];
      slots = Array.make 16 (-1); bits = 4; gslot = [||]; first = [||]; lo = [||]; hi = [||];
      group = [||]; ngroups = 0; sr = none (); out = none (); src = [||]; pt = [||];
      lab = [||]; starts = [||]; ids = [||]; nids = [||]; bnd = [||]; rst = [||]; nb = 0;
      nr = 0; parts = Key_tbl.create 16; kept = [||]; nkept = 0; segs = [||]; tried = [||];
      stamp = 0; built = 0 }

  (* [a] if it holds [n] ints, else a larger array (its contents are not
     kept) *)
  let grow a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

  (* [a] if it holds [n] ints, else a larger array holding its first [k] *)
  let grow_keep a n k =
    if Array.length a >= n then a
    else begin
      let b = Array.make (max n (2 * Array.length a)) 0 in
      for i = 0 to k - 1 do
        b.(i) <- a.(i)
      done;
      b
    end

  (* room for a fit of [rows] samples over [s] of [dim] coordinates *)
  let reserve_fit ws ~s ~rows ~dim =
    let cols = s + 2 in
    if Array.length ws.mat < rows * cols then begin
      ws.smp <- grow ws.smp (rows * cols);
      ws.mat <- grow ws.mat (rows * cols)
    end;
    (* [smp] and [mat] keep the same length, and so do the four below *)
    if Array.length ws.piv < cols then begin
      ws.piv <- grow ws.piv cols;
      ws.num <- grow ws.num cols;
      ws.den <- grow ws.den cols;
      ws.sc <- grow ws.sc cols
    end;
    if Array.length ws.coord < dim then ws.coord <- grow ws.coord dim

  let reserve_bounds ws dim =
    let n = 2 * dim * (dim + 1) in
    if Array.length ws.bsc < n then begin
      ws.bnum <- grow ws.bnum n;
      ws.bden <- grow ws.bden n;
      ws.bsc <- grow ws.bsc n;
      ws.bcden <- grow ws.bcden (2 * dim);
      ws.prefix <- grow ws.prefix dim;
      ws.knum <- grow ws.knum (dim + 1);
      ws.kden <- grow ws.kden (dim + 1)
    end

  (* at least [n] slots (all empty, as between calls) *)
  let reserve_slots ws n =
    if Array.length ws.slots < n then begin
      while 1 lsl ws.bits < n do
        ws.bits <- ws.bits + 1
      done;
      ws.slots <- Array.make (1 lsl ws.bits) (-1)
    end

  (* double the per-group arrays, keeping their [n] groups *)
  let grow_groups ws n =
    let m = max 16 (2 * Array.length ws.first) in
    ws.gslot <- grow_keep ws.gslot m n;
    ws.first <- grow_keep ws.first m n;
    ws.lo <- grow_keep ws.lo m n;
    ws.hi <- grow_keep ws.hi m n
end

(* ------------------------------------------------------------------ *)
(* Integer forms                                                        *)
(* ------------------------------------------------------------------ *)

(* The arithmetic of [A.compare_int] / [A.floor_int] / [A.ceil_int],
   with the common denominator and the scaled coefficients computed once
   per function instead of once per point.  Every step is the same
   checked [Rat.int_*] operation in the same order, so an evaluation
   overflows exactly where theirs does; it then falls back to them, and
   they fall back to [Rat]. *)

(* [Rat.int_add], [Rat.int_sub], [Rat.int_mul] and [Rat.gcd], repeated
   here so that the per-element loops below inline them: a library built
   without cross-module optimisation (dune's default dev profile passes
   [-opaque]) reaches every [Rat] function through an indirect call.
   The products leave the fast path to [Rat.int_mul] itself. *)
let[@inline] int_add a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then raise_notrace Rat.Overflow else s

let[@inline] int_sub a b =
  let s = a - b in
  if (a lxor b) land (a lxor s) < 0 then raise_notrace Rat.Overflow else s

let[@inline] int_mul a b =
  if a < 0x4000_0000 && a > -0x4000_0000 && b < 0x4000_0000 && b > -0x4000_0000 then a * b
  else Rat.int_mul a b

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* The integer form of the [n + 1] unknowns [num.(o + k) / den.(o + k)]
   (the constant last, canonical fractions): the scaled coefficients go
   to [sc.(o ..)] and the common denominator is returned.
   @raise Rat.Overflow as [A.compare_int] would on every point *)
let int_form num den sc o n =
  let d = ref den.(o + n) in
  for k = 0 to n - 1 do
    if den.(o + k) <> 1 then d := Rat.lcm !d den.(o + k)
  done;
  let d = !d in
  for k = 0 to n do
    sc.(o + k) <- (if d = 1 then num.(o + k) else int_mul num.(o + k) (d / den.(o + k)))
  done;
  d

(* [sc . x + const] for the point [x_k = buf.(ofs + k)], plus [t] on
   [x_(n-1)] (a point inside a run) *)
let scaled_eval sc o n buf ofs t =
  let acc = ref sc.(o + n) in
  for k = 0 to n - 1 do
    let x = if k = n - 1 then buf.(ofs + k) + t else buf.(ofs + k) in
    acc := int_add !acc (int_mul sc.(o + k) x)
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Affine fitting with sampling + verification                         *)
(* ------------------------------------------------------------------ *)

(* [Rat.make num den] ([den <> 0]) into unknown [k] of the candidate:
   the same divisions and checked negations, without the record *)
let set_unknown (ws : Ws.t) k num den =
  let g = gcd num den in
  let num = num / g and den = den / g in
  if den > 0 then begin
    ws.num.(k) <- num;
    ws.den.(k) <- den
  end
  else begin
    ws.num.(k) <- Rat.int_neg num;
    ws.den.(k) <- Rat.int_neg den
  end

(* Divide row [o] of [m] by the gcd of its [cols] entries, [Rat.gcd]
   folded from 0.  [gcd 0 x = abs x] and [gcd g 0 = g] for every [g] it
   returns, so those calls are skipped; a gcd of 1 stays 1. *)
let normalize_row m o cols =
  let g = ref (abs m.(o)) and j = ref 1 in
  while !j < cols && !g <> 1 do
    let x = m.(o + !j) in
    if x <> 0 then g := if !g = 0 then abs x else gcd !g x;
    incr j
  done;
  let g = !g in
  if g > 1 then
    for j = 0 to cols - 1 do
      m.(o + j) <- m.(o + j) / g
    done

(* Fraction-free Gauss-Jordan on the [n] rows [x_i 1 | v_i] of [ws.mat],
   in checked native ints; the solution goes to the candidate.  Each
   elimination step is the exact row operation [a * row_i - b * row_p]
   followed by division by the row's gcd, so the rows stay integer
   multiples of the reduced row-echelon form's.  That form is unique, so
   the pivot columns, the consistency verdict and the solution (pivot
   entry ratios, free unknowns 0) are exactly those of the [Rat] solve
   [Matrix.affine_fit]; a consistent system's solution interpolates
   every sample, so no check is needed.  Returns whether the system is
   consistent.  @raise Rat.Overflow when an intermediate overflows *)
let solve_int (ws : Ws.t) ~s n =
  let cols = s + 2 and m = ws.mat and piv = ws.piv in
  for c = 0 to cols - 1 do
    piv.(c) <- -1
  done;
  let row = ref 0 in
  for col = 0 to cols - 1 do
    if !row < n then begin
      let p = ref !row in
      while !p < n && m.((!p * cols) + col) = 0 do
        incr p
      done;
      if !p < n then begin
        let pr = !row * cols in
        if !p <> !row then
          for j = 0 to cols - 1 do
            let q = (!p * cols) + j in
            let tmp = m.(pr + j) in
            m.(pr + j) <- m.(q);
            m.(q) <- tmp
          done;
        normalize_row m pr cols;
        for i = 0 to n - 1 do
          let ri = i * cols in
          if i <> !row && m.(ri + col) <> 0 then begin
            let g = gcd m.(pr + col) m.(ri + col) in
            let a = m.(pr + col) / g and b = m.(ri + col) / g in
            for j = 0 to cols - 1 do
              m.(ri + j) <- int_sub (int_mul a m.(ri + j)) (int_mul b m.(pr + j))
            done;
            normalize_row m ri cols
          end
        done;
        piv.(col) <- !row;
        incr row
      end
    end
  done;
  (* inconsistent: a pivot in the value column *)
  piv.(s + 1) < 0
  && begin
       for k = 0 to s do
         let r = piv.(k) in
         if r < 0 then begin
           ws.num.(k) <- 0;
           ws.den.(k) <- 1
         end
         else set_unknown ws k m.((r * cols) + s + 1) m.((r * cols) + k)
       done;
       true
     end

(* Row [q] of round [round]: the missed points newest first, then the
   first [m0] samples. *)
let sample_row ~m0 ~round q = if q < round then m0 + round - 1 - q else q - round

(* Copy the round's rows into [mat]. *)
let load_rows (ws : Ws.t) ~s ~m0 ~round =
  let cols = s + 2 in
  for q = 0 to m0 + round - 1 do
    let src = sample_row ~m0 ~round q * cols and dst = q * cols in
    for j = 0 to cols - 1 do
      ws.mat.(dst + j) <- ws.smp.(src + j)
    done
  done

(* The round's solve on the sample rows, by [solve_int], redone by the
   [Rat] solve when that overflows. *)
let solve (ws : Ws.t) ~s ~m0 ~round =
  let n = m0 + round and cols = s + 2 in
  load_rows ws ~s ~m0 ~round;
  try solve_int ws ~s n
  with Rat.Overflow -> (
    let row q = sample_row ~m0 ~round q * cols in
    let pts = Array.init n (fun q -> Array.sub ws.smp (row q) s) in
    let vals = Array.init n (fun q -> ws.smp.(row q + s + 1)) in
    match Matrix.affine_fit pts vals with
    | None -> false
    | Some (coeffs, const) ->
        Array.iteri
          (fun k (c : Rat.t) ->
            ws.num.(k) <- c.num;
            ws.den.(k) <- c.den)
          coeffs;
        ws.num.(s) <- const.num;
        ws.den.(s) <- const.den;
        true)

(* sample row [row]: the first [s] coordinates of the point at
   [buf.(ofs)], coordinate [s - 1] plus [t], and the value [v] *)
let put_sample (ws : Ws.t) ~s row buf ofs t v =
  let o = row * (s + 2) and smp = ws.smp in
  for k = 0 to s - 1 do
    smp.(o + k) <- buf.(ofs + k)
  done;
  if s > 0 then smp.(o + s - 1) <- smp.(o + s - 1) + t;
  smp.(o + s) <- 1;
  smp.(o + s + 1) <- v

(* the canonical fraction [num.(i) / den.(i)] as a [Rat.t] *)
let rat_at num den i = if den.(i) = 1 then Rat.of_int num.(i) else Rat.make num.(i) den.(i)

(* the candidate as an affine function of [dim >= s] coordinates *)
let candidate (ws : Ws.t) ~s ~dim =
  let coeffs = Array.make dim Rat.zero in
  for k = 0 to s - 1 do
    coeffs.(k) <- rat_at ws.num ws.den k
  done;
  { A.coeffs; const = rat_at ws.num ws.den s }

(* [check] where the integer form overflows *)
let check_slow (ws : Ws.t) ~s buf ofs t v =
  let f =
    match ws.cand with
    | Some f -> f
    | None ->
        let f = candidate ws ~s ~dim:s in
        ws.cand <- Some f;
        f
  in
  let x = ws.coord in
  for k = 0 to s - 1 do
    x.(k) <- buf.(ofs + k)
  done;
  if s > 0 then x.(s - 1) <- x.(s - 1) + t;
  A.compare_int f x v

(* The sign of [cand(x) - v] at the point of [put_sample]: the integer
   form, or [A.compare_int] where that overflows. *)
let check (ws : Ws.t) ~s buf ofs t v =
  let den = ws.cden in
  if den = 0 then check_slow ws ~s buf ofs t v
  else
    match Int.compare (scaled_eval ws.sc 0 s buf ofs t) (int_mul v den) with
    | c -> c
    | exception Rat.Overflow -> check_slow ws ~s buf ofs t v

(* What [fit_affine] fits, through the workspace's [fr], [fk] and
   [fvals]:
   - [Points]: label component [fk] of every point of [fr], as a
     function of the whole point, verified point by point: every point
     is checked, in stream order, at its run's offset;
   - [Label]: the same, with the same sample (the first points, found
     by index), verified at [t = 0] and [t = 1] of each run only:
     [f (p0 + t e) - (l0 + t step)] is affine in [t], so it vanishes on
     the whole run iff it vanishes at both, and the first missed point is
     the same as a point-by-point walk finds;
   - [Bound]: [fvals.(g)] at the first run start of each group [g] of the
     last grouping of [fr], as a function of the first [s] coordinates. *)
type target =
  | Points
  | Label
  | Bound

(* [put_sample] of the [i]-th point of [r] and its label component [k]:
   the point at offset [t] in run [j] *)
let sample_point ws (r : Runs.t) k row i =
  let j = ref 0 and t = ref i in
  while !t >= Runs.run_len r !j do
    t := !t - Runs.run_len r !j;
    incr j
  done;
  put_sample ws ~s:r.dim row r.buf (!j * r.stride) !t (Runs.label r !j !t k)

(* the [i]-th sample of [target] into sample row [row] *)
let sample (ws : Ws.t) target ~s row i =
  let r = ws.fr in
  match target with
  | Points | Label -> sample_point ws r ws.fk row i
  | Bound -> put_sample ws ~s row r.buf (ws.first.(i) * r.stride) 0 ws.fvals.(i)

(* the first of the [n] samples of [target] the candidate misses, or [n] *)
let first_bad (ws : Ws.t) target ~s n =
  let r = ws.fr and k = ws.fk in
  let buf = r.buf and stride = r.stride in
  match target with
  | Points ->
      let bad = ref (-1) and i = ref 0 and j = ref 0 in
      while !bad < 0 && !j < r.nruns do
        let b = !j * stride and len = Runs.run_len r !j in
        let t = ref 0 in
        while !bad < 0 && !t < len do
          if check ws ~s buf b !t (Runs.label r !j !t k) <> 0 then bad := !i + !t;
          incr t
        done;
        i := !i + len;
        incr j
      done;
      if !bad < 0 then n else !bad
  | Label ->
      let bad = ref (-1) and i = ref 0 and j = ref 0 in
      while !bad < 0 && !j < r.nruns do
        let b = !j * stride and len = Runs.run_len r !j in
        if check ws ~s buf b 0 (Runs.label r !j 0 k) <> 0 then bad := !i
        else if len > 1 && check ws ~s buf b 1 (Runs.label r !j 1 k) <> 0 then bad := !i + 1;
        i := !i + len;
        incr j
      done;
      if !bad < 0 then n else !bad
  | Bound ->
      let g = ref 0 in
      while !g < n && check ws ~s buf (ws.first.(!g) * stride) 0 ws.fvals.(!g) = 0 do
        incr g
      done;
      !g

(* Fit an affine function of the first [s] coordinates through the [n]
   samples of [target], by fitting a small sample then verifying the
   rest: a missed point is added to the sample and the fit retried a
   bounded number of times.  Returns whether a candidate passed; it is
   then the workspace's candidate. *)
let fit_affine (ws : Ws.t) ~s ~dim n target =
  n > 0
  && begin
       (* the first [s + 2] samples and one per retry *)
       Ws.reserve_fit ws ~s ~rows:((2 * s) + 7) ~dim;
       let m0 = min n (s + 2) in
       for i = 0 to m0 - 1 do
         sample ws target ~s i i
       done;
       let fit = ref false and round = ref 0 and go = ref true in
       while !go do
         if !round > s + 4 || not (solve ws ~s ~m0 ~round:!round) then go := false
         else begin
           if Option.is_some ws.cand then ws.cand <- None;
           ws.cden <- (try int_form ws.num ws.den ws.sc 0 s with Rat.Overflow -> 0);
           let bad = first_bad ws target ~s n in
           if bad = n then begin
             fit := true;
             go := false
           end
           else begin
             sample ws target ~s (m0 + !round) bad;
             incr round
           end
         end
       done;
       !fit
     end

(* Whether label component [k] of every point of [r] is an affine
   function of the whole point ([target]: [Points] or [Label]); it is then
   the workspace's candidate. *)
let label_fits (ws : Ws.t) (r : Runs.t) target k =
  ws.fr <- r;
  ws.fk <- k;
  fit_affine ws ~s:r.dim ~dim:r.dim r.npoints target

let fit_points ws (r : Runs.t) k =
  if label_fits ws r Points k then Some (candidate ws ~s:r.dim ~dim:r.dim) else None

let fit_label ws (r : Runs.t) k =
  if label_fits ws r Label k then Some (candidate ws ~s:r.dim ~dim:r.dim) else None

(* ------------------------------------------------------------------ *)
(* Nest fitting: lo_d(outer) <= c_d <= hi_d(outer) with affine bounds   *)
(* ------------------------------------------------------------------ *)

(* per dim, over the full space *)
type nest = (A.t * A.t) array

(* Group the runs of [r] by the first [d < dim] coordinates of their
   points, into [ws]: [ngroups] groups, each group's first run and the
   min [lo] and max [hi] of coordinate [d] over its points, and each
   run's group.  All points of a run share their first [dim - 1]
   coordinates, so grouping run starts gives the groups of the points,
   each first seen at a run start, and the ranges come from the run
   endpoints.  Groups are numbered in first-appearance order:
   [fit_affine] samples the first groups, so the order picks the fit on
   rank-deficient data.  The table is keyed on the buffer in place
   (hashed and compared on the prefix), so no key is built; it grows
   with the number of groups, at most half full, and its slots are
   emptied again before returning. *)
let prefix_hash buf b d =
  let h = ref 0 in
  for k = 0 to d - 1 do
    h := (!h + buf.(b + k)) * 0x2545F4914F6CDD1D
  done;
  !h

let same_prefix buf a b d =
  let k = ref 0 in
  while !k < d && buf.(a + !k) = buf.(b + !k) do
    incr k
  done;
  !k = d

(* the slot of the group whose first run starts with the prefix at
   [buf.(b)], or the empty slot where that group goes *)
let find_slot (ws : Ws.t) buf stride b d =
  let slots = ws.slots and first = ws.first in
  let mask = Array.length slots - 1 in
  let s = ref ((prefix_hash buf b d lsr (63 - ws.bits)) land mask) in
  while slots.(!s) >= 0 && not (same_prefix buf (first.(slots.(!s)) * stride) b d) do
    s := (!s + 1) land mask
  done;
  !s

(* Unit [u] (a run, or a slice of one) whose group sits in slot [s] and
   whose coordinate [d] spans [v .. top] joins the [ng] groups so far:
   the group of the slot, or a new one.  Returns the number of groups. *)
let join_group (ws : Ws.t) ng u s v top =
  let g = ws.slots.(s) in
  if g >= 0 then begin
    ws.group.(u) <- g;
    if v < ws.lo.(g) then ws.lo.(g) <- v;
    if top > ws.hi.(g) then ws.hi.(g) <- top;
    ng
  end
  else begin
    if ng = Array.length ws.first then Ws.grow_groups ws ng;
    ws.slots.(s) <- ng;
    ws.gslot.(ng) <- s;
    ws.first.(ng) <- u;
    ws.lo.(ng) <- v;
    ws.hi.(ng) <- top;
    ws.group.(u) <- ng;
    ng + 1
  end

(* empty the slots of the [ng] groups again *)
let close_groups (ws : Ws.t) ng =
  for g = 0 to ng - 1 do
    ws.slots.(ws.gslot.(g)) <- -1
  done;
  ws.ngroups <- ng

let group_prefix (ws : Ws.t) (r : Runs.t) d =
  ws.group <- Ws.grow ws.group r.nruns;
  let buf = r.buf and stride = r.stride in
  let inner = if d = r.dim - 1 then 1 else 0 in
  let ngroups = ref 0 in
  for j = 0 to r.nruns - 1 do
    let b = j * stride in
    let v = buf.(b + d) in
    let top = v + (inner * (Runs.run_len r j - 1)) in
    let ng = join_group ws !ngroups j (find_slot ws buf stride b d) v top in
    if ng > !ngroups then begin
      ngroups := ng;
      if 2 * ng >= Array.length ws.slots then begin
        ws.bits <- ws.bits + 1;
        ws.slots <- Array.make (1 lsl ws.bits) (-1);
        for g = 0 to ng - 1 do
          let s = find_slot ws buf stride (ws.first.(g) * stride) d in
          ws.slots.(s) <- g;
          ws.gslot.(g) <- s
        done
      end
    end
  done;
  close_groups ws !ngroups

(* Bound [i] of the nest ([2d] the lower and [2d + 1] the upper bound of
   dim [d]) over all [dim] coordinates, as an affine function: the
   candidate [fit_bound] stored there, zero past its [d] coordinates. *)
let bound_affine (ws : Ws.t) ~dim i =
  let o = i * (dim + 1) in
  { A.coeffs = Array.init dim (fun k -> rat_at ws.bnum ws.bden (o + k));
    const = rat_at ws.bnum ws.bden (o + dim) }

(* Bound [i] of dim [d] through the groups of the last grouping of [r]:
   the values are [ws.lo] ([i] even) or [ws.hi]; a group's point is its
   first run start.  The bound goes to nest slot [i] of [ws]. *)
let fit_bound (ws : Ws.t) (r : Runs.t) d i =
  ws.fr <- r;
  ws.fvals <- (if i land 1 = 0 then ws.lo else ws.hi);
  fit_affine ws ~s:d ~dim:r.dim ws.ngroups Bound
  && begin
       let o = i * (r.dim + 1) in
       for k = 0 to r.dim - 1 do
         ws.bnum.(o + k) <- (if k < d then ws.num.(k) else 0);
         ws.bden.(o + k) <- (if k < d then ws.den.(k) else 1)
       done;
       ws.bnum.(o + r.dim) <- ws.num.(d);
       ws.bden.(o + r.dim) <- ws.den.(d);
       true
     end

let solve_samples ws points values =
  let n = Array.length points in
  if n = 0 || n <> Array.length values then invalid_arg "Fold.solve_samples";
  let s = Array.length points.(0) in
  Ws.reserve_fit ws ~s ~rows:n ~dim:s;
  Array.iteri (fun i p -> put_sample ws ~s i p 0 0 values.(i)) points;
  load_rows ws ~s ~m0:n ~round:0;
  if solve_int ws ~s n then
    let f = candidate ws ~s ~dim:s in
    Some (f.coeffs, f.const)
  else None

(* the groups of the last grouping of [nruns] runs, as [prefix_groups]
   returns them *)
let groups (ws : Ws.t) nruns =
  let ng = ws.ngroups in
  (Array.sub ws.first 0 ng, Array.sub ws.group 0 nruns, Array.sub ws.lo 0 ng, Array.sub ws.hi 0 ng)

let prefix_groups ws (r : Runs.t) d =
  group_prefix ws r d;
  groups ws r.nruns

(* Count the integer points of the nest in the nest slots of [ws],
   aborting early past [limit] with [-1].  Each bound's integer form is
   computed once; a bound whose form or evaluation overflows goes
   through [A.ceil_int] / [A.floor_int].  The outer coordinates are in
   [ws.prefix] (zero past those fixed) and the work so far in [ws.work]. *)
exception Too_many

let bound_slow (ws : Ws.t) ~dim i ~ceil =
  let f = bound_affine ws ~dim i in
  if ceil then A.ceil_int f ws.prefix else A.floor_int f ws.prefix

let bound_at (ws : Ws.t) ~dim i ~ceil =
  let den = ws.bcden.(i) in
  if den = 0 then bound_slow ws ~dim i ~ceil
  else
    match scaled_eval ws.bsc (i * (dim + 1)) dim ws.prefix 0 0 with
    | s ->
        if ceil then if s mod den > 0 then (s / den) + 1 else s / den
        else if s mod den < 0 then (s / den) - 1
        else s / den
    | exception Rat.Overflow -> bound_slow ws ~dim i ~ceil

let rec count_from (ws : Ws.t) ~dim ~limit ~max_work d =
  if d = dim then 1
  else begin
    let lo = bound_at ws ~dim (2 * d) ~ceil:true in
    let hi = bound_at ws ~dim ((2 * d) + 1) ~ceil:false in
    (* bound the sheer iteration count too: extrapolated bounds on
       prefixes absent from the data can span huge empty ranges *)
    if hi - lo > limit then raise_notrace Too_many;
    if d = dim - 1 then begin
      (* the innermost row in closed form: the work and the count only
         grow along it, so checking both once after the row raises
         exactly when a per-point loop would (a row too long for an int
         comes out non-positive) *)
      if hi < lo then 0
      else begin
        let row = hi - lo + 1 in
        if row <= 0 || row > max_work - ws.work || row > limit then raise_notrace Too_many;
        ws.work <- ws.work + row;
        row
      end
    end
    else begin
      let total = ref 0 in
      for v = lo to hi do
        ws.work <- ws.work + 1;
        if ws.work > max_work then raise_notrace Too_many;
        ws.prefix.(d) <- v;
        total := !total + count_from ws ~dim ~limit ~max_work (d + 1);
        if !total > limit then raise_notrace Too_many
      done;
      ws.prefix.(d) <- 0;
      !total
    end
  end

let implied_count_ws (ws : Ws.t) ~dim ~limit =
  let w = dim + 1 in
  for i = 0 to (2 * dim) - 1 do
    ws.bcden.(i) <- (try int_form ws.bnum ws.bden ws.bsc (i * w) dim with Rat.Overflow -> 0)
  done;
  for d = 0 to dim - 1 do
    ws.prefix.(d) <- 0
  done;
  ws.work <- 0;
  try count_from ws ~dim ~limit ~max_work:(4 * (limit + dim + 1)) 0 with Too_many -> -1

(* [nest] into the nest slots of [ws] *)
let load_nest (ws : Ws.t) (nest : nest) =
  let dim = Array.length nest in
  Ws.reserve_bounds ws dim;
  let load i (f : A.t) =
    if A.dim f <> dim then invalid_arg "Fold: a bound of another dimension";
    for k = 0 to dim do
      let c = if k = dim then f.const else f.coeffs.(k) in
      ws.bnum.((i * (dim + 1)) + k) <- c.num;
      ws.bden.((i * (dim + 1)) + k) <- c.den
    done
  in
  Array.iteri
    (fun d (lo, hi) ->
      load (2 * d) lo;
      load ((2 * d) + 1) hi)
    nest

let implied_count (nest : nest) ~limit =
  let ws = Ws.create () in
  load_nest ws nest;
  let c = implied_count_ws ws ~dim:(Array.length nest) ~limit in
  if c < 0 then None else Some c

(* Constraint [i] of the nest in the nest slots of [ws]: [c_d - lo_d >=
   0] ([i = 2d]) or [hi_d - c_d >= 0] ([i = 2d + 1]) cleared of
   denominators, into [ws.knum.(0 .. dim)] (the constant last).  The
   arithmetic is that of [Cstr.of_affine Ge (A.sub ..)], checked step for
   step, without their records: [A.sub] negates every fraction of the subtrahend ([Rat.neg])
   and adds it to the other side's ([Rat.add]; one side's denominator is
   1), and [Cstr.of_affine] multiplies every fraction by the lcm [l] of
   the denominators ([Rat.lcm], [Rat.mul]), which leaves the integer
   [l * num / den].  So it raises [Rat.Overflow] exactly where they do:
   writing a nest down can overflow where its fits did not, since those
   fell back to [Rat]. *)
let nest_constraint (ws : Ws.t) ~dim i =
  let d = i / 2 and o = i * (dim + 1) in
  for k = 0 to dim do
    let bn = ws.bnum.(o + k) and bd = ws.bden.(o + k) in
    (* the coefficient of [c_d] in [c_d] ([k = dim]: the constant), over [bd] *)
    let v = if k = d then bd else 0 in
    let n = if i land 1 = 0 then int_add v (Rat.int_neg bn) else int_add bn (-v) in
    let g = gcd n bd in
    ws.knum.(k) <- n / g;
    ws.kden.(k) <- bd / g
  done;
  let l = ref ws.kden.(dim) in
  for k = 0 to dim - 1 do
    l := Rat.lcm !l ws.kden.(k)
  done;
  let l = if !l = 0 then 1 else !l in
  for k = 0 to dim do
    ws.knum.(k) <- int_mul l ws.knum.(k) / ws.kden.(k)
  done

(* Raise [Rat.Overflow] where [nest_dom] does, building nothing *)
let check_nest (ws : Ws.t) ~dim =
  for i = 0 to (2 * dim) - 1 do
    nest_constraint ws ~dim i
  done

let nest_cstr (ws : Ws.t) ~dim i =
  nest_constraint ws ~dim i;
  Cstr.make Ge (Array.sub ws.knum 0 dim) ws.knum.(dim)

(* The nest in the nest slots of [ws] as a polyhedron: per dim its lower
   and upper constraint, the outer dims last. *)
let nest_dom (ws : Ws.t) ~dim =
  let cons = ref [] in
  for d = 0 to dim - 1 do
    let lo = nest_cstr ws ~dim (2 * d) in
    cons := lo :: nest_cstr ws ~dim ((2 * d) + 1) :: !cons
  done;
  P.make dim !cons

let nest_polyhedron (nest : nest) =
  let ws = Ws.create () in
  load_nest ws nest;
  nest_dom ws ~dim:(Array.length nest)

(* ------------------------------------------------------------------ *)
(* Split search state                                                   *)
(* ------------------------------------------------------------------ *)

(* A stream that did not fit as one piece is searched for pieces among
   parts of it.  A part is a list of run slices in stream order, flat in
   an int array: the triple [(j, f, l)] stands for the points [f .. f + l
   - 1] of run [j].  The list is canonical (two slices of one run that
   touch are one slice), so two parts hold the same points exactly when
   their lists are equal.  Each candidate part is encoded from the
   stream's runs into the workspace's scratch stream [out] and fitted
   there; the stream is never decoded.  The search asks only whether a
   part fits (a verdict), and builds a piece for a part it keeps, by
   fitting it again: fits are pure. *)

let obs_slices =
  Obs.Metrics.counter ~help:"run slices appended to encode the split search's parts and refitted parts"
    "fold.search_slices"

let obs_dropped =
  Obs.Metrics.counter ~help:"pieces the split search built and did not return" "fold.search_dropped"

(* [ws] encodes parts of [r] into [ws.out] *)
let start_encoding (ws : Ws.t) (r : Runs.t) =
  ws.sr <- r;
  Runs.reshape ws.out ~dim:r.dim ~label_dim:r.label_dim ~max_runs:r.npoints;
  ws.pt <- Ws.grow ws.pt r.dim;
  ws.lab <- Ws.grow ws.lab r.label_dim

(* [ws] searches [r]: [starts.(j)] is the index of run [j]'s first point
   ([starts.(nruns) = npoints]); [ids.(d * nruns + j)] is run [j]'s group
   in [group_prefix] of [r] at [d], and [nids.(d)] the number of groups,
   both filled when first needed ([nids.(d) < 0] before). *)
let start_search (ws : Ws.t) (r : Runs.t) =
  start_encoding ws r;
  ws.starts <- Ws.grow ws.starts (r.nruns + 1);
  ws.starts.(0) <- 0;
  for j = 0 to r.nruns - 1 do
    ws.starts.(j + 1) <- ws.starts.(j) + Runs.run_len r j
  done;
  ws.ids <- Ws.grow ws.ids (r.dim * r.nruns);
  ws.nids <- Ws.grow ws.nids r.dim;
  for d = 0 to r.dim - 1 do
    ws.nids.(d) <- -1
  done

(* Append points [f .. f + l - 1] of run [j] of [ws.sr] to [ws.out], as
   pushing them one at a time would.  Each point goes through
   [Runs.push] (it may extend or break the last run) until two points of
   the slice share a run of [out]: that run's step is then the source
   run's, and the rest of the slice extends it, since the source run is
   an exact progression and nothing in it wraps.  [ws.src.(q)] is the run
   of [sr] that run [q] of [out] starts in. *)
let append (ws : Ws.t) j f l =
  let r = ws.sr and out = ws.out in
  let b = j * r.stride in
  let t = ref f and settled = ref false in
  while (not !settled) && !t < f + l do
    for k = 0 to r.dim - 1 do
      ws.pt.(k) <- r.buf.(b + k)
    done;
    if r.dim > 0 then ws.pt.(r.dim - 1) <- ws.pt.(r.dim - 1) + !t;
    for k = 0 to r.label_dim - 1 do
      ws.lab.(k) <- Runs.label r j !t k
    done;
    let nruns = out.nruns in
    Runs.push out ws.pt ws.lab;
    if out.nruns > nruns then begin
      ws.src <- Ws.grow_keep ws.src (nruns + 1) nruns;
      ws.src.(nruns) <- j
    end
    else settled := !t > f;
    incr t
  done;
  if !t < f + l then Runs.extend out (f + l - !t) r j (f + l - 1)

(* [ws.out] becomes the part [part] *)
let encode (ws : Ws.t) part =
  Runs.clear ws.out;
  for i = 0 to (Array.length part / 3) - 1 do
    append ws part.(3 * i) part.((3 * i) + 1) part.((3 * i) + 2)
  done;
  Obs.Metrics.add obs_slices (Array.length part / 3)

(* the offset of the stream's group ids at [d] in [ws.ids] *)
let stream_ids (ws : Ws.t) d =
  let r = ws.sr in
  if ws.nids.(d) < 0 then begin
    group_prefix ws r d;
    for j = 0 to r.nruns - 1 do
      ws.ids.((d * r.nruns) + j) <- ws.group.(j)
    done;
    ws.nids.(d) <- ws.ngroups
  end;
  Ws.reserve_slots ws ws.nids.(d);
  d * r.nruns

(* [group_prefix] of the encoded part [ws.out] at [d]: a run of the part
   has the prefix of the stream run it starts in, so the stream's groups
   stand for the prefixes ([slots] maps them to the part's groups) and
   no prefix is hashed or compared. *)
let group_part (ws : Ws.t) d =
  let ids = stream_ids ws d and out = ws.out in
  ws.group <- Ws.grow ws.group out.nruns;
  let inner = if d = out.dim - 1 then 1 else 0 in
  let ng = ref 0 in
  for q = 0 to out.nruns - 1 do
    let v = out.buf.((q * out.stride) + d) in
    ng := join_group ws !ng q ws.ids.(ids + ws.src.(q)) v (v + (inner * (Runs.run_len out q - 1)))
  done;
  close_groups ws !ng

(* ------------------------------------------------------------------ *)
(* Segment fits                                                         *)
(* ------------------------------------------------------------------ *)

(* The nest of [r], into the nest slots of [ws]: per dim, affine bounds
   over the outer coordinates that hold the min and max of every prefix
   group.  [r] is grouped by [group_part] when it is the encoded part
   ([part]), else by [group_prefix]. *)
let rec fit_nest_from ~part (ws : Ws.t) (r : Runs.t) d =
  d = r.dim
  || begin
       if part then group_part ws d else group_prefix ws r d;
       fit_bound ws r d (2 * d) && fit_bound ws r d ((2 * d) + 1) && fit_nest_from ~part ws r (d + 1)
     end

let fit_nest ~part (ws : Ws.t) (r : Runs.t) =
  Ws.reserve_bounds ws r.dim;
  fit_nest_from ~part ws r 0

(* Whether the points of [r] make one exact domain: a single point when
   [dim = 0] (a single execution in a scalar context: several executions
   of a 0-dimensional statement cannot be folded exactly), else exactly
   the integer points of one nest.  Every point lies in the nest (each
   bound was verified against the min / max of every prefix group), so
   the nest is exact iff it holds no other integer point.  The nest is
   then in [ws]. *)
let domain_exact ~part (ws : Ws.t) (r : Runs.t) =
  let n = r.npoints in
  n > 0
  && if r.dim = 0 then n = 1
     else fit_nest ~part ws r && implied_count_ws ws ~dim:r.dim ~limit:n = n

(* The labels of [fit_segment]'s piece of [r]: every component as a
   function of the whole point, or the one point's constants when
   [dim = 0]. *)
let fit_labels ws (r : Runs.t) =
  if r.dim = 0 then
    Array.init r.label_dim (fun k -> Some (A.const ~dim:0 (Rat.of_int (Runs.label r 0 0 k))))
  else Array.init r.label_dim (fit_label ws r)

(* Exact fit of a whole stream: affine-bounded nest + affine labels.
   With [strict:false] individual label components may come out as
   top. *)
let fit_segment ~strict ~part (ws : Ws.t) (r : Runs.t) : piece option =
  if not (domain_exact ~part ws r) then None
  else begin
    let lfs = fit_labels ws r in
    if strict && not (Array.for_all Option.is_some lfs) then None
    else begin
      ws.built <- ws.built + 1;
      let dom = if r.dim = 0 then P.universe 0 else nest_dom ws ~dim:r.dim in
      Some { dom; labels = lfs; exact = true; points = r.npoints; under = None }
    end
  end

(* Whether [fit_segment] returns a piece, answered with the same fits
   and nothing built: every label component is fitted even after one
   missed, and the nest is checked where the piece would write it down,
   so the verdict raises exactly where [fit_segment] does. *)
let segment_fits ~strict ~part (ws : Ws.t) (r : Runs.t) =
  domain_exact ~part ws r
  && (r.dim = 0
     || begin
          let all = ref true in
          for k = 0 to r.label_dim - 1 do
            if not (label_fits ws r Label k) then all := false
          done;
          (!all || not strict)
          && begin
               check_nest ws ~dim:r.dim;
               true
             end
        end)

(* ------------------------------------------------------------------ *)
(* Split search                                                         *)
(* ------------------------------------------------------------------ *)

(* the run holding point [i]: the last [j] with [starts.(j) <= i] *)
let run_of (ws : Ws.t) i =
  let lo = ref 0 and hi = ref (ws.sr.nruns - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if ws.starts.(mid) <= i then lo := mid else hi := mid - 1
  done;
  !lo

(* The points [i .. i + len - 1] ([len > 0]) are runs [j0 .. j1]
   ([run_of] of the ends): of run [j], the slice from [range_first] to
   before [range_stop]. *)
let range_first (ws : Ws.t) i j0 j = if j = j0 then i - ws.starts.(j) else 0

let range_stop (ws : Ws.t) i len j1 j =
  if j = j1 then i + len - ws.starts.(j) else Runs.run_len ws.sr j

(* [ws.out] becomes the points [i .. i + len - 1] *)
let encode_range (ws : Ws.t) i len =
  let j0 = run_of ws i and j1 = run_of ws (i + len - 1) in
  Runs.clear ws.out;
  for j = j0 to j1 do
    let f = range_first ws i j0 j in
    append ws j f (range_stop ws i len j1 j - f)
  done;
  Obs.Metrics.add obs_slices (j1 - j0 + 1)

let range_fits ~strict (ws : Ws.t) i len =
  encode_range ws i len;
  segment_fits ~strict ~part:true ws ws.out

(* the points [i .. i + len - 1] as a part *)
let range_part (ws : Ws.t) i len =
  if len = 0 then [||]
  else begin
    let j0 = run_of ws i and j1 = run_of ws (i + len - 1) in
    let part = Array.make (3 * (j1 - j0 + 1)) 0 in
    for j = j0 to j1 do
      let o = 3 * (j - j0) and f = range_first ws i j0 j in
      part.(o) <- j;
      part.(o + 1) <- f;
      part.(o + 2) <- range_stop ws i len j1 j - f
    done;
    part
  end

(* the min and max of each coordinate over the points of [r] ([npoints >
   0]), from the run endpoints *)
let run_bounds (r : Runs.t) =
  let lo = Array.sub r.buf 0 r.dim in
  let hi = Array.copy lo in
  for j = 0 to r.nruns - 1 do
    let b = j * r.stride in
    for k = 0 to r.dim - 1 do
      let v = r.buf.(b + k) in
      let top = if k = r.dim - 1 then v + Runs.run_len r j - 1 else v in
      if v < lo.(k) then lo.(k) <- v;
      if top > hi.(k) then hi.(k) <- top
    done
  done;
  (lo, hi)

(* the longest prefix of [ws.sr] twice [len] long or longer, doubling,
   that fits with [strict:false], or [best] *)
let rec longest_prefix (ws : Ws.t) n len best =
  if 2 * len > n then best
  else if range_fits ~strict:false ws 0 (2 * len) then longest_prefix ws n (2 * len) (2 * len)
  else best

let box_piece (ws : Ws.t) =
  let r = ws.sr in
  let dim = r.dim and n = r.npoints in
  let dom =
    if n = 0 then P.empty dim
    else
      let lo, hi = run_bounds r in
      Minisl.Hull.box_of_bounds lo hi
  in
  let lfs = Array.init r.label_dim (fit_points ws r) in
  (* under-approximation: the longest exactly-foldable prefix of the
     stream, doubling from one point, certifies an inner region that is
     definitely iterated *)
  let under =
    if dim = 0 || n < 2 then None
    else
      match longest_prefix ws n 1 0 with
      | 0 ->
          (* a single point certifies nothing, but it is still fitted:
             what that raises, the stream raises *)
          ignore (range_fits ~strict:false ws 0 1);
          None
      | best ->
          (* its domain is its nest, fitted again *)
          encode_range ws 0 best;
          if not (fit_nest ~part:true ws ws.out) then assert false;
          Some (nest_dom ws ~dim)
  in
  ws.built <- ws.built + 1;
  { dom; labels = lfs; exact = false; points = n; under }

(* the slice [(j, f, l)] onto the boundary half or the rest *)
let put_slice (ws : Ws.t) ~boundary j f l =
  if boundary then begin
    ws.bnd.(ws.nb) <- j;
    ws.bnd.(ws.nb + 1) <- f;
    ws.bnd.(ws.nb + 2) <- l;
    ws.nb <- ws.nb + 3
  end
  else begin
    ws.rst.(ws.nr) <- j;
    ws.rst.(ws.nr + 1) <- f;
    ws.rst.(ws.nr + 2) <- l;
    ws.nr <- ws.nr + 3
  end

(* Split a part of the stream by a per-dimension boundary predicate:
   points at the first ([last:false]) or the last iteration of dim [d]
   (within their prefix) versus the rest.  This captures the classic
   boundary pieces of dependence relations — e.g. a reduction whose first
   inner iteration reads the previous outer iteration's result (paper
   Table 2: the I4->I4 dependence holds on ck >= 1 only).  Both halves
   keep their order and go to [ws.bnd] and [ws.rst] ([ws.nb] and [ws.nr]
   ints).  The part's slices are grouped by the stream's prefix groups,
   with the range of coordinate [d] read off their endpoints, and
   classified without encoding: along a slice only the innermost
   coordinate moves, so a slice is on the boundary as a whole for an
   outer [d], and in at most its first (or last) point for the
   innermost. *)
let split_boundary (ws : Ws.t) part d ~last =
  let ids = stream_ids ws d and r = ws.sr in
  let ns = Array.length part / 3 in
  ws.group <- Ws.grow ws.group ns;
  let inner = d = r.dim - 1 in
  let ng = ref 0 in
  for i = 0 to ns - 1 do
    let j = part.(3 * i) and f = part.((3 * i) + 1) and l = part.((3 * i) + 2) in
    let v = r.buf.((j * r.stride) + d) + if inner then f else 0 in
    ng := join_group ws !ng i ws.ids.(ids + j) v (if inner then v + l - 1 else v)
  done;
  close_groups ws !ng;
  let extreme = if last then ws.hi else ws.lo in
  ws.bnd <- Ws.grow ws.bnd (3 * ns);
  ws.rst <- Ws.grow ws.rst (3 * ns);
  ws.nb <- 0;
  ws.nr <- 0;
  for i = 0 to ns - 1 do
    let j = part.(3 * i) and f = part.((3 * i) + 1) and l = part.((3 * i) + 2) in
    let ext = extreme.(ws.group.(i)) and v = r.buf.((j * r.stride) + d) in
    if not inner then put_slice ws ~boundary:(v = ext) j f l
    else begin
      (* the one point of the slice that can reach the extreme *)
      let t = if last then l - 1 else 0 in
      if v + f + t <> ext then put_slice ws ~boundary:false j f l
      else begin
        put_slice ws ~boundary:true j (f + t) 1;
        if l > 1 then put_slice ws ~boundary:false j (if last then f else f + 1) (l - 1)
      end
    end
  done

(* Whether [part] fits, remembered by its slices: different split paths
   reach the same part. *)
let part_fits (ws : Ws.t) part =
  let key = { Key.head = [||]; body = part; len = Array.length part; rel = Key.plain } in
  match Key_tbl.find ws.parts key with
  | v -> v
  | exception Not_found ->
      encode ws part;
      let v = segment_fits ~strict:true ~part:true ws ws.out in
      Key_tbl.add ws.parts key v;
      v

let keep (ws : Ws.t) part =
  if ws.nkept = Array.length ws.kept then begin
    let k = Array.make (max 8 (2 * ws.nkept)) [||] in
    Array.blit ws.kept 0 k 0 ws.nkept;
    ws.kept <- k
  end;
  ws.kept.(ws.nkept) <- part;
  ws.nkept <- ws.nkept + 1

(* Recursive boundary splitting, innermost dimension first, with a small
   budget (up to 4 pieces): whether [part] fits, or splits into parts that
   do, each kept in [ws.kept] in stream order. *)
let rec fits_with_splits (ws : Ws.t) part budget =
  if part_fits ws part then begin
    keep ws part;
    true
  end
  else budget > 0 && split_from ws part budget (ws.sr.dim - 1) ~last:false

(* [part] split at the first iterations of dims [d], [d - 1], ..., then
   at the last iterations of every dim, until both halves of a split fit
   with splits of their own *)
and split_from (ws : Ws.t) part budget d ~last =
  if d < 0 then (not last) && split_from ws part budget (ws.sr.dim - 1) ~last:true
  else begin
    split_boundary ws part d ~last;
    if ws.nb = 0 || ws.nr = 0 then split_from ws part budget (d - 1) ~last
    else begin
      let nkept = ws.nkept in
      fits_with_splits ws (Array.sub ws.bnd 0 ws.nb) (budget - 1)
      && begin
           (* the rest, split again: the boundary's search reused the
              buffers *)
           split_boundary ws part d ~last;
           fits_with_splits ws (Array.sub ws.rst 0 ws.nr) (budget - 1)
         end
      || begin
           ws.nkept <- nkept;
           split_from ws part budget (d - 1) ~last
         end
    end
  end

(* whether the points [i .. i + len - 1] fit, looked up among the
   lengths tried from [i] ([ws.tried.(len)] holds the verdict stamped
   with [ws.stamp]) *)
let segment_from (ws : Ws.t) i len =
  let v = ws.tried.(len) in
  if v lsr 1 = ws.stamp then v land 1 = 1
  else begin
    let fits = range_fits ~strict:true ws i len in
    ws.tried.(len) <- (ws.stamp lsl 1) lor Bool.to_int fits;
    fits
  end

(* The length of the greedy segment from [i], grown by doubling + binary
   search; fits are not monotone (a partial inner row can fail where the
   next full row succeeds), so the expansion is retried from each new
   best until it stops improving. *)
let greedy_segment (ws : Ws.t) i n =
  ws.stamp <- ws.stamp + 1;
  let best = ref 1 and improved = ref true in
  while !improved do
    improved := false;
    let len = ref !best in
    while i + (2 * !len) <= n && segment_from ws i (2 * !len) do
      len := 2 * !len
    done;
    let lo = ref !len and hi = ref (min (2 * !len) (n - i)) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if segment_from ws i mid then lo := mid else hi := mid - 1
    done;
    if !lo > !best then begin
      best := !lo;
      improved := true
    end
  done;
  !best

(* Where a piece of a stream came from: the part of the stream its
   domain was fitted on, and so which points its labels were fitted on.
   [Whole]: [fit_segment] on the whole stream, strict or not (the labels
   are fitted alike); [Part slices]: [fit_segment] on those points, a
   greedy segment or a boundary-split part; [Box]: [box_piece], whose
   labels [fit_points] fitted on every point. *)
type origin =
  | Whole
  | Part of int array
  | Box

(* The piece of a part the search keeps, encoded and fitted again: it
   fits *)
let part_piece (ws : Ws.t) part =
  encode ws part;
  match fit_segment ~strict:true ~part:true ws ws.out with
  | Some p -> (p, Part part)
  | None -> assert false

(* the pieces of the boundary phase's kept parts [0 .. k], before [acc] *)
let rec kept_pieces (ws : Ws.t) k acc =
  if k < 0 then acc else kept_pieces ws (k - 1) (part_piece ws ws.kept.(k) :: acc)

(* the pieces of the greedy segments [0 .. k], before [acc] *)
let rec segment_pieces (ws : Ws.t) k acc =
  if k < 0 then acc
  else
    let part = range_part ws ws.segs.(2 * k) ws.segs.((2 * k) + 1) in
    segment_pieces ws (k - 1) (part_piece ws part :: acc)

(* The piece list of a stream [r] that [fit_segment] could not fit
   whole, each piece with its origin: boundary splits, then greedy
   segmentation, then per-component label over-approximation or a box.
   Every phase decides on verdicts, and a piece is built once, for a
   part the search returns. *)
let fold_split ~boundary_splits ~max_pieces (ws : Ws.t) (r : Runs.t) =
  let dim = r.dim and n = r.npoints and built = ws.built in
  start_search ws r;
  ws.nkept <- 0;
  let split =
    dim > 0 && boundary_splits && split_from ws (range_part ws 0 n) 2 (dim - 1) ~last:false
  in
  (* the boundary phase is over: drop its verdicts *)
  Key_tbl.clear ws.parts;
  let pieces =
    if split then kept_pieces ws (ws.nkept - 1) []
    else begin
      (* greedy segmentation, each segment's start and length in [segs] *)
      ws.tried <- Ws.grow ws.tried (n + 1);
      let nseg = ref 0 and i = ref 0 in
      while !i < n && !nseg <= max_pieces do
        let len = greedy_segment ws !i n in
        (* fitted already unless [len = 1] was never tried *)
        if not (segment_from ws !i len) then assert false;
        ws.segs <- Ws.grow_keep ws.segs ((2 * !nseg) + 2) (2 * !nseg);
        ws.segs.(2 * !nseg) <- !i;
        ws.segs.((2 * !nseg) + 1) <- len;
        incr nseg;
        i := !i + len
      done;
      if !nseg > max_pieces then
        (* before giving up the domain, try the whole stream with
           per-component label over-approximation: an exact domain
           whose irregular label components are top *)
        match fit_segment ~strict:false ~part:false ws r with
        | Some p -> [ (p, Whole) ]
        | None -> [ (box_piece ws, Box) ]
      else segment_pieces ws (!nseg - 1) []
    end
  in
  (* let go of the parts the boundary phase kept, also in splits that failed *)
  Array.fill ws.kept 0 (Array.length ws.kept) [||];
  Obs.Metrics.add obs_dropped (ws.built - built - List.length pieces);
  pieces

(* [ps], the pieces of a stream with these [origins], with their labels
   fitted again on the labels of [r], the same points with other labels:
   each label fit runs as the fold ran it, on the same part of [r]. *)
let refit (ws : Ws.t) (r : Runs.t) ps origins =
  start_encoding ws r;
  let refit_one (p : piece) = function
    | Whole -> { p with labels = fit_labels ws r }
    | Part part ->
        encode ws part;
        { p with labels = fit_labels ws ws.out }
    | Box -> { p with labels = Array.init r.label_dim (fit_points ws r) }
  in
  List.map2 refit_one ps origins

(* ------------------------------------------------------------------ *)
(* Streaming collector                                                  *)
(* ------------------------------------------------------------------ *)

module Collector = struct
  let obs_points = Obs.Metrics.counter ~help:"dependence points folded into polyhedral pieces" "fold.points"
  let obs_pieces = Obs.Metrics.counter ~help:"polyhedral pieces produced by folding" "fold.pieces"
  let obs_approx = Obs.Metrics.counter ~help:"collectors that overflowed their cap into approx mode" "fold.approx_spills"
  let obs_runs = Obs.Metrics.counter ~help:"runs the collectors held when they stopped buffering" "fold.runs"
  let obs_decoded = Obs.Metrics.counter ~help:"points a cap spill read back one by one from its runs" "fold.decoded_points"
  let obs_shared = Obs.Metrics.counter ~help:"collectors answered from the stream table, equal or shifted" "fold.shared"
  let obs_shifted = Obs.Metrics.counter ~help:"stream-table answers whose labels were refitted under a nonzero shift" "fold.shifted"
  let obs_collector_points = Obs.Metrics.histogram ~help:"points per folded collector" "fold.collector_points"

  type approx_state = {
    mutable lo : int array;
    mutable hi : int array;
    mutable labels : A.t option array;  (* still-valid incremental fits *)
    spill_runs : int;  (* runs held when the cap was reached *)
    spill_points : int;  (* points held then *)
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

  let switch_to_approx t (r : Runs.t) =
    let lo, hi = run_bounds r in
    (* outside [finalize]: no stream table, so a workspace of its own *)
    let lfs = Array.init t.label_dim (fit_points (Ws.create ()) r) in
    t.mode <- Approx { lo; hi; labels = lfs; spill_runs = r.nruns; spill_points = r.npoints }

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

  (* The points of a stream several collectors share, appended once for
     all of them: a label-less stream, with whether its last point
     continued the run before it. *)
  type domain = {
    runs : Runs.t;
    mutable cont : bool;
    mutable by_coords : int array;
        (* the [By_coords] runs of all its points, once a final fill
           built them: the fills after it share them *)
  }

  let domain ~dim ~cap =
    { runs = Runs.create ~dim ~label_dim:0 ~max_runs:cap ~size:0; cont = false; by_coords = [||] }

  let domain_points d = d.runs.npoints

  let extend d coords =
    let cont = Runs.coords_continue d.runs coords in
    d.cont <- cont;
    Runs.append d.runs ~cont coords [||]

  let one_label = [| 0 |]

  (* [add t coords [| v |]] where [t] holds the points of [d] before its
     last one, [coords]: the point continues [t]'s last run when it
     continues [d]'s and [v] continues the run's labels
     ([Runs.labels_continue] and [Runs.append] on one label, inline). *)
  let label t d coords v =
    assert (t.label_dim = 1 && t.n = d.runs.npoints - 1);
    t.n <- t.n + 1;
    match t.mode with
    | Approx _ -> invalid_arg "Fold.Collector.label: the collector spilled"
    | Buffering r ->
        (* the last run's length, first label, step and last label *)
        let buf = r.buf and b = ((r.nruns - 1) * r.stride) + r.dim in
        let cont =
          d.cont
          &&
          let l0 = buf.(b + 1) in
          if buf.(b) = 1 then (v lxor l0) land (v lxor (v - l0)) >= 0
          else
            let step = buf.(b + 2) and last = buf.(b + 3) in
            let next = last + step in
            next = v && (last lxor next) land (step lxor next) >= 0
        in
        if cont then begin
          let len = buf.(b) in
          buf.(b) <- len + 1;
          if len = 1 then buf.(b + 2) <- v - buf.(b + 1);
          buf.(b + 3) <- v;
          r.npoints <- r.npoints + 1
        end
        else begin
          one_label.(0) <- v;
          Runs.append r ~cont:false coords one_label
        end;
        if t.n >= t.cap then switch_to_approx t r

  type points = Unlabelled | By_coords

  (* The runs [add] would have built from the first [n] points of [d],
     labelled as [src] says: one run per domain run, since a point
     labelled by its coordinates continues its run exactly when the
     point does. *)
  let fill_runs t d src n =
    let r = d.runs and dim = t.dim and ld = t.label_dim in
    let stride = dim + 1 + (3 * ld) in
    let nr = ref 0 and seen = ref 0 in
    while !seen < n do
      seen := !seen + Runs.run_len r !nr;
      incr nr
    done;
    let buf = Array.make (!nr * stride) 0 in
    let seen = ref 0 in
    for j = 0 to !nr - 1 do
      let len = min (Runs.run_len r j) (n - !seen) in
      seen := !seen + len;
      let b = j * r.stride and o = j * stride in
      for k = 0 to dim - 1 do
        buf.(o + k) <- r.buf.(b + k)
      done;
      buf.(o + dim) <- len;
      match src with
      | Unlabelled -> ()
      | By_coords ->
          for k = 0 to dim - 1 do
            let c = buf.(o + k) in
            let step = if k = dim - 1 && len > 1 then 1 else 0 in
            buf.(o + dim + 1 + k) <- c;
            buf.(o + dim + 1 + dim + k) <- step;
            buf.(o + dim + 1 + (2 * dim) + k) <- c + ((len - 1) * step)
          done
    done;
    (buf, !nr)

  let fill ~final t d src n =
    assert (t.n = 0 && n <= domain_points d && n <= max 1 t.cap && d.runs.dim = t.dim);
    assert (t.label_dim = match src with Unlabelled -> 0 | By_coords -> t.dim);
    match t.mode with
    | Approx _ -> invalid_arg "Fold.Collector.fill: the collector is not empty"
    | Buffering r ->
        if n > 0 then begin
          let buf, nr =
            if final && n = domain_points d then begin
              match src with
              | Unlabelled -> (d.runs.buf, d.runs.nruns)
              | By_coords ->
                  if d.by_coords == [||] then d.by_coords <- fst (fill_runs t d src n);
                  (d.by_coords, d.runs.nruns)
            end
            else fill_runs t d src n
          in
          r.buf <- buf;
          r.nruns <- nr;
          r.npoints <- n;
          t.n <- n;
          if n >= t.cap then switch_to_approx t r
        end

  (* The raw pieces (before the [per_component] ablation) of every
     buffered stream folded so far, with their origins, keyed on the
     folding options that shape them and on the stream's runs, in the
     collector's own buffer, each label read relative to the stream's
     first label.  [dim] and [label_dim] belong to the key: different
     layouts can have the same stride and the same buffer.  [src] is the
     buffer of the stream the pieces were fitted for (the key's slice).
     [ws] is the workspace every fold of the table runs in. *)
  type entry = { src : int array; pieces : piece list; origins : origin list }
  type shared = { streams : entry Key_tbl.t; ws : Ws.t }

  let shared () = { streams = Key_tbl.create 64; ws = Ws.create () }

  type source = Folded | Shared | Shifted

  let check = ref None
  let set_check f = check := f

  let buffered_runs t =
    match (t.mode, t.finalized) with
    | Buffering r, None -> Some (Runs.contents r)
    | _ -> None

  (* Whether every start and last label of the runs of layout [r] in
     [buf] lies within [±2^40]: the magnitude guard of a shifted answer
     (DESIGN.md, stream table). *)
  let labels_small (r : Runs.t) buf =
    let bound = 1 lsl 40 and ld = r.label_dim in
    let small = ref true and j = ref 0 in
    while !small && !j < r.nruns do
      let l = (!j * r.stride) + r.dim + 1 in
      for k = 0 to ld - 1 do
        let a = buf.(l + k) and b = buf.(l + (2 * ld) + k) in
        if a > bound || a < -bound || b > bound || b < -bound then small := false
      done;
      incr j
    done;
    !small

  (* [r]'s pieces and where they came from *)
  let fold_buffered ~shared t (r : Runs.t) =
    let ld = t.label_dim and lofs = t.dim + 1 in
    (* start labels (offset [lofs]) and last labels ([lofs + 2 ld]) read
       relative to run 0's start label *)
    let rel = Array.make r.stride (-1) in
    for k = 0 to ld - 1 do
      rel.(lofs + k) <- lofs + k;
      rel.(lofs + (2 * ld) + k) <- lofs + k
    done;
    let key =
      { Key.head = [| t.dim; ld; t.max_pieces; Bool.to_int t.boundary_splits |];
        body = r.buf;
        len = r.nruns * r.stride;
        rel }
    in
    let unshifted e =
      let same = ref true in
      if r.nruns > 0 then
        for k = lofs to lofs + ld - 1 do
          if e.src.(k) <> r.buf.(k) then same := false
        done;
      !same
    in
    match Key_tbl.find_opt shared.streams key with
    | Some e when unshifted e -> (e.pieces, Shared)
    | Some e when labels_small r r.buf && labels_small r e.src ->
        let ps = refit shared.ws r e.pieces e.origins in
        (* the refitted stream is what its own fold would have left:
           its repeats become equal hits *)
        Key_tbl.replace shared.streams key { e with src = r.buf; pieces = ps };
        (ps, Shifted)
    | found ->
        let pieces, origins =
          match fit_segment ~strict:true ~part:false shared.ws r with
          | Some p -> ([ p ], [ Whole ])
          | None ->
              List.split
                (fold_split ~boundary_splits:t.boundary_splits ~max_pieces:t.max_pieces shared.ws r)
        in
        if Option.is_none found then Key_tbl.add shared.streams key { src = r.buf; pieces; origins };
        (pieces, Folded)

  let result ~shared t =
    match t.finalized with
    | Some ps -> ps
    | None ->
        let ps, runs, source, decoded =
          match t.mode with
          | Buffering r ->
              let ps, source = fold_buffered ~shared t r in
              (ps, r.nruns, Some source, 0)
          | Approx st ->
              ( [ { dom = Minisl.Hull.box_of_bounds st.lo st.hi;
                    labels = st.labels;
                    exact = false;
                    points = t.n;
                    under = None } ],
                st.spill_runs,
                None,
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
        (match (t.mode, source) with
        | Buffering r, Some source ->
            Option.iter
              (fun f ->
                let points, labels = Runs.decode r in
                f source points labels ps)
              !check;
            (* the table keeps the buffer of a stream it holds *)
            Runs.clear r;
            r.buf <- [||]
        | _ -> ());
        t.finalized <- Some ps;
        if Obs.Registry.enabled () then begin
          Obs.Metrics.add obs_points t.n;
          Obs.Metrics.observe obs_collector_points t.n;
          Obs.Metrics.add obs_pieces (List.length ps);
          Obs.Metrics.add obs_runs runs;
          Obs.Metrics.add obs_decoded decoded;
          Obs.Metrics.add obs_shared (Bool.to_int (source = Some Shared || source = Some Shifted));
          Obs.Metrics.add obs_shifted (Bool.to_int (source = Some Shifted));
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

let encode_slices r part =
  let ws = Ws.create () in
  start_encoding ws r;
  encode ws part;
  ws.out

let part_groups ws (r : Runs.t) part d =
  start_search ws r;
  encode ws part;
  group_part ws d;
  groups ws ws.out.nruns
