module A = Minisl.Affine
module P = Minisl.Polyhedron
module Rat = Pp_util.Rat

type dir = Dzero | Dpos | Dneg | Dnonneg | Dnonpos | Dany

let pp_dir fmt d =
  Format.pp_print_string fmt
    (match d with
    | Dzero -> "0"
    | Dpos -> "+"
    | Dneg -> "-"
    | Dnonneg -> "0+"
    | Dnonpos -> "0-"
    | Dany -> "*")

let dir_can_be_zero = function
  | Dzero | Dnonneg | Dnonpos | Dany -> true
  | Dpos | Dneg -> false

let dir_can_be_nonzero = function
  | Dzero -> false
  | Dpos | Dneg | Dnonneg | Dnonpos | Dany -> true

let dir_can_be_negative = function
  | Dneg | Dnonpos | Dany -> true
  | Dzero | Dpos | Dnonneg -> false

(* join in the direction lattice *)
let dir_join a b =
  if a = b then a
  else
    let can_neg = dir_can_be_negative a || dir_can_be_negative b in
    let can_zero = dir_can_be_zero a || dir_can_be_zero b in
    let can_pos d = match d with Dpos | Dnonneg | Dany -> true | Dzero | Dneg | Dnonpos -> false in
    let cp = can_pos a || can_pos b in
    match (can_neg, can_zero, cp) with
    | false, false, true -> Dpos
    | true, false, false -> Dneg
    | false, true, false -> Dzero
    | false, true, true -> Dnonneg
    | true, true, false -> Dnonpos
    | _ -> Dany

let dir_can_be_positive = function
  | Dpos | Dnonneg | Dany -> true
  | Dzero | Dneg | Dnonpos -> false

let dir_of_signs ~neg ~zero ~pos =
  match (neg, zero, pos) with
  | false, false, true -> Dpos
  | true, false, false -> Dneg
  | false, true, false -> Dzero
  | false, true, true -> Dnonneg
  | true, true, false -> Dnonpos
  | _ -> Dany

(* Interval arithmetic on sign abstractions, for composing direction
   vectors under affine schedule changes (skewing): the sign set of
   a + b given the sign sets of a and b. *)
let dir_add a b =
  let na = dir_can_be_negative a
  and za = dir_can_be_zero a
  and pa = dir_can_be_positive a in
  let nb = dir_can_be_negative b
  and zb = dir_can_be_zero b
  and pb = dir_can_be_positive b in
  dir_of_signs
    ~neg:(na || nb)
    ~zero:((za && zb) || (na && pb) || (pa && nb))
    ~pos:(pa || pb)

let dir_scale k d =
  if k = 0 then Dzero
  else if k > 0 then d
  else
    dir_of_signs ~neg:(dir_can_be_positive d) ~zero:(dir_can_be_zero d)
      ~pos:(dir_can_be_negative d)

type path = Ddg.Iiv.ctx_id list list

type stmt_ext = { si : Ddg.Depprof.stmt_info; spath : path }

type dep_ext = {
  di : Ddg.Depprof.dep_info;
  dsrc_path : path;
  ddst_path : path;
  common : int;
  dirs : dir array;
  dists : int option array;
  approx : bool;
}

type loop_info = {
  lpath : path;
  ldepth : int;
  parallel : bool;
  lweight : int;
  header_loc : Vm.Prog.loc option;
}

type band = { b_from : int; b_to : int; b_skews : (int * int * int) list }

type nest_info = {
  npath : path;
  ndepth : int;
  nstmts : stmt_ext list;
  nweight : int;
  bands : band list;
  nparallel : bool array;
}

type t = {
  stmts : stmt_ext list;
  deps : dep_ext list;
  loops : loop_info list;
  nests : nest_info list;
  total_ops : int;
}

let loop_dims_of_context (ctx : Ddg.Iiv.context) : path =
  match List.rev ctx with [] -> [] | _last :: dims_rev -> List.rev dims_rev

let stmt_path (si : Ddg.Depprof.stmt_info) =
  loop_dims_of_context (Ddg.Iiv.context_of_id si.sk.s_ctx)

(* context stacks compared element by element, without polymorphic
   equality *)
let rec same_stack (a : Ddg.Iiv.ctx_id list) (b : Ddg.Iiv.ctx_id list) =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys ->
      (match (x, y) with
      | Cblock (f, i), Cblock (g, j) | Cloop (f, i), Cloop (g, j) -> f = g && i = j
      | Ccomp c, Ccomp d -> c = d
      | _ -> false)
      && same_stack xs ys
  | _ -> false

let rec common_prefix_len a b =
  match (a, b) with
  | x :: xs, y :: ys when same_stack x y -> 1 + common_prefix_len xs ys
  | _ -> 0

let rec take n = function
  | [] -> []
  | x :: xs -> if n <= 0 then [] else x :: take (n - 1) xs

let rec is_prefix (p : path) (l : path) =
  match (p, l) with
  | [], _ -> true
  | x :: xs, y :: ys -> same_stack x y && is_prefix xs ys
  | _ :: _, [] -> false

(* Classify the sign of an affine expression over a polyhedron. *)
let classify_sign dom expr =
  let lo, hi = P.bounds dom expr in
  let const =
    match (lo, hi) with
    | Some l, Some h when Rat.equal l h && Rat.is_integer l ->
        Some (Rat.to_int_exn l)
    | _ -> None
  in
  let dir =
    match (lo, hi) with
    | Some l, Some h when Rat.is_zero l && Rat.is_zero h -> Dzero
    | Some l, _ when Rat.sign l > 0 -> Dpos
    | _, Some h when Rat.sign h < 0 -> Dneg
    | Some l, _ when Rat.sign l >= 0 -> Dnonneg
    | _, Some h when Rat.sign h <= 0 -> Dnonpos
    | _ -> Dany
  in
  (dir, const)

let analyse_dep (di : Ddg.Depprof.dep_info) ~src_path ~dst_path =
  let common = common_prefix_len src_path dst_path in
  let dirs = Array.make common Dzero in
  let dists = Array.make common None in
  let approx = ref false in
  let first = ref true in
  List.iter
    (fun (p : Fold.piece) ->
      let n = P.dim p.Fold.dom in
      if Array.exists Option.is_none p.Fold.labels then approx := true;
      for d = 0 to common - 1 do
        let dir, const =
          match
            if d < Array.length p.Fold.labels then p.Fold.labels.(d) else None
          with
          | Some out_d ->
              classify_sign p.Fold.dom (A.sub (A.var ~dim:n d) out_d)
          | None -> (Dany, None)
        in
        if !first then begin
          dirs.(d) <- dir;
          dists.(d) <- const
        end
        else begin
          dirs.(d) <- dir_join dirs.(d) dir;
          dists.(d) <-
            (match (dists.(d), const) with
            | Some a, Some b when a = b -> Some a
            | _ -> None)
        end
      done;
      first := false)
    di.Ddg.Depprof.d_pieces;
  if !first && common > 0 then begin
    (* no pieces at all: treat conservatively *)
    approx := true;
    Array.fill dirs 0 common Dany
  end;
  { di; dsrc_path = src_path; ddst_path = dst_path; common; dirs; dists;
    approx = !approx }

(* Can the dependence be loop-independent w.r.t. the first [p] dims? *)
let zeros_possible_before d dirs =
  let ok = ref true in
  for i = 0 to d - 2 do
    if not (dir_can_be_zero dirs.(i)) then ok := false
  done;
  !ok

let analyse prog (res : Ddg.Depprof.result) =
  let stmts =
    List.map (fun si -> { si; spath = stmt_path si }) res.Ddg.Depprof.stmts
  in
  let path_of_ctx ctx = loop_dims_of_context (Ddg.Iiv.context_of_id ctx) in
  let deps =
    List.map
      (fun (di : Ddg.Depprof.dep_info) ->
        analyse_dep di ~src_path:(path_of_ctx di.dk.src_ctx)
          ~dst_path:(path_of_ctx di.dk.dst_ctx))
      res.Ddg.Depprof.deps
  in
  (* all loop prefixes *)
  let prefix_tbl : (path, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let rec add p rest =
        match rest with
        | [] -> ()
        | dim :: rest' ->
            let p' = p @ [ dim ] in
            let w = try Hashtbl.find prefix_tbl p' with Not_found -> 0 in
            Hashtbl.replace prefix_tbl p' (w + s.si.Ddg.Depprof.s_count);
            add p' rest'
      in
      add [] s.spath)
    stmts;
  (* parallelism per prefix *)
  let non_parallel : (path, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun d ->
      let src_path = path_of_ctx d.di.dk.src_ctx in
      let rec mark p =
        if p <= d.common then begin
          if zeros_possible_before p d.dirs && dir_can_be_nonzero d.dirs.(p - 1)
          then Hashtbl.replace non_parallel (take p src_path) ();
          (* deeper dims can only be "first non-zero" if this one can be 0 *)
          if dir_can_be_zero d.dirs.(p - 1) then mark (p + 1)
        end
      in
      mark 1)
    deps;
  let header_loc_of (pth : path) =
    match List.rev pth with
    | [] -> None
    | stack :: _ -> (
        match List.rev stack with
        | Ddg.Iiv.Cloop (fid, lid) :: _ -> (
            match Cfg.Cfg_builder.forest_of res.Ddg.Depprof.structure fid with
            | None -> None
            | Some forest -> (
                match
                  List.find_opt
                    (fun (l : Cfg.Loopnest.loop) -> l.loop_id = lid)
                    (Cfg.Loopnest.all_loops forest)
                with
                | None -> None
                | Some l -> Vm.Prog.loc_of_block prog ~fid ~bid:l.header))
        | _ -> None)
  in
  let loops =
    Hashtbl.fold
      (fun p w acc ->
        { lpath = p;
          ldepth = List.length p;
          parallel = not (Hashtbl.mem non_parallel p);
          lweight = w;
          header_loc = header_loc_of p }
        :: acc)
      prefix_tbl []
    |> List.sort (fun a b -> compare (a.ldepth, a.lpath) (b.ldepth, b.lpath))
  in
  (* nests: group statements by exact loop path *)
  let nest_tbl : (path, stmt_ext list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let cur = try Hashtbl.find nest_tbl s.spath with Not_found -> [] in
      Hashtbl.replace nest_tbl s.spath (s :: cur))
    stmts;
  let dep_endpoints_under d prefix =
    let sp = path_of_ctx d.di.dk.src_ctx and dp = path_of_ctx d.di.dk.dst_ctx in
    is_prefix prefix sp && is_prefix prefix dp
  in
  let mk_nest npath nstmts =
    let ndepth = List.length npath in
    let nweight =
      List.fold_left (fun acc s -> acc + s.si.Ddg.Depprof.s_count) 0 nstmts
    in
    let nparallel =
      Array.init ndepth (fun i ->
          not (Hashtbl.mem non_parallel (take (i + 1) npath)))
    in
    (* greedy maximal permutable bands with optional skewing *)
    let bands = ref [] in
    let a = ref 1 in
    while !a <= ndepth do
      let skews = ref [] in
      let b = ref !a in
      let extend_ok b' =
        (* all deps whose endpoints are under prefix b' must have
           non-negative components on dims a..b' (unless carried before a),
           possibly after skewing *)
        let violators = ref [] in
        let ok = ref true in
        List.iter
          (fun d ->
            if dep_endpoints_under d (take b' npath) then
              if not (zeros_possible_before !a d.dirs) then () (* carried outside *)
              else if d.common < b' then
                (* the dependence does not span this dimension: it links
                   different sub-nests; only blocks if not carried earlier *)
                ()
              else begin
                (* a same-block register chain is a scalar reduction:
                   privatisable, it does not constrain the band *)
                let reduction_like =
                  d.di.Ddg.Depprof.dk.kind = Ddg.Depprof.Reg_dep
                  && Vm.Isa.Sid.fid d.di.Ddg.Depprof.dk.src_sid
                     = Vm.Isa.Sid.fid d.di.Ddg.Depprof.dk.dst_sid
                  && Vm.Isa.Sid.bid d.di.Ddg.Depprof.dk.src_sid
                     = Vm.Isa.Sid.bid d.di.Ddg.Depprof.dk.dst_sid
                in
                let fine = ref reduction_like in
                if not reduction_like then begin
                  fine := true;
                  for dd = !a - 1 to b' - 1 do
                    if dir_can_be_negative d.dirs.(dd) then fine := false
                  done
                end;
                if not !fine then violators := d :: !violators
              end)
          deps;
        if !violators = [] then Some []
        else begin
          (* try skewing: each violator must have a constant positive
             distance on dim a and a constant distance on the violating
             dim; skew inner by factor f wrt dim a *)
          let skew_needed = ref [] in
          List.iter
            (fun d ->
              if !ok then
                match (d.dists.(!a - 1), d.dists.(b' - 1)) with
                | Some da, Some db when da > 0 && db < 0 ->
                    let f = (-db + da - 1) / da in
                    skew_needed := f :: !skew_needed
                | _ -> ok := false)
            !violators;
          if !ok && !skew_needed <> [] then
            Some [ (!a, b', List.fold_left max 1 !skew_needed) ]
          else None
        end
      in
      let continue_band = ref true in
      while !continue_band && !b < ndepth do
        match extend_ok (!b + 1) with
        | Some new_skews ->
            skews := new_skews @ !skews;
            incr b
        | None -> continue_band := false
      done;
      (* a 1-wide "band" is only meaningful if the single dim is legal
         to tile, which it always is *)
      bands := { b_from = !a; b_to = !b; b_skews = List.rev !skews } :: !bands;
      a := !b + 1
    done;
    { npath; ndepth; nstmts = List.rev nstmts; nweight; bands = List.rev !bands; nparallel }
  in
  let nests =
    Hashtbl.fold (fun p ss acc -> mk_nest p ss :: acc) nest_tbl []
    |> List.sort (fun a b -> compare (a.npath, a.ndepth) (b.npath, b.ndepth))
  in
  let total_ops =
    List.fold_left (fun acc s -> acc + s.si.Ddg.Depprof.s_count) 0 stmts
  in
  { stmts; deps; loops; nests; total_ops }

let loop_at t p = List.find_opt (fun l -> l.lpath = p) t.loops

let max_band_width n =
  List.fold_left (fun acc b -> max acc (b.b_to - b.b_from + 1)) 0 n.bands

let nest_uses_skew n = List.exists (fun b -> b.b_skews <> []) n.bands

(* A same-block register chain: the signature of a scalar reduction,
   privatisable/reassociable, so it does not pin the loop order.  The
   same exemption the band construction in [analyse] applies. *)
let dep_reduction_like (d : dep_ext) =
  d.di.Ddg.Depprof.dk.kind = Ddg.Depprof.Reg_dep
  && Vm.Isa.Sid.fid d.di.Ddg.Depprof.dk.src_sid
     = Vm.Isa.Sid.fid d.di.Ddg.Depprof.dk.dst_sid
  && Vm.Isa.Sid.bid d.di.Ddg.Depprof.dk.src_sid
     = Vm.Isa.Sid.bid d.di.Ddg.Depprof.dk.dst_sid

(* Uses the paths resolved at [analyse] time: the ctx ids inside
   [dep_info] dangle once another program is profiled ([Depprof.profile]
   resets the global intern table), and the differential driver
   interleaves legality checks with re-profiling runs. *)
let dep_relevant_to_prefix d prefix =
  is_prefix prefix d.dsrc_path && is_prefix prefix d.ddst_path

let pp fmt t =
  Format.fprintf fmt "%d stmts, %d deps, %d loops, %d nests, %d ops@\n"
    (List.length t.stmts) (List.length t.deps) (List.length t.loops)
    (List.length t.nests) t.total_ops;
  List.iter
    (fun l ->
      Format.fprintf fmt "loop depth=%d weight=%d parallel=%b@\n" l.ldepth
        l.lweight l.parallel)
    t.loops;
  List.iter
    (fun n ->
      Format.fprintf fmt "nest depth=%d stmts=%d weight=%d bands=[%s]@\n"
        n.ndepth (List.length n.nstmts) n.nweight
        (String.concat ";"
           (List.map
              (fun b ->
                Printf.sprintf "%d-%d%s" b.b_from b.b_to
                  (if b.b_skews <> [] then "(skew)" else ""))
              n.bands)))
    t.nests
