module A = Minisl.Affine
module Rat = Pp_util.Rat

type row = {
  name : string;
  ops : int;
  mem : int;
  aff_pct : float;
  region : string;
  region_ops_pct : float;
  region_mops_pct : float;
  region_fpops_pct : float;
  interproc : bool;
  skew : bool;
  par_ops_pct : float;
  simd_ops_pct : float;
  reuse_pct : float;
  preuse_pct : float;
  ld_src : int;
  ld_bin : int;
  tile_depth : int;
  tile_ops_pct : float;
  c_before : int;
  c_after : int;
  fusion : string;
  failed : bool;
}

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

let select_region (t : Depanalysis.t) =
  let top =
    List.filter (fun (l : Depanalysis.loop_info) -> l.ldepth = 1) t.loops
  in
  List.fold_left
    (fun best (l : Depanalysis.loop_info) ->
      match best with
      | None -> Some l
      | Some b -> if l.lweight > b.Depanalysis.lweight then Some l else best)
    None top

(* Memory accesses with stride 0/1 on a given dim (weighted). *)
let stride01_on_dim (s : Depanalysis.stmt_ext) d =
  s.si.Ddg.Depprof.s_pieces <> []
  && List.for_all
       (fun (p : Fold.piece) ->
         match p.Fold.labels with
         | [| Some addr |] when d < A.dim addr ->
             let c = addr.A.coeffs.(d) in
             Rat.is_integer c && abs (Rat.to_int_exn c) <= 1
         | _ -> false)
       s.si.Ddg.Depprof.s_pieces

let is_mem (s : Depanalysis.stmt_ext) =
  match s.si.Ddg.Depprof.cls with
  | Vm.Isa.Mem_load | Vm.Isa.Mem_store -> true
  | Vm.Isa.Int_alu | Vm.Isa.Fp_alu | Vm.Isa.Other_op -> false

let is_fp (s : Depanalysis.stmt_ext) =
  match s.si.Ddg.Depprof.cls with
  | Vm.Isa.Fp_alu -> true
  | Vm.Isa.Mem_load | Vm.Isa.Mem_store | Vm.Isa.Int_alu | Vm.Isa.Other_op ->
      false

let fids_of_path (p : Depanalysis.path) =
  List.concat_map
    (fun stack ->
      List.filter_map
        (function
          | Ddg.Iiv.Cblock (f, _) | Ddg.Iiv.Cloop (f, _) -> Some f
          | Ddg.Iiv.Ccomp _ -> None)
        stack)
    p

let compute ~name ?(ld_src = 0) ?(fusion_strategy = Fusion.Smartfuse)
    ?region_override prog (_res : Ddg.Depprof.result) (t : Depanalysis.t) =
  ignore prog;
  let total = max 1 t.total_ops in
  let stmt_count (s : Depanalysis.stmt_ext) = s.si.Ddg.Depprof.s_count in
  (* %Aff: ops of statements whose own folding is exact+affine and whose
     incident dependences all folded exactly with affine labels *)
  let dep_ok (d : Depanalysis.dep_ext) = not d.approx in
  let stmt_deps_ok (s : Depanalysis.stmt_ext) =
    List.for_all
      (fun (d : Depanalysis.dep_ext) ->
        let dk = d.di.Ddg.Depprof.dk in
        let touches =
          (dk.src_sid = s.si.Ddg.Depprof.sk.s_sid
          && dk.src_ctx = s.si.Ddg.Depprof.sk.s_ctx)
          || (dk.dst_sid = s.si.Ddg.Depprof.sk.s_sid
             && dk.dst_ctx = s.si.Ddg.Depprof.sk.s_ctx)
        in
        (not touches) || dep_ok d)
      t.deps
  in
  (* region-level affinity (the paper's "part of a fully affine region
     without over-approximation"): a loop nest counts as affine when at
     least 90% of its dynamic operations come from statements that folded
     exactly with affine labels and exact dependences — a couple of
     if-converted select copies with holey domains do not disqualify the
     whole nest, but pervasive irregularity (modulo-linearised indexing,
     indirections) does *)
  let nest_tot : (Depanalysis.path, int) Hashtbl.t = Hashtbl.create 32 in
  let nest_ok : (Depanalysis.path, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (s : Depanalysis.stmt_ext) ->
      let bump tbl n =
        Hashtbl.replace tbl s.spath
          ((try Hashtbl.find tbl s.spath with Not_found -> 0) + n)
      in
      bump nest_tot (stmt_count s);
      if s.si.Ddg.Depprof.affine_exact && stmt_deps_ok s then
        bump nest_ok (stmt_count s))
    t.stmts;
  let nest_affine path =
    let tot = try Hashtbl.find nest_tot path with Not_found -> 0 in
    let ok = try Hashtbl.find nest_ok path with Not_found -> 0 in
    tot > 0 && 10 * ok >= 9 * tot
  in
  let aff_ops =
    List.fold_left
      (fun acc (s : Depanalysis.stmt_ext) ->
        if nest_affine s.spath then acc + stmt_count s else acc)
      0 t.stmts
  in
  (* region selection *)
  let region_path, region_loc =
    match region_override with
    | Some p -> (
        ( p,
          match Depanalysis.loop_at t p with
          | Some l -> l.header_loc
          | None -> None ))
    | None -> (
        match select_region t with
        | Some l -> (l.lpath, l.header_loc)
        | None -> ([], None))
  in
  let in_region (s : Depanalysis.stmt_ext) = Depanalysis.is_prefix region_path s.spath in
  let region_stmts = List.filter in_region t.stmts in
  let sum f l = List.fold_left (fun acc s -> acc + f s) 0 l in
  let region_ops = sum stmt_count region_stmts in
  let region_mem = sum (fun s -> if is_mem s then stmt_count s else 0) region_stmts in
  let region_fp = sum (fun s -> if is_fp s then stmt_count s else 0) region_stmts in
  let interproc =
    (* interprocedural = the transformation region spans several
       functions: look at the loop dimensions below the region root (the
       calling context above it is irrelevant) and the statements' own
       functions *)
    let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
    let fids =
      List.sort_uniq compare
        (List.concat_map
           (fun (s : Depanalysis.stmt_ext) ->
             Vm.Isa.Sid.fid s.si.Ddg.Depprof.sk.s_sid
             :: fids_of_path (drop (List.length region_path) s.spath))
           region_stmts)
    in
    List.length fids > 1
  in
  (* per-nest suggestions *)
  let suggestions =
    List.map (fun n -> (n, Transform.suggest t n)) t.nests
  in
  let nest_of_stmt (s : Depanalysis.stmt_ext) =
    List.find_opt (fun (n : Depanalysis.nest_info) -> n.npath = s.spath)
      t.nests
  in
  (* %||ops: some enclosing loop dim parallel, or the statement's nest is
     tilable with a band of width >= 2 (tiled code can always be
     coarse-grain parallelised with wavefront parallelism, paper section 8) *)
  let par_ops =
    List.fold_left
      (fun acc (s : Depanalysis.stmt_ext) ->
        let any_parallel =
          List.exists
            (fun (l : Depanalysis.loop_info) ->
              l.parallel && Depanalysis.is_prefix l.lpath s.spath)
            t.loops
        in
        let wavefront =
          match nest_of_stmt s with
          | Some n -> Depanalysis.max_band_width n >= 2
          | None -> false
        in
        if any_parallel || wavefront then acc + stmt_count s else acc)
      0 t.stmts
  in
  (* %simdops: ops in nests whose innermost loop is parallel AFTER the
     suggested transformation (e.g. post-interchange for backprop) *)
  let suggestion_of_nest =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun ((n : Depanalysis.nest_info), sg) -> Hashtbl.replace tbl n.npath sg)
      suggestions;
    fun (n : Depanalysis.nest_info) -> Hashtbl.find_opt tbl n.npath
  in
  let simd_ops =
    List.fold_left
      (fun acc (s : Depanalysis.stmt_ext) ->
        match nest_of_stmt s with
        | Some n -> (
            match suggestion_of_nest n with
            | Some sg when sg.Transform.simd -> acc + stmt_count s
            | _ -> acc)
        | None -> acc)
      0 t.stmts
  in
  (* %reuse / %Preuse over memory operations *)
  let mem_total = ref 0 and reuse = ref 0 and preuse = ref 0 in
  List.iter
    (fun (s : Depanalysis.stmt_ext) ->
      if is_mem s then begin
        mem_total := !mem_total + stmt_count s;
        let depth = s.si.Ddg.Depprof.depth in
        let innermost_ok = depth > 0 && stride01_on_dim s (depth - 1) in
        let any_ok =
          depth = 0
          ||
          let rec f d = d < depth && (stride01_on_dim s d || f (d + 1)) in
          f 0
        in
        if innermost_ok || depth = 0 then reuse := !reuse + stmt_count s;
        if any_ok then preuse := !preuse + stmt_count s
      end)
    t.stmts;
  (* ld-bin: max loop depth in the reconstructed structure *)
  let ld_bin =
    List.fold_left
      (fun acc (l : Depanalysis.loop_info) -> max acc l.ldepth)
      0 t.loops
  in
  (* TileD / %Tilops *)
  let tile_depth =
    List.fold_left
      (fun acc ((n : Depanalysis.nest_info), _) ->
        if Depanalysis.is_prefix region_path n.npath || region_path = [] then
          max acc (max 1 (Depanalysis.max_band_width n))
        else acc)
      0 suggestions
  in
  let nest_tilable (n : Depanalysis.nest_info) =
    (* every incident dependence folded with known labels *)
    n.ndepth > 0
    && List.for_all
         (fun (d : Depanalysis.dep_ext) ->
           (not (Depanalysis.dep_relevant_to_prefix d n.npath)) || not d.approx)
         t.deps
  in
  let til_ops =
    List.fold_left
      (fun acc (s : Depanalysis.stmt_ext) ->
        match nest_of_stmt s with
        | Some n when nest_tilable n -> acc + stmt_count s
        | _ -> acc)
      0 t.stmts
  in
  (* the skew column reflects the hot nests: a skew suggested on a
     minor side loop (a prefix-sum scan, a pivot row update) would not
     make the paper's transformation "use skewing" *)
  let skew =
    List.exists
      (fun ((n : Depanalysis.nest_info), sg) ->
        Depanalysis.is_prefix region_path n.npath
        && sg.Transform.uses_skew
        && float_of_int n.nweight >= 0.2 *. float_of_int (max 1 region_ops))
      suggestions
  in
  let fus = Fusion.fuse t fusion_strategy ~prefix:region_path () in
  { name;
    ops = t.total_ops;
    mem = !mem_total;
    aff_pct = pct aff_ops total;
    region =
      (match region_loc with
      | Some l -> Printf.sprintf "%s:%d" l.Vm.Prog.file l.Vm.Prog.line
      | None -> "-");
    region_ops_pct = pct region_ops total;
    region_mops_pct = pct region_mem (max 1 region_ops);
    region_fpops_pct = pct region_fp (max 1 region_ops);
    interproc;
    skew;
    par_ops_pct = pct par_ops total;
    simd_ops_pct = pct simd_ops total;
    reuse_pct = pct !reuse (max 1 !mem_total);
    preuse_pct = pct !preuse (max 1 !mem_total);
    ld_src;
    ld_bin;
    tile_depth;
    tile_ops_pct = pct til_ops total;
    (* a region that is itself a loop with no qualifying sub-loops is one
       component *)
    c_before = (if region_ops > 0 then max 1 fus.Fusion.components_before else 0);
    c_after = (if region_ops > 0 then max 1 fus.Fusion.components_after else 0);
    fusion = Fusion.strategy_code fusion_strategy;
    failed = false }

(* Row for a benchmark whose scheduling stage blew up: the paper still
   shows the profiling-derived columns for streamcluster (#ops, #mem,
   %Aff, region, %ops, %Mops, %FPops, interproc) and dashes the rest. *)
let failed_row ?base_row ~name ~ops ~mem () =
  let b =
    match base_row with
    | Some r -> r
    | None ->
        { name; ops; mem; aff_pct = 0.0; region = "-"; region_ops_pct = 0.0;
          region_mops_pct = 0.0; region_fpops_pct = 0.0; interproc = false;
          skew = false; par_ops_pct = 0.0; simd_ops_pct = 0.0;
          reuse_pct = 0.0; preuse_pct = 0.0; ld_src = 0; ld_bin = 0;
          tile_depth = 0; tile_ops_pct = 0.0; c_before = 0; c_after = 0;
          fusion = "-"; failed = true }
  in
  { b with name; ops; mem; failed = true }

let header =
  [ "benchmark"; "#ops"; "#mem"; "%Aff"; "Region"; "%ops"; "%Mops"; "%FPops";
    "itp"; "skew"; "%||ops"; "%simd"; "%reuse"; "%Preuse"; "ld-src"; "ld-bin";
    "TileD"; "%Tilops"; "C"; "Comp"; "fus" ]

let fmt_count n =
  if n >= 1_000_000_000 then Printf.sprintf "%dG" (n / 1_000_000_000)
  else if n >= 1_000_000 then Printf.sprintf "%dM" (n / 1_000_000)
  else if n >= 1_000 then Printf.sprintf "%dK" (n / 1_000)
  else string_of_int n

let fmt_pct f = Printf.sprintf "%.0f%%" f

let to_strings r =
  if r.failed then
    [ r.name; fmt_count r.ops; fmt_count r.mem;
      (if r.region = "-" then "-" else fmt_pct r.aff_pct);
      r.region;
      (if r.region = "-" then "-" else fmt_pct r.region_ops_pct);
      (if r.region = "-" then "-" else fmt_pct r.region_mops_pct);
      (if r.region = "-" then "-" else fmt_pct r.region_fpops_pct);
      (if r.region = "-" then "-" else if r.interproc then "Y" else "N");
      "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-" ]
  else
    [ r.name;
      fmt_count r.ops;
      fmt_count r.mem;
      fmt_pct r.aff_pct;
      r.region;
      fmt_pct r.region_ops_pct;
      fmt_pct r.region_mops_pct;
      fmt_pct r.region_fpops_pct;
      (if r.interproc then "Y" else "N");
      (if r.skew then "Y" else "N");
      fmt_pct r.par_ops_pct;
      fmt_pct r.simd_ops_pct;
      fmt_pct r.reuse_pct;
      fmt_pct r.preuse_pct;
      Printf.sprintf "%dD" r.ld_src;
      Printf.sprintf "%dD" r.ld_bin;
      Printf.sprintf "%dD" r.tile_depth;
      fmt_pct r.tile_ops_pct;
      string_of_int r.c_before;
      string_of_int r.c_after;
      r.fusion ]

let pp_table fmt rows =
  let table = header :: List.map to_strings rows in
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i s -> widths.(i) <- max widths.(i) (String.length s)))
    table;
  List.iter
    (fun row ->
      List.iteri
        (fun i s -> Format.fprintf fmt "%-*s " widths.(i) s)
        row;
      Format.fprintf fmt "@\n")
    table
