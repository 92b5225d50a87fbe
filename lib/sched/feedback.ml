type region_report = {
  path : Depanalysis.path;
  loc : string;
  weight_pct : float;
  interprocedural : bool;
  suggestions : Transform.suggestion list;
  fusion : Fusion.result;
  parallel_dims : bool list;
  permutable : bool;
  tile_depth : int;
  uses_skew : bool;
  stride01_outer : float;
  stride01_inner : float;
}

type t = {
  regions : region_report list;
  analysis : Depanalysis.t;
}

let rec take n = function
  | [] -> []
  | x :: xs -> if n <= 0 then [] else x :: take (n - 1) xs

let region_of_loop prog (t : Depanalysis.t) (l : Depanalysis.loop_info) =
  ignore prog;
  let nests =
    List.filter
      (fun (n : Depanalysis.nest_info) -> Depanalysis.is_prefix l.lpath n.npath)
      t.nests
  in
  let suggestions = List.map (Transform.suggest t) nests in
  let deepest =
    List.fold_left
      (fun best (n : Depanalysis.nest_info) ->
        match best with
        | None -> Some n
        | Some b ->
            if
              n.ndepth > b.Depanalysis.ndepth
              || (n.ndepth = b.Depanalysis.ndepth && n.nweight > b.Depanalysis.nweight)
            then Some n
            else best)
      None nests
  in
  let fids =
    List.sort_uniq compare
      (List.concat_map
         (fun (n : Depanalysis.nest_info) ->
           List.concat_map
             (fun (s : Depanalysis.stmt_ext) ->
               [ Vm.Isa.Sid.fid s.si.Ddg.Depprof.sk.s_sid ])
             n.nstmts)
         nests)
  in
  let tile_depth =
    List.fold_left (fun acc s -> max acc s.Transform.tile_depth) 0 suggestions
  in
  let parallel_dims, permutable, s01o, s01i =
    match deepest with
    | None -> ([], false, 0.0, 0.0)
    | Some n ->
        let sg = Transform.suggest t n in
        let s01 = sg.Transform.stride01 in
        ( Array.to_list n.nparallel,
          Depanalysis.max_band_width n = n.ndepth && n.ndepth > 1,
          (if Array.length s01 > 0 then s01.(0) else 0.0),
          if Array.length s01 > 0 then s01.(Array.length s01 - 1) else 0.0 )
  in
  { path = l.lpath;
    loc =
      (match l.header_loc with
      | Some lc -> Printf.sprintf "%s:%d" lc.Vm.Prog.file lc.Vm.Prog.line
      | None -> "?");
    weight_pct =
      (if t.total_ops = 0 then 0.0
       else 100.0 *. float_of_int l.lweight /. float_of_int t.total_ops);
    interprocedural = List.length fids > 1;
    suggestions;
    fusion = Fusion.fuse t Fusion.Smartfuse ~prefix:l.lpath ();
    parallel_dims;
    permutable;
    tile_depth;
    uses_skew = List.exists (fun s -> s.Transform.uses_skew) suggestions;
    stride01_outer = s01o;
    stride01_inner = s01i }

let make ?(max_regions = 5) prog (res : Ddg.Depprof.result) (t : Depanalysis.t) =
  ignore res;
  let top =
    List.filter (fun (l : Depanalysis.loop_info) -> l.ldepth = 1) t.loops
    |> List.sort (fun (a : Depanalysis.loop_info) b -> compare b.lweight a.lweight)
  in
  let regions = List.map (region_of_loop prog t) (take max_regions top) in
  { regions; analysis = t }

let render_ast fmt (r : region_report) =
  (* render the deepest/hottest nest after transformation *)
  let sg =
    List.fold_left
      (fun best (s : Transform.suggestion) ->
        match best with
        | None -> Some s
        | Some b ->
            if s.Transform.nest.Depanalysis.nweight > b.Transform.nest.Depanalysis.nweight
            then Some s
            else best)
      None r.suggestions
  in
  match sg with
  | None -> Format.fprintf fmt "  (empty region)@\n"
  | Some s ->
      let n = s.Transform.nest in
      let depth = n.Depanalysis.ndepth in
      let tiled d =
        List.exists
          (fun st -> match st with Transform.Tile (a, b, _) -> a <= d && d <= b | _ -> false)
          s.Transform.steps
      in
      let order = Array.init depth (fun i -> i + 1) in
      (match s.Transform.interchange with
      | Some (a, b) ->
          let tmp = order.(a - 1) in
          order.(a - 1) <- order.(b - 1);
          order.(b - 1) <- tmp
      | None -> ());
      let indent = ref "  " in
      (* tile loops first *)
      Array.iter
        (fun d ->
          if tiled d then begin
            Format.fprintf fmt "%sfor dt%d in [0 .. N%d/32)%s@\n" !indent d d
              (if s.Transform.parallel_dim = Some d then "   // omp parallel for (tile wavefront)"
               else "");
            indent := !indent ^ "  "
          end)
        order;
      Array.iteri
        (fun pos d ->
          let marks = ref [] in
          if s.Transform.parallel_dim = Some d && not (tiled d) then
            marks := "parallel" :: !marks;
          if n.Depanalysis.nparallel.(d - 1) then marks := "||" :: !marks;
          if pos = depth - 1 && s.Transform.simd then marks := "simd" :: !marks;
          Format.fprintf fmt "%sfor d%d in %s%s@\n" !indent d
            (if tiled d then Printf.sprintf "tile(dt%d)" d else Printf.sprintf "[0 .. N%d)" d)
            (if !marks = [] then ""
             else "   // " ^ String.concat ", " !marks);
          indent := !indent ^ "  ")
        order;
      Format.fprintf fmt "%s{ %d statements, %d ops }@\n" !indent
        (List.length n.Depanalysis.nstmts)
        n.Depanalysis.nweight

let render ?fname fmt t =
  ignore fname;
  List.iteri
    (fun i r ->
      Format.fprintf fmt "=== region %d: %s (%.0f%% of ops%s) ===@\n" (i + 1)
        r.loc r.weight_pct
        (if r.interprocedural then ", interprocedural" else "");
      Format.fprintf fmt "parallel dims: [%s]  permutable: %b  tile depth: %d%s@\n"
        (String.concat "; "
           (List.mapi
              (fun d p -> Printf.sprintf "d%d:%s" (d + 1) (if p then "yes" else "no"))
              r.parallel_dims))
        r.permutable r.tile_depth
        (if r.uses_skew then "  (after skewing)" else "");
      Format.fprintf fmt "stride-0/1: outer %.0f%%, inner %.0f%%@\n"
        (100.0 *. r.stride01_outer)
        (100.0 *. r.stride01_inner);
      Format.fprintf fmt "fusion: %d components -> %d (%s)@\n"
        r.fusion.Fusion.components_before r.fusion.Fusion.components_after
        (Fusion.strategy_code r.fusion.Fusion.strategy);
      (* the precise fusion/distribution scheme (paper section 6): which
         original outer loops share a fused loop after transformation *)
      (match r.fusion.Fusion.merged_groups with
      | [] | [ _ ] -> ()
      | groups ->
          Format.fprintf fmt "fusion scheme:@\n";
          List.iteri
            (fun gi group ->
              Format.fprintf fmt "  fused loop %d: %d original loop(s), %d ops@\n"
                (gi + 1) (List.length group)
                (List.fold_left
                   (fun acc (c : Fusion.component) -> acc + c.Fusion.c_weight)
                   0 group))
            groups);
      List.iter
        (fun s ->
          if s.Transform.steps <> [] then
            Format.fprintf fmt "suggested: %a@\n" Transform.pp_suggestion s)
        r.suggestions;
      Format.fprintf fmt "post-transformation structure:@\n";
      render_ast fmt r)
    t.regions
