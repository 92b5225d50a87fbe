module A = Minisl.Affine
module P = Minisl.Polyhedron

type strategy = Smartfuse | Maxfuse

let strategy_code = function Smartfuse -> "S" | Maxfuse -> "M"

type component = {
  c_path : Depanalysis.path;
  c_weight : int;
  c_order : int;
}

type result = {
  components_before : int;
  components_after : int;
  strategy : strategy;
  merged_groups : component list list;
}

let components (t : Depanalysis.t) ~prefix ~threshold =
  let plen = List.length prefix in
  let region_weight =
    List.fold_left
      (fun acc (s : Depanalysis.stmt_ext) ->
        if Depanalysis.is_prefix prefix s.spath then acc + s.si.Ddg.Depprof.s_count else acc)
      0 t.stmts
  in
  let cands =
    List.filter
      (fun (l : Depanalysis.loop_info) ->
        l.ldepth = plen + 1 && Depanalysis.is_prefix prefix l.lpath)
      t.loops
  in
  let min_w = int_of_float (threshold *. float_of_int region_weight) in
  (* Execution order of a component: the smallest statement id under the
     loop.  Sids are packed (fid, bid, idx) in lowering order, so this is
     program order — [t.loops] itself is sorted on interned context
     paths, which is NOT execution order across sibling loops. *)
  let exec_key (l : Depanalysis.loop_info) =
    List.fold_left
      (fun acc (s : Depanalysis.stmt_ext) ->
        if Depanalysis.is_prefix l.lpath s.spath then
          min acc s.si.Ddg.Depprof.sk.Ddg.Depprof.s_sid
        else acc)
      max_int t.stmts
  in
  cands
  |> List.filter (fun (l : Depanalysis.loop_info) -> l.lweight >= min_w)
  |> List.map (fun l -> (exec_key l, l))
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.mapi (fun i (_, (l : Depanalysis.loop_info)) ->
         { c_path = l.lpath; c_weight = l.lweight; c_order = i })

(* Endpoint paths of a dependence: the resolved copies cached on
   [dep_ext], never the raw ctx ids — those dangle as soon as any later
   re-profile (a transformation verifier, the autotuner's oracle) resets
   the intern table. *)
let dep_paths (d : Depanalysis.dep_ext) = (d.dsrc_path, d.ddst_path)

(* Is fusing components [a] (earlier) and [b] (later) legal?  Every
   dependence crossing them must be non-negative along the fused
   dimension (position [plen], 0-based) under the identification of the
   two loops' canonical iterators. *)
let fusion_legal (t : Depanalysis.t) plen a b =
  List.for_all
    (fun (d : Depanalysis.dep_ext) ->
      let sp, dp = dep_paths d in
      let crosses =
        (Depanalysis.is_prefix a.c_path sp && Depanalysis.is_prefix b.c_path dp)
        || (Depanalysis.is_prefix b.c_path sp && Depanalysis.is_prefix a.c_path dp)
      in
      if not crosses then true
      else
        List.for_all
          (fun (p : Fold.piece) ->
            match
              if plen < Array.length p.Fold.labels then p.Fold.labels.(plen)
              else None
            with
            | None -> false
            | Some out_p ->
                begin
                  let n = P.dim p.Fold.dom in
                  if plen >= n then false
                  else begin
                    let expr = A.sub (A.var ~dim:n plen) out_p in
                    (* consumer executes at or after producer on the
                       fused dimension *)
                    let forward = Depanalysis.is_prefix a.c_path sp in
                    let lo, hi = P.bounds p.Fold.dom expr in
                    if forward then
                      match lo with
                      | Some l -> Pp_util.Rat.sign l >= 0
                      | None -> false
                    else
                      (* dep from the later loop back into the earlier
                         one would be reversed by fusion *)
                      match hi with
                      | Some h -> Pp_util.Rat.sign h <= 0
                      | None -> false
                  end
                end)
          d.di.Ddg.Depprof.d_pieces)
    t.deps

let have_dep (t : Depanalysis.t) a b =
  List.exists
    (fun (d : Depanalysis.dep_ext) ->
      let sp, dp = dep_paths d in
      (Depanalysis.is_prefix a.c_path sp && Depanalysis.is_prefix b.c_path dp)
      || (Depanalysis.is_prefix b.c_path sp && Depanalysis.is_prefix a.c_path dp))
    t.deps

let cluster (t : Depanalysis.t) strategy plen comps =
  let groups = ref [] in
  List.iter
    (fun c ->
      match !groups with
      | [] -> groups := [ [ c ] ]
      | g :: rest ->
          let legal = List.for_all (fun m -> fusion_legal t plen m c) g in
          let wanted =
            match strategy with
            | Maxfuse -> true
            | Smartfuse -> List.exists (fun m -> have_dep t m c) g
          in
          if legal && wanted then groups := (c :: g) :: rest
          else groups := [ c ] :: g :: rest)
    comps;
  List.rev_map List.rev !groups

let fuse (t : Depanalysis.t) strategy ~prefix ?(threshold = 0.05) () =
  let comps = components t ~prefix ~threshold in
  let plen = List.length prefix in
  let merged = cluster t strategy plen comps in
  (* distribution: a merged outer loop splits into one component per
     cluster of its sub-loops that cannot (or, for smartfuse, should
     not) share the fused inner loop after transformation *)
  let after =
    List.fold_left
      (fun acc group ->
        let children =
          List.concat_map
            (fun c -> components t ~prefix:c.c_path ~threshold) group
        in
        let sub_groups =
          match children with
          | [] | [ _ ] -> 1
          | cs -> max 1 (List.length (cluster t strategy (plen + 1) cs))
        in
        acc + sub_groups)
      0 merged
  in
  { components_before = List.length comps;
    components_after = after;
    strategy;
    merged_groups = merged }

(* Adjacent legal fusion pairs for a schedule-search enumerator.  For
   every loop region prefix (the root plus each profiled loop), cluster
   the components under [Maxfuse] and emit every consecutive pair of
   every merged group, resolved to the two loops' header locations; the
   profiled-dependence legality gate is [fusion_legal] inside the
   clustering.  Only located pairs survive — the source rewriter cannot
   address a loop without a source location. *)
let candidate_pairs ?(threshold = 0.02) (t : Depanalysis.t) =
  let prefixes =
    [] :: List.map (fun (l : Depanalysis.loop_info) -> l.Depanalysis.lpath)
           t.Depanalysis.loops
  in
  let loc_of c =
    match Depanalysis.loop_at t c.c_path with
    | Some l -> l.Depanalysis.header_loc
    | None -> None
  in
  let pairs = ref [] in
  List.iter
    (fun prefix ->
      let r = fuse t Maxfuse ~prefix ~threshold () in
      List.iter
        (fun group ->
          let rec adj = function
            | a :: (b :: _ as rest) ->
                (match (loc_of a, loc_of b) with
                | Some la, Some lb ->
                    pairs := ((la, lb), (a.c_path, b.c_path)) :: !pairs
                | _ -> ());
                adj rest
            | _ -> ()
          in
          adj group)
        r.merged_groups)
    prefixes;
  (* two dynamic prefixes (a kernel called twice) can map to the same
     static pair *)
  let seen = Hashtbl.create 16 in
  List.rev !pairs
  |> List.filter (fun ((la, lb), _) ->
         let k = (la, lb) in
         if Hashtbl.mem seen k then false
         else begin
           Hashtbl.add seen k ();
           true
         end)
