module J = Obs.Json_emit

let truncate n s = if String.length s <= n then s else String.sub s 0 (n - 1) ^ "…"

let status_cell (c : Search.cand) =
  match c.cd_status with
  | Search.Verified -> "VERIFIED"
  | Search.Pruned -> "pruned"
  | Search.Timed_out m -> truncate 40 ("timeout: " ^ m)
  | Search.Rejected m -> truncate 40 ("REJECTED: " ^ m)

let us = function
  | None -> "-"
  | Some s -> Printf.sprintf "%.1f" (s *. 1e6)

let speedup_cell = function
  | None -> "-"
  | Some x -> Printf.sprintf "%.2fx" x

let render fmt (r : Search.t) =
  Format.fprintf fmt
    "== autotune %s: explored %d (%d illegal, %d not expressible), %d \
     measured, %d verified ==@\n\
     identity: %d ops, %.1f us median of %d@\n"
    r.Search.r_name r.Search.r_explored r.Search.r_illegal
    r.Search.r_apply_failed r.Search.r_measured r.Search.r_verified
    r.Search.r_identity_ops
    (r.Search.r_identity_seconds *. 1e6)
    r.Search.r_config.Search.repeat;
  let rows =
    List.map
      (fun (c : Search.cand) ->
        [ string_of_int c.Search.cd_level;
          String.concat " ; " c.Search.cd_steps;
          status_cell c;
          (match c.Search.cd_ops with
          | Some o -> string_of_int o
          | None -> "-");
          us c.Search.cd_seconds;
          speedup_cell c.Search.cd_speedup ])
      r.Search.r_cands
  in
  Format.fprintf fmt "%s"
    (Report.Texttable.render
       ~header:[ "lvl"; "steps"; "status"; "ops"; "us"; "speedup" ]
       rows);
  match r.Search.r_best with
  | None ->
      Format.fprintf fmt
        "best: identity retained (no verified candidate beat identity by \
         >= %.0f%%)@\n"
        ((r.Search.r_config.Search.margin -. 1.0) *. 100.)
  | Some b ->
      Format.fprintf fmt "best: %s  (%.2fx speedup, %d ops, verified)@\n"
        (String.concat " ; " b.Search.b_steps)
        b.Search.b_speedup b.Search.b_ops

(* ------------------------------------------------------------------ *)
(* Search-tree flame graph                                             *)
(* ------------------------------------------------------------------ *)

let color (c : Search.cand) =
  match c.Search.cd_status with
  | Search.Verified -> "#8bc34a"
  | Search.Rejected _ -> "#e57373"
  | Search.Timed_out _ -> "#ffb74d"
  | Search.Pruned -> "#b0bec5"

let frame_of (r : Search.t) =
  let key steps = String.concat "\x00" steps in
  let children : (string, Search.cand list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (c : Search.cand) ->
      let parent =
        key (List.filteri (fun i _ -> i < List.length c.Search.cd_steps - 1)
               c.Search.cd_steps)
      in
      let prev = Option.value ~default:[] (Hashtbl.find_opt children parent) in
      Hashtbl.replace children parent (prev @ [ c ]))
    r.Search.r_cands;
  let rec node (c : Search.cand) =
    let kids =
      Option.value ~default:[]
        (Hashtbl.find_opt children (key c.Search.cd_steps))
      |> List.map node
    in
    let w =
      1
      + List.fold_left
          (fun acc (f : Report.Flamegraph.frame) ->
            acc + f.Report.Flamegraph.fr_weight)
          0 kids
    in
    let label =
      match List.rev c.Search.cd_steps with last :: _ -> last | [] -> "?"
    in
    { Report.Flamegraph.fr_label = label;
      fr_title =
        Printf.sprintf "%s [%s]%s" label
          (Search.status_string c.Search.cd_status)
          (match c.Search.cd_speedup with
          | Some x -> Printf.sprintf " %.2fx" x
          | None -> "");
      fr_weight = w;
      fr_color = color c;
      fr_children = kids }
  in
  let top =
    Option.value ~default:[] (Hashtbl.find_opt children (key []))
    |> List.map node
  in
  let w =
    1
    + List.fold_left
        (fun acc (f : Report.Flamegraph.frame) ->
          acc + f.Report.Flamegraph.fr_weight)
        0 top
  in
  { Report.Flamegraph.fr_label = r.Search.r_name ^ " (identity)";
    fr_title =
      Printf.sprintf "%s: %d candidates explored, %d verified"
        r.Search.r_name r.Search.r_explored r.Search.r_verified;
    fr_weight = w;
    fr_color = "#64b5f6";
    fr_children = top }

let svg_of ?width (r : Search.t) =
  Report.Flamegraph.frames_to_svg ?width
    ~title:(Printf.sprintf "autotune search tree: %s" r.Search.r_name)
    (frame_of r)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let opt f = function None -> J.Null | Some x -> f x

let cand_json (c : Search.cand) =
  let reason =
    match c.Search.cd_status with
    | Search.Timed_out m | Search.Rejected m -> J.Str m
    | Search.Verified | Search.Pruned -> J.Null
  in
  J.Obj
    [ ("level", J.Int c.Search.cd_level);
      ("steps", J.List (List.map (fun s -> J.Str s) c.Search.cd_steps));
      ("status", J.Str (Search.status_string c.Search.cd_status));
      ("reason", reason);
      ("score", J.Float c.Search.cd_score);
      ("ops", opt (fun o -> J.Int o) c.Search.cd_ops);
      ("seconds", opt (fun s -> J.Float s) c.Search.cd_seconds);
      ("speedup", opt (fun s -> J.Float s) c.Search.cd_speedup) ]

let best_json (b : Search.best) =
  J.Obj
    [ ("steps", J.List (List.map (fun s -> J.Str s) b.Search.b_steps));
      ("ops", J.Int b.Search.b_ops);
      ("seconds", J.Float b.Search.b_seconds);
      ("speedup", J.Float b.Search.b_speedup);
      ("verified", J.Bool true) ]

let workload_json ~name = function
  | Error e -> J.Obj [ ("name", J.Str name); ("error", J.Str e) ]
  | Ok (r : Search.t) ->
      J.Obj
        [ ("name", J.Str r.Search.r_name);
          ("identity_ops", J.Int r.Search.r_identity_ops);
          ("identity_seconds", J.Float r.Search.r_identity_seconds);
          ("explored", J.Int r.Search.r_explored);
          ("illegal", J.Int r.Search.r_illegal);
          ("apply_failed", J.Int r.Search.r_apply_failed);
          ("pruned", J.Int r.Search.r_pruned);
          ("measured", J.Int r.Search.r_measured);
          ("timeouts", J.Int r.Search.r_timeouts);
          ("rejected", J.Int r.Search.r_rejected);
          ("verified", J.Int r.Search.r_verified);
          ("wall_seconds", J.Float r.Search.r_wall);
          ("best", opt best_json r.Search.r_best);
          ("candidates", J.List (List.map cand_json r.Search.r_cands)) ]

let config_json (c : Search.config) =
  J.Obj
    [ ("beam", J.Int c.Search.beam);
      ("depth", J.Int c.Search.depth);
      ("repeat", J.Int c.Search.repeat);
      ("seed", J.Int c.Search.seed);
      ("tile_sizes", J.List (List.map (fun s -> J.Int s) c.Search.tile_sizes));
      ("max_nests", J.Int c.Search.max_nests);
      ("timeout_factor", J.Float c.Search.timeout_factor);
      ("margin", J.Float c.Search.margin) ]

let improved results =
  List.length
    (List.filter
       (fun (_, r) ->
         match r with Ok s -> s.Search.r_best <> None | Error _ -> false)
       results)

let check results =
  List.filter_map
    (fun (name, r) ->
      match r with
      | Ok { Search.r_best = Some b; r_cands; _ } ->
          let verified (c : Search.cand) =
            c.cd_status = Search.Verified && c.cd_steps = b.b_steps
          in
          if List.exists verified r_cands then None
          else
            Some
              (Printf.sprintf "%s: best schedule %s was never verified" name
                 (String.concat " ; " b.b_steps))
      | _ -> None)
    results

let suite_json ~config results =
  J.Obj
    (J.schema_header ~schema_version:Obs.Schemas.autotune
    @ [ ("bench", J.Str "autotune");
        ("config", config_json config);
        ("workloads",
         J.List
           (List.map (fun (name, r) -> workload_json ~name r) results));
        ("workloads_improved", J.Int (improved results));
        ("all_best_verified", J.Bool (check results = [])) ])
