module J = Json_emit

(* ------------------------------------------------------------------ *)
(* Flattening: a benchmark document becomes dotted numeric metrics.
   Arrays of objects are keyed by their "name" field when they carry
   one (so a reordered workload list still lines up), by index
   otherwise.  Strings and nulls drop out — which is also what makes
   [generated_utc] invisible to the comparator.                        *)
(* ------------------------------------------------------------------ *)

let flatten doc =
  let out = ref [] in
  let join prefix k = if prefix = "" then k else prefix ^ "." ^ k in
  let rec go prefix = function
    | J.Int i -> out := (prefix, float_of_int i) :: !out
    | J.Float f -> out := (prefix, f) :: !out
    | J.Bool b -> out := (prefix, if b then 1.0 else 0.0) :: !out
    | J.Str _ | J.Null -> ()
    | J.Obj fields -> List.iter (fun (k, v) -> go (join prefix k) v) fields
    | J.List items ->
        List.iteri
          (fun i item ->
            let key =
              match J.member "name" item with
              | Some (J.Str n) -> n
              | _ -> string_of_int i
            in
            go (join prefix key) item)
          items
  in
  go "" doc;
  (* first occurrence wins on (unlikely) duplicate paths *)
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (k, _) ->
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    (List.sort compare (List.rev !out))

(* ------------------------------------------------------------------ *)
(* History store: bench/history/<bench>.jsonl, one line per recorded
   run, schema-versioned (Schemas.perfhist)                            *)
(* ------------------------------------------------------------------ *)

type entry = { e_utc : string; e_metrics : (string * float) list }

let history_file ~dir ~bench = Filename.concat dir (bench ^ ".jsonl")

let entry_to_json ~bench metrics =
  J.Obj
    [ ("schema_version", J.Int Schemas.perfhist);
      ("bench", J.Str bench);
      ("generated_utc", J.Str (Clock.wall_iso8601 ()));
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) metrics)) ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let record ~dir ~bench doc =
  mkdir_p dir;
  let line = J.to_string (entry_to_json ~bench (flatten doc)) in
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 (history_file ~dir ~bench)
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc line;
      output_char oc '\n')

let entry_of_line line =
  match J.parse line with
  | Error _ -> None
  | Ok doc -> (
      match (J.member "schema_version" doc, J.member "metrics" doc) with
      | Some (J.Int v), Some (J.Obj fields) when v = Schemas.perfhist ->
          let metrics =
            List.filter_map
              (fun (k, v) ->
                match v with
                | J.Float f -> Some (k, f)
                | J.Int i -> Some (k, float_of_int i)
                | _ -> None)
              fields
          in
          let utc =
            match J.member "generated_utc" doc with
            | Some (J.Str s) -> s
            | _ -> ""
          in
          Some { e_utc = utc; e_metrics = metrics }
      | _ -> None)

let load ~dir ~bench =
  let path = history_file ~dir ~bench in
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let entries = ref [] in
        (try
           while true do
             match entry_of_line (input_line ic) with
             | Some e -> entries := e :: !entries
             | None -> () (* malformed or foreign-schema line: skipped *)
           done
         with End_of_file -> ());
        List.rev !entries)
  end

(* noise-aware baseline: per-metric median over the last [window]
   recorded runs, so one outlier run cannot poison the reference *)
let baseline ~window entries =
  let recent =
    let n = List.length entries in
    List.filteri (fun i _ -> i >= n - max 1 window) entries
  in
  let tbl : (string, float list) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun e ->
      List.iter
        (fun (k, v) ->
          (match Hashtbl.find_opt tbl k with
          | Some vs -> Hashtbl.replace tbl k (v :: vs)
          | None ->
              order := k :: !order;
              Hashtbl.replace tbl k [ v ]))
        e.e_metrics)
    recent;
  List.rev_map (fun k -> (k, Clock.median (Hashtbl.find tbl k))) !order
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Per-metric tolerance bands.  Wall-clock and throughput numbers are
   noisy (machine load, turbo states): 25%.  Allocation and byte
   counts wobble only with GC scheduling: 15%.  Deterministic
   fractions the smoke gates also watch get a tight 2%.  Everything
   else — counts, versions, configuration echoes — is reported as
   informational drift, never gated.                                   *)
(* ------------------------------------------------------------------ *)

type direction = Lower_better | Higher_better | Info_only

let direction_name = function
  | Lower_better -> "lower"
  | Higher_better -> "higher"
  | Info_only -> "info"

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let ends_with ~suffix s =
  let ns = String.length suffix and n = String.length s in
  n >= ns && String.sub s (n - ns) ns = suffix

let classify path =
  let p = String.lowercase_ascii path in
  if
    contains p "schema_version" || contains p "host_cores"
    || contains p "domains" || ends_with ~suffix:"workloads" p
  then (Info_only, 0.0)
  else if contains p "pruned_pct" || contains p "pruned_fraction" then
    (Higher_better, 0.02)
  else if
    contains p "mev_s" || contains p "mb_s" || contains p "per_s"
    || contains p "speedup" || contains p "improvement"
  then (Higher_better, 0.25)
  else if
    contains p "seconds" || ends_with ~suffix:"_ns" p
    || ends_with ~suffix:".ns" p || contains p "latency" || contains p "wall"
  then (Lower_better, 0.25)
  else if
    contains p "minor_words" || contains p "major_words"
    || contains p "heap" || contains p "bytes"
  then (Lower_better, 0.15)
  else (Info_only, 0.0)

(* The wall-clock floor: a [seconds] or [_ns] row that moves by less
   than 2 ms, in its own unit, is timer noise whatever its relative
   change. *)
let abs_floor path =
  let p = String.lowercase_ascii path in
  if contains p "seconds" then 2e-3
  else if ends_with ~suffix:"_ns" p || ends_with ~suffix:".ns" p then 2e6
  else 0.0

type verdict = Within | Regressed | Improved | New_metric | Missing | Info

let verdict_name = function
  | Within -> "ok"
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | New_metric -> "new"
  | Missing -> "missing"
  | Info -> "info"

type row = {
  r_metric : string;
  r_dir : direction;
  r_tol : float;
  r_base : float option;
  r_cur : float option;
  r_delta_pct : float option;  (** (cur - base) / |base| * 100 *)
  r_verdict : verdict;
}

let diff ~baseline:base ~current =
  let base_tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace base_tbl k v) base;
  let cur_tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace cur_tbl k v) current;
  let row_of metric =
    let dir, tol = classify metric in
    let b = Hashtbl.find_opt base_tbl metric in
    let c = Hashtbl.find_opt cur_tbl metric in
    let delta_pct =
      match (b, c) with
      | Some b, Some c when Float.abs b > 0.0 ->
          Some ((c -. b) /. Float.abs b *. 100.0)
      | _ -> None
    in
    let verdict =
      match (b, c, dir) with
      | None, Some _, _ -> New_metric
      | Some _, None, _ -> Missing
      | None, None, _ -> Info
      | Some _, Some _, Info_only -> Info
      | Some b, Some c, _ -> (
          match delta_pct with
          | None ->
              (* baseline is exactly 0: relative drift is undefined, so
                 only an exact match is quiet *)
              if Float.abs (c -. b) <= 1e-12 then Within else Info
          | Some _ when Float.abs (c -. b) < abs_floor metric -> Within
          | Some d ->
              let tol_pct = tol *. 100.0 in
              let worse =
                match dir with
                | Lower_better -> d > tol_pct
                | Higher_better -> d < -.tol_pct
                | Info_only -> false
              in
              let better =
                match dir with
                | Lower_better -> d < -.tol_pct
                | Higher_better -> d > tol_pct
                | Info_only -> false
              in
              if worse then Regressed
              else if better then Improved
              else Within)
    in
    { r_metric = metric; r_dir = dir; r_tol = tol; r_base = b; r_cur = c;
      r_delta_pct = delta_pct; r_verdict = verdict }
  in
  let metrics =
    List.sort_uniq compare (List.map fst base @ List.map fst current)
  in
  List.map row_of metrics

let regressions rows = List.filter (fun r -> r.r_verdict = Regressed) rows

let row_json r =
  J.Obj
    ([ ("metric", J.Str r.r_metric);
       ("direction", J.Str (direction_name r.r_dir));
       ("tolerance_pct", J.Float (r.r_tol *. 100.0));
       ("verdict", J.Str (verdict_name r.r_verdict)) ]
    @ (match r.r_base with Some b -> [ ("baseline", J.Float b) ] | None -> [])
    @ (match r.r_cur with Some c -> [ ("current", J.Float c) ] | None -> [])
    @
    match r.r_delta_pct with
    | Some d -> [ ("delta_pct", J.Float d) ]
    | None -> [])

(* ------------------------------------------------------------------ *)
(* Absolute assertions over a document's flattened metrics             *)
(* ------------------------------------------------------------------ *)

type op = Le | Ge | Eq
type assertion = { a_metric : string; a_op : op; a_value : float }

let op_name = function Le -> "<=" | Ge -> ">=" | Eq -> "=="

let assertion_to_string a =
  Printf.sprintf "%s %s %g" a.a_metric (op_name a.a_op) a.a_value

let assertion_of_string s =
  let find sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
    in
    go 0
  in
  let split op =
    Option.map
      (fun i ->
        let rest = String.sub s (i + 2) (String.length s - i - 2) in
        (op, String.trim (String.sub s 0 i), String.trim rest))
      (find (op_name op))
  in
  match List.filter_map split [ Le; Ge; Eq ] with
  | [ (op, metric, value) ] when metric <> "" -> (
      match float_of_string_opt value with
      | Some v -> Ok { a_metric = metric; a_op = op; a_value = v }
      | None -> Error (Printf.sprintf "%S: %S is not a number" s value))
  | _ -> Error (Printf.sprintf "%S is not 'NAME OP VALUE' with OP one of <=, >=, ==" s)

let check a metrics =
  Option.map
    (fun v ->
      ( v,
        match a.a_op with
        | Le -> v <= a.a_value
        | Ge -> v >= a.a_value
        | Eq -> v = a.a_value ))
    (List.assoc_opt a.a_metric metrics)
