(* The parallelism certifier's report: per workload, the static verdict
   of every claimed-parallel chain dimension and (unless static-only)
   one run under the race sanitizer cross-checked against it. *)

type dynamic = {
  d_sanitizer : Ddg.Race_san.report;
  d_diags : Analysis.Diag.t list;
  d_seconds : float;
}

type row = {
  r_name : string;
  r_dims : Analysis.Parcheck.dim_report list;
  r_static_s : float;
  r_dynamic : dynamic option;
}

let measure ?(static_only = false) (w : Workload.t) =
  let prog = Vm.Hir.lower w.Workload.hir in
  let pc, t_static =
    Obs.Clock.timed (fun () -> Analysis.Parcheck.analyse prog)
  in
  let dynamic =
    if static_only then None
    else
      let san, t_san =
        Obs.Clock.timed (fun () -> Analysis.Parcheck.sanitize pc)
      in
      Some
        { d_sanitizer = san;
          d_diags = Analysis.Parcheck.crosscheck pc san;
          d_seconds = t_san }
  in
  { r_name = w.Workload.w_name;
    r_dims = pc.Analysis.Parcheck.pc_dims;
    r_static_s = t_static;
    r_dynamic = dynamic }

let count code r = Analysis.Parcheck.count_verdict code r.r_dims
let on_certified d = Ddg.Race_san.races_on_certified d.d_sanitizer
let accesses d = d.d_sanitizer.Ddg.Race_san.sr_accesses
let xcheck_ok d = Analysis.Parcheck.crosscheck_ok d.d_diags

let all_races d =
  List.fold_left
    (fun a (cs : Ddg.Race_san.claim_stats) -> a + cs.Ddg.Race_san.cs_n_races)
    0 d.d_sanitizer.Ddg.Race_san.sr_claims

let unsound r =
  match r.r_dynamic with
  | Some d when on_certified d > 0 || not (xcheck_ok d) ->
      Some
        (String.concat "; "
           (Printf.sprintf "%s: %d sanitizer race(s) on certified dims"
              r.r_name (on_certified d)
           :: List.map Analysis.Diag.to_string
                (List.filter Analysis.Diag.is_error d.d_diags)))
  | _ -> None

let sum f rows = List.fold_left (fun a r -> a + f r) 0 rows
let dynamic_sum f rows =
  sum (fun r -> Option.fold ~none:0 ~some:f r.r_dynamic) rows
let certified rows = sum (count "certified") rows

let check rows =
  List.filter_map unsound rows
  @
  let c = certified rows in
  if c >= 5 then []
  else [ Printf.sprintf "%d certified dims suite-wide, fewer than 5" c ]

let table rows =
  let dyn = List.exists (fun r -> r.r_dynamic <> None) rows in
  let header =
    [ "benchmark"; "dims"; "certified"; "race"; "unknown"; "static s" ]
    @
    if dyn then [ "san acc"; "san races"; "races on cert"; "xcheck"; "san s" ]
    else []
  in
  let cells r =
    List.map string_of_int
      [ List.length r.r_dims; count "certified" r; count "race" r;
        count "unknown" r ]
    @ [ Printf.sprintf "%.4f" r.r_static_s ]
    @
    match r.r_dynamic with
    | None -> []
    | Some d ->
        [ string_of_int (accesses d);
          string_of_int (all_races d);
          string_of_int (on_certified d);
          (if xcheck_ok d then "ok" else "FAIL!");
          Printf.sprintf "%.4f" d.d_seconds ]
  in
  Report.Texttable.render ~header
    (List.map (fun r -> r.r_name :: cells r) rows)
  ^ Printf.sprintf
      "\nsuite: %d claimed dims, %d certified, %d racy, %d unknown%s\n"
      (sum (fun r -> List.length r.r_dims) rows)
      (certified rows)
      (sum (count "race") rows)
      (sum (count "unknown") rows)
      (if dyn then
         Printf.sprintf
           "; sanitizer races on certified dims: %d (soundness requires 0)"
           (dynamic_sum on_certified rows)
       else "")

let json rows =
  let open Obs.Json_emit in
  let dyn = List.for_all (fun r -> r.r_dynamic <> None) rows in
  let row_json r =
    let d f = match r.r_dynamic with Some d -> f d | None -> [] in
    Obj
      ([ ("name", Str r.r_name);
         ("dims", Int (List.length r.r_dims));
         ("certified", Int (count "certified" r));
         ("racy", Int (count "race" r));
         ("unknown", Int (count "unknown" r)) ]
      @ d (fun d ->
            [ ("sanitizer_accesses", Int (accesses d));
              ("sanitizer_races_on_certified", Int (on_certified d));
              ("crosscheck_ok", Bool (xcheck_ok d)) ])
      @ [ ("static_seconds", Float r.r_static_s) ]
      @ d (fun d -> [ ("sanitizer_seconds", Float d.d_seconds) ]))
  in
  Obj
    (schema_header ~schema_version:Obs.Schemas.parcheck
    @ [ ("dims", Int (sum (fun r -> List.length r.r_dims) rows));
        ("certified", Int (certified rows));
        ("racy", Int (sum (count "race") rows));
        ("unknown", Int (sum (count "unknown") rows)) ]
    @ (if dyn then
         [ ( "sanitizer_races_on_certified",
             Int (dynamic_sum on_certified rows) );
           ( "all_sound",
             Bool (List.for_all (fun r -> unsound r = None) rows) ) ]
       else [])
    @ [ ("workloads", List (List.map row_json rows)) ])

let dim_json (d : Analysis.Parcheck.dim_report) =
  let open Obs.Json_emit in
  let module P = Analysis.Parcheck in
  Obj
    ([ ("fid", Int d.P.dr_fid);
       ("header", Int d.P.dr_header);
       ("depth", Int d.P.dr_depth);
       ( "loc",
         match d.P.dr_loc with
         | Some l -> Str (Printf.sprintf "%s:%d" l.Vm.Prog.file l.Vm.Prog.line)
         | None -> Null );
       ("verdict", Str (P.verdict_code d.P.dr_verdict)) ]
    @
    match d.P.dr_verdict with
    | P.Certified c ->
        [ ("pairs", Int c.P.ct_pairs);
          ("private_regions", Int (List.length c.P.ct_private));
          ("reduction_accesses", Int (List.length c.P.ct_reductions)) ]
    | P.Race ws -> [ ("witnesses", Int (List.length ws)) ]
    | P.Unknown why -> [ ("reason", Str why) ])

let claim_json (cs : Ddg.Race_san.claim_stats) =
  let open Obs.Json_emit in
  let module S = Ddg.Race_san in
  Obj
    [ ("label", Str cs.S.cs_claim.S.cl_label);
      ("certified", Bool cs.S.cs_claim.S.cl_certified);
      ("instances", Int cs.S.cs_instances);
      ("iterations", Int cs.S.cs_iterations);
      ("races", Int cs.S.cs_n_races);
      ("covered", Int cs.S.cs_covered) ]

let workload_json r =
  let open Obs.Json_emit in
  Obj
    ([ ("name", Str r.r_name);
       ("dims", List (List.map dim_json r.r_dims));
       ("certified", Int (count "certified" r));
       ("races", Int (count "race" r)) ]
    @
    match r.r_dynamic with
    | None -> []
    | Some d ->
        [ ( "sanitizer",
            Obj
              [ ("accesses", Int (accesses d));
                ("races_on_certified", Int (on_certified d));
                ( "claims",
                  List
                    (List.map claim_json
                       d.d_sanitizer.Ddg.Race_san.sr_claims) ) ] );
          ("crosscheck_ok", Bool (xcheck_ok d));
          ( "diagnostics",
            List (List.map (fun g -> Str (Analysis.Diag.to_string g)) d.d_diags)
          ) ])
