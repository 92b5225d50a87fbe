module J = Json_emit

let us_of_ns ns = float_of_int ns /. 1e3

let rec span_events acc (sp : Span.t) =
  let args =
    [ ("minor_words", J.Float sp.Span.sp_minor_words);
      ("major_words", J.Float sp.Span.sp_major_words);
      ("top_heap_words", J.Int sp.Span.sp_top_heap_words) ]
  in
  let ev =
    J.Obj
      [ ("name", J.Str sp.Span.sp_name);
        ("cat", J.Str sp.Span.sp_cat);
        ("ph", J.Str "X");
        ("ts", J.Float (us_of_ns sp.Span.sp_start_ns));
        ("dur", J.Float (us_of_ns sp.Span.sp_dur_ns));
        ("pid", J.Int 1);
        ("tid", J.Int 0);
        ("args", J.Obj args) ]
  in
  List.fold_left span_events (ev :: acc) sp.Span.sp_children

let metric_events ~ts (snap : Metrics.snapshot) =
  List.filter_map
    (fun ((d : Metrics.desc), v) ->
      let value =
        match v with
        | Metrics.Vint n -> Some (J.Int n)
        | Metrics.Vhist h -> Some (J.Int h.Metrics.h_sum)
      in
      Option.map
        (fun value ->
          J.Obj
            [ ("name", J.Str d.Metrics.d_name);
              ("cat", J.Str "metrics");
              ("ph", J.Str "C");
              ("ts", J.Float (us_of_ns ts));
              ("pid", J.Int 1);
              ("args", J.Obj [ ("value", value) ]) ])
        value)
    snap

let to_json ?(process_name = "polyprof") ?(metrics = []) spans =
  let meta =
    J.Obj
      [ ("name", J.Str "process_name");
        ("ph", J.Str "M");
        ("pid", J.Int 1);
        ("args", J.Obj [ ("name", J.Str process_name) ]) ]
  in
  let span_evs = List.rev (List.fold_left span_events [] spans) in
  let last_ts =
    List.fold_left
      (fun acc (sp : Span.t) -> max acc (sp.Span.sp_start_ns + sp.Span.sp_dur_ns))
      0 spans
  in
  J.Obj
    [ ("traceEvents", J.List ((meta :: span_evs) @ metric_events ~ts:last_ts metrics));
      ("displayTimeUnit", J.Str "ms") ]

let to_string ?process_name ?metrics spans =
  J.to_string ~pretty:true (to_json ?process_name ?metrics spans)

let write_file ~path ?process_name ?metrics spans =
  J.write_file ~pretty:true path (to_json ?process_name ?metrics spans)

let validate_file path =
  match J.parse_file path with
  | Error m -> Error m
  | Ok doc -> (
      match J.member "traceEvents" doc with
      | Some (J.List evs) ->
          if
            List.for_all
              (fun ev -> match J.member "ph" ev with Some (J.Str _) -> true | _ -> false)
              evs
          then Ok (List.length evs)
          else Error "traceEvents entry without a \"ph\" phase field"
      | Some _ -> Error "\"traceEvents\" is not an array"
      | None -> Error "no \"traceEvents\" member")
