(* Views of the telemetry captured by [Obs]: a text summary (spans +
   metrics), the BENCH_obs.json document, and a self-flamegraph of the
   span tree on the generic [Flamegraph.frame] renderer. *)

let span_ms ns = float_of_int ns /. 1e6

let pretty_value = function
  | Obs.Metrics.Vint i -> string_of_int i
  | Obs.Metrics.Vhist h ->
      if h.Obs.Metrics.h_count = 0 then "n=0"
      else
        Printf.sprintf "n=%d sum=%d min=%d max=%d p50=%.0f p90=%.0f p99=%.0f"
          h.Obs.Metrics.h_count h.Obs.Metrics.h_sum h.Obs.Metrics.h_min
          h.Obs.Metrics.h_max
          (Obs.Metrics.quantile h 0.5)
          (Obs.Metrics.quantile h 0.9)
          (Obs.Metrics.quantile h 0.99)

let kind_name = function
  | Obs.Metrics.Counter -> "counter"
  | Obs.Metrics.Gauge -> "gauge"
  | Obs.Metrics.Histogram -> "histogram"

let metrics_table (snap : Obs.Metrics.snapshot) =
  Texttable.render
    ~header:[ "metric"; "kind"; "value" ]
    (List.map
       (fun ((d : Obs.Metrics.desc), v) ->
         [ d.Obs.Metrics.d_name; kind_name d.Obs.Metrics.d_kind;
           pretty_value v ])
       snap)

let json ~workloads ~metrics roots =
  let open Obs.Json_emit in
  let rec span_json (s : Obs.Span.t) =
    Obj
      [ ("name", Str s.Obs.Span.sp_name);
        ("cat", Str s.Obs.Span.sp_cat);
        ("dom", Int s.Obs.Span.sp_tid);
        ("dur_ns", Int s.Obs.Span.sp_dur_ns);
        ("minor_words", Float s.Obs.Span.sp_minor_words);
        ("major_words", Float s.Obs.Span.sp_major_words);
        ("top_heap_words", Int s.Obs.Span.sp_top_heap_words);
        ("children", List (List.map span_json s.Obs.Span.sp_children)) ]
  in
  let metric_json ((d : Obs.Metrics.desc), v) =
    let value =
      match v with
      | Obs.Metrics.Vint i -> [ ("value", Int i) ]
      | Obs.Metrics.Vhist h ->
          [ ("count", Int h.Obs.Metrics.h_count);
            ("sum", Int h.Obs.Metrics.h_sum);
            ("min", Int h.Obs.Metrics.h_min);
            ("max", Int h.Obs.Metrics.h_max) ]
    in
    Obj
      (("name", Str d.Obs.Metrics.d_name)
      :: ("kind", Str (kind_name d.Obs.Metrics.d_kind))
      :: value)
  in
  Obj
    (schema_header ~schema_version:Obs.Schemas.obs
    @ [ ("workloads", List (List.map (fun w -> Str w) workloads));
        ("spans", List (List.map span_json roots));
        ("metrics", List (List.map metric_json metrics)) ])

let spans_table (roots : Obs.Span.t list) =
  let rows = ref [] in
  let rec go indent (s : Obs.Span.t) =
    rows :=
      [ indent ^ s.Obs.Span.sp_name;
        Printf.sprintf "%.3f" (span_ms s.Obs.Span.sp_dur_ns);
        string_of_int s.Obs.Span.sp_tid;
        Printf.sprintf "%.0f" s.Obs.Span.sp_minor_words;
        Printf.sprintf "%.0f" s.Obs.Span.sp_major_words;
        string_of_int s.Obs.Span.sp_top_heap_words ]
      :: !rows;
    List.iter (go (indent ^ "  ")) s.Obs.Span.sp_children
  in
  List.iter (go "") roots;
  Texttable.render
    ~header:[ "span"; "ms"; "dom"; "minor_w"; "major_w"; "top_heap_w" ]
    (List.rev !rows)

let summary ?metrics roots =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "Telemetry spans\n";
  Buffer.add_string buf (spans_table roots);
  (match metrics with
  | Some ([] : Obs.Metrics.snapshot) | None -> ()
  | Some snap ->
      Buffer.add_string buf "\nTelemetry metrics\n";
      Buffer.add_string buf (metrics_table snap));
  Buffer.contents buf

(* colour by category so pipeline phases are visually separable *)
let cat_color = function
  | "pipeline" -> "#6fa8dc"
  | "vm" -> "#93c47d"
  | "cfg" -> "#76a5af"
  | "stream" -> "#f6b26b"
  | "ddg" -> "#e06666"
  | "analysis" -> "#8e7cc3"
  | "workload" -> "#ffd966"
  | _ -> "#cccccc"

let rec frame_of_span (s : Obs.Span.t) =
  let label = s.Obs.Span.sp_name in
  { Flamegraph.fr_label = label;
    fr_title =
      Printf.sprintf "%s: %.3f ms (dom %d)" label
        (span_ms s.Obs.Span.sp_dur_ns)
        s.Obs.Span.sp_tid;
    (* weight in ns: the generic renderer only divides, no overflow risk
       for runs far beyond any realistic session length *)
    fr_weight = max 0 s.Obs.Span.sp_dur_ns;
    fr_color = cat_color s.Obs.Span.sp_cat;
    fr_children = List.map frame_of_span s.Obs.Span.sp_children }

let flamegraph_svg ?width (roots : Obs.Span.t list) =
  let children = List.map frame_of_span roots in
  let total = List.fold_left (fun acc f -> acc + f.Flamegraph.fr_weight) 0 children in
  let root =
    { Flamegraph.fr_label = "telemetry";
      fr_title = Printf.sprintf "telemetry: %.3f ms" (span_ms total);
      fr_weight = max 1 total;
      fr_color = "#cccccc";
      fr_children = children }
  in
  let title =
    Printf.sprintf "poly-prof self-profile flame graph (total %.3f ms)"
      (span_ms total)
  in
  Flamegraph.frames_to_svg ?width ~title root

let write_flamegraph_svg ~path ?width roots =
  let oc = open_out path in
  output_string oc (flamegraph_svg ?width roots);
  close_out oc
