(* [--compare A.json B.json]: one row per workload and end-to-end
   metric, B against A, judged by the bounds in BENCHMARK.json. *)

module J = Obs.Json_emit

type bound = { metric : string; lower_is_better : bool; bound : float }

let num = function J.Float f -> Some f | J.Int i -> Some (float_of_int i) | _ -> None
let field k v = Option.bind (J.member k v) num

let parse path =
  match J.parse_file path with Ok d -> d | Error e -> failwith (path ^ ": " ^ e)

let bounds path =
  match J.member "end_to_end" (parse path) with
  | Some (J.List ms) ->
      List.map
        (fun m ->
          let str k = match J.member k m with Some (J.Str s) -> s | _ -> failwith (path ^ ": bad end_to_end entry") in
          { metric = str "name";
            lower_is_better = str "better" = "lower";
            bound = Option.value ~default:0.0 (field "bound" m) })
        ms
  | _ -> failwith (path ^ ": no end_to_end list")

(* Tracing-off results only: traced runs hold per-layer metrics. *)
let workloads path =
  match J.member "workloads" (parse path) with
  | Some (J.Obj ws) -> List.filter (fun (_, w) -> J.member "traced" w <> Some (J.Bool true)) ws
  | _ -> failwith (path ^ ": no \"workloads\" object")

let summary w name =
  let m = Option.bind (J.member "metrics" w) (J.member name) in
  Option.bind m (fun m ->
      Option.map
        (fun value ->
          { Stats.value;
            q1 = field "q1" m;
            q3 = field "q3" m;
            n = Option.fold ~none:1 ~some:int_of_float (field "n" m) })
        (field "value" m))

let show (s : Stats.summary) =
  match (s.Stats.q1, s.Stats.q3) with
  | Some a, Some b -> Printf.sprintf "%.4g [%.4g, %.4g]" s.Stats.value a b
  | _ -> Printf.sprintf "%.4g" s.Stats.value

(* fail_ratio is not in BENCHMARK.json: any increase over A is a
   regression. *)
let fail_ratio = { metric = "fail_ratio"; lower_is_better = true; bound = 0.0 }

(* setup_s is not judged while both medians lie below this: a set-up of
   a few milliseconds moves by tens of percent with the host's load. *)
let setup_floor_s = 0.005

(* A delta beyond the bound is a regression unless the runs' own
   quartile spread is as large; a spread beyond the bound leaves any
   smaller delta unresolved. *)
let status bd (sa : Stats.summary) (sb : Stats.summary) ~worse =
  let noise = List.fold_left Float.max 0.0 (List.filter_map Stats.spread [ sa; sb ]) in
  if bd.metric = "setup_s" && sa.Stats.value < setup_floor_s && sb.Stats.value < setup_floor_s then
    "ignored (< 5 ms)"
  else if worse > bd.bound && worse > noise then "WORSE"
  else if noise > bd.bound then "unresolved"
  else "ok"

let run ~bounds_path a b =
  let bs = bounds bounds_path @ [ fail_ratio ] in
  let wa = workloads a and wb = workloads b in
  let regressions = ref 0 in
  let rows =
    List.concat_map
      (fun (name, ra) ->
        match List.assoc_opt name wb with
        | None ->
            incr regressions;
            [ [ name; "-"; "-"; "-"; "-"; "-"; "missing in B" ] ]
        | Some rb ->
            List.map
              (fun bd ->
                match (summary ra bd.metric, summary rb bd.metric) with
                | Some sa, Some sb ->
                    let va = sa.Stats.value and vb = sb.Stats.value in
                    let delta = if va = 0.0 then (if vb = 0.0 then 0.0 else infinity) else (vb -. va) /. Float.abs va in
                    let worse = if bd.lower_is_better then delta else -.delta in
                    let status = status bd sa sb ~worse in
                    if status = "WORSE" then incr regressions;
                    [ name; bd.metric; show sa; show sb;
                      Printf.sprintf "%+.1f%%" (100.0 *. delta);
                      Printf.sprintf "%.0f%%" (100.0 *. bd.bound);
                      status ]
                | _ ->
                    incr regressions;
                    [ name; bd.metric; "-"; "-"; "-"; "-"; "missing" ])
              bs)
      wa
  in
  print_string
    (Report.Texttable.render
       ~header:[ "workload"; "metric"; "A median [q1, q3]"; "B median [q1, q3]"; "delta"; "bound"; "status" ]
       rows);
  Printf.printf "%d row(s) beyond their bound\n" !regressions;
  !regressions = 0
