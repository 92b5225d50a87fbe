(* Paper §8-style overhead accounting: how much slower a workload runs
   under each profiling configuration, relative to its uninstrumented
   native interpretation. *)

type row = {
  r_mode : string;
  r_seconds : float;
  r_slowdown : float;  (** vs the native row *)
}

type t = {
  o_name : string;
  o_accesses : int;  (** dynamic memory accesses *)
  o_dyn_instrs : int;
  o_rows : row list;  (** native first *)
}

(* best-of-[repeat] wall time: mini workloads run in milliseconds, the
   minimum is the usual noise-robust estimator *)
let time ~repeat f =
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to max 1 repeat do
    let t0 = Obs.Clock.monotonic () in
    let r = f () in
    let dt = Obs.Clock.monotonic () -. t0 in
    if dt < !best then best := dt;
    last := Some r
  done;
  (Option.get !last, !best)

let measure ?(repeat = 3) (w : Workload.t) =
  let prog = Vm.Hir.lower w.Workload.hir in
  let stats, t_native = time ~repeat (fun () -> Vm.Interp.run prog) in
  let _, t_inst = time ~repeat (fun () -> Ddg.Depprof.profile prog) in
  (* static pruning: the plan is compile-time work, computed outside the
     timed region like the paper's ahead-of-time analysis *)
  let plan = (Analysis.Statdep.analyse prog).Analysis.Statdep.plan in
  let _, t_pruned =
    time ~repeat (fun () -> Ddg.Depprof.profile ~static_prune:plan prog)
  in
  let row mode s =
    { r_mode = mode; r_seconds = s; r_slowdown = s /. (t_native +. 1e-9) }
  in
  { o_name = w.Workload.w_name;
    o_accesses = stats.Vm.Interp.dyn_mem_ops;
    o_dyn_instrs = stats.Vm.Interp.dyn_instrs;
    o_rows =
      [ row "native" t_native;
        row "instrumented" t_inst;
        row "static-pruned" t_pruned ] }

let table (o : t) =
  let rows =
    List.map
      (fun r ->
        [ r.r_mode;
          Printf.sprintf "%.4f" r.r_seconds;
          Printf.sprintf "%.1fx" r.r_slowdown ])
      o.o_rows
  in
  Printf.sprintf "%s: %d memory accesses, %d instrs\n%s" o.o_name o.o_accesses
    o.o_dyn_instrs
    (Report.Texttable.render ~header:[ "Mode"; "Seconds"; "Slowdown" ] rows)

let json (o : t) =
  let open Obs.Json_emit in
  Obj
    (schema_header ~schema_version:Obs.Schemas.overhead
    @ [ ("benchmark", Str o.o_name);
        ("accesses", Int o.o_accesses);
        ("dyn_instrs", Int o.o_dyn_instrs);
        ( "rows",
          List
            (List.map
               (fun r ->
                 Obj
                   [ ("mode", Str r.r_mode);
                     ("seconds", Float r.r_seconds);
                     ("slowdown", Float r.r_slowdown) ])
               o.o_rows) ) ])
