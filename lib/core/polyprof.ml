module Prog_hash = Prog_hash

let version = "1.1.0"

type t = {
  prog : Vm.Prog.t;
  hir : Vm.Hir.program option;
  profile : Ddg.Depprof.result;
  analysis : Sched.Depanalysis.t;
  feedback : Sched.Feedback.t;
}

let run_internal ?config ?max_steps ?args ~hir prog =
  Obs.Span.with_ ~cat:"pipeline" "pipeline.run" @@ fun () ->
  let profile =
    Obs.Span.with_ ~cat:"pipeline" "pipeline.profile" @@ fun () ->
    Ddg.Depprof.profile ?config ?max_steps ?args prog
  in
  let analysis =
    Obs.Span.with_ ~cat:"pipeline" "pipeline.depanalysis" @@ fun () ->
    Sched.Depanalysis.analyse prog profile
  in
  let feedback =
    Obs.Span.with_ ~cat:"pipeline" "pipeline.feedback" @@ fun () ->
    Sched.Feedback.make prog profile analysis
  in
  { prog; hir; profile; analysis; feedback }

let run ?config ?max_steps ?args prog =
  run_internal ?config ?max_steps ?args ~hir:None prog

let run_hir ?config ?max_steps ?args hir =
  let prog = Vm.Hir.lower hir in
  run_internal ?config ?max_steps ?args ~hir:(Some hir) prog

let metrics ?ld_src ?fusion_strategy ~name t =
  let ld_src =
    match ld_src with
    | Some d -> d
    | None -> (
        match t.hir with Some h -> Vm.Hir.max_loop_depth h | None -> 0)
  in
  Sched.Metrics.compute ~name ~ld_src ?fusion_strategy t.prog t.profile
    t.analysis

let ctx_name t c =
  let fname fid =
    if fid >= 0 && fid < Array.length t.prog.Vm.Prog.funcs then
      t.prog.Vm.Prog.funcs.(fid).Vm.Prog.fname
    else "f" ^ string_of_int fid
  in
  match c with
  | Ddg.Iiv.Cblock (f, b) -> Printf.sprintf "%s.b%d" (fname f) b
  | Ddg.Iiv.Cloop (f, l) -> Printf.sprintf "%s.L%d" (fname f) l
  | Ddg.Iiv.Ccomp c -> Printf.sprintf "rec%d" c

let flamegraph_svg ?width t =
  let annot = Report.Flamegraph.annot_of_analysis t.prog t.analysis in
  Report.Flamegraph.to_svg ?width ~annot ~name:(ctx_name t) t.profile.Ddg.Depprof.stree

let flamegraph_ascii ?width t =
  Report.Flamegraph.to_ascii ?width ~name:(ctx_name t) t.profile.Ddg.Depprof.stree

let render_feedback fmt t = Sched.Feedback.render fmt t.feedback

(* Apply the feedback's suggested schedules to the HIR source and verify
   each one differentially (Xform.Driver): the end-to-end oracle that
   the profiler, folder and scheduler are telling the truth. *)
let apply_and_verify ?eps ?max_steps ?max_plans ~name hir =
  Xform.Driver.apply_and_verify ?eps ?max_steps ?max_plans ~name hir

(* Close the PGO loop: walk the legal schedule space of the program with
   the verified beam search (Tune.Search) and report the best measured,
   differentially verified schedule. *)
let autotune ?config ~name hir = Tune.Search.run ?config ~name hir
