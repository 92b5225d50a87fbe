(* Paper Fig. 3, Example 2: folding recursion into a loop dimension.

   M calls D (which calls C), then calls B; B calls C and recursively
   calls itself.  The recursive component {B} behaves like a loop whose
   canonical induction variable advances on every call/return to/from the
   header — so the representation depth stays bounded no matter how deep
   the recursion goes, unlike a calling-context tree.

   This example replays the trace step by step (like Fig. 3i): for every
   raw control event it prints the loop events of Algorithms 1/2 and the
   dynamic IIV after Algorithm 3, then shows the dynamic schedule tree
   and the folded statement domains (Fig. 3j/k).

   Run with:  dune exec examples/recursion_folding.exe *)

let () =
  let hir = Workloads.Figure3.ex2 in
  let prog = Vm.Hir.lower hir in
  let structure = Cfg.Cfg_builder.run prog in

  Format.printf "== recursive-component-set (Fig. 3g) ==@.%a@."
    Cfg.Recset.pp structure.Cfg.Cfg_builder.recset;

  (* replay: loop events + dynamic IIV per control event (Fig. 3i) *)
  let iiv = Ddg.Iiv.create () in
  let levents = Ddg.Loop_events.create structure ~main:prog.Vm.Prog.main in
  let fname fid = Vm.Prog.func_name prog fid in
  let name = function
    | Ddg.Iiv.Cblock (f, b) -> Printf.sprintf "%s%d" (fname f) b
    | Ddg.Iiv.Cloop (f, l) -> Printf.sprintf "%s.L%d" (fname f) l
    | Ddg.Iiv.Ccomp c -> Printf.sprintf "L%d" (c + 1)
  in
  let step = ref 0 in
  let show ev =
    Ddg.Iiv.update iiv ev;
    incr step;
    Format.printf "%3d: %-22s %s@." !step
      (Format.asprintf "%a" Ddg.Loop_events.pp ev)
      (Ddg.Iiv.to_string ~name iiv)
  in
  Ddg.Loop_events.start levents ~emit:show;
  let callbacks =
    { Vm.Interp.on_control = (fun ev -> Ddg.Loop_events.feed levents ~emit:show ev);
      on_exec = ignore }
  in
  let (_ : Vm.Interp.stats) = Vm.Interp.run ~callbacks prog in
  Ddg.Loop_events.finish levents ~emit:show;

  (* the full pipeline: schedule tree + folded domains (Fig. 3j/k) *)
  let t = Polyprof.run_hir hir in
  Format.printf "@.== dynamic schedule tree (Fig. 3j) ==@.%s@."
    (Polyprof.flamegraph_ascii ~width:20 t);
  Format.printf "== folded domains (Fig. 3k) ==@.";
  List.iter
    (fun (s : Ddg.Depprof.stmt_info) ->
      if s.depth = 1 then begin
        Format.printf "  %s at %a:@."
          (fname (Vm.Isa.Sid.fid s.sk.s_sid))
          Vm.Isa.Sid.pp s.sk.s_sid;
        List.iter
          (fun p ->
            Format.printf "    %a@."
              (Fold.pp_piece ~names:[| "i1" |] ?label_names:None)
              p)
          s.s_pieces
      end)
    t.Polyprof.profile.Ddg.Depprof.stmts;
  Format.printf
    "@.note: the IIV depth stayed at 1 while the call stack reached depth \
     %d - recursion was folded into one loop dimension.@."
    t.Polyprof.profile.Ddg.Depprof.run_stats.Vm.Interp.max_depth
