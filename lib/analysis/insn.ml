let n_regs (f : Vm.Prog.func) =
  let top = ref (f.n_params - 1) in
  let see r = if r > !top then top := r in
  Array.iter
    (fun (b : Vm.Prog.block) ->
      Array.iter
        (fun i ->
          see (Vm.Isa.def_reg i);
          see (Vm.Isa.read_a i);
          see (Vm.Isa.read_b i))
        b.instrs;
      List.iter see (Vm.Isa.term_reads b.term);
      see (Vm.Isa.term_def b.term))
    f.blocks;
  !top + 1

let static_cfg (f : Vm.Prog.func) =
  let g = Cfg.Digraph.create () in
  let n = Array.length f.blocks in
  Array.iter
    (fun (b : Vm.Prog.block) ->
      Cfg.Digraph.add_node g b.bid;
      List.iter
        (fun dst -> if dst >= 0 && dst < n then Cfg.Digraph.add_edge g b.bid dst)
        (Vm.Isa.term_succs b.term))
    f.blocks;
  g

let term_sid ~fid (b : Vm.Prog.block) =
  Vm.Isa.Sid.make ~fid ~bid:b.bid ~idx:(Array.length b.instrs)
