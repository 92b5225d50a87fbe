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
