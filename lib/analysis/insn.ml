let operand_regs = function Vm.Isa.Reg r -> [ r ] | Vm.Isa.Imm _ -> []

let instr_uses = function
  | Vm.Isa.Const _ | Vm.Isa.Fconst _ -> []
  | Vm.Isa.Mov (_, o) | Vm.Isa.Load (_, o) | Vm.Isa.Itof (_, o)
  | Vm.Isa.Ftoi (_, o) ->
      operand_regs o
  | Vm.Isa.Bin (_, _, a, b) | Vm.Isa.Fbin (_, _, a, b)
  | Vm.Isa.Cmp (_, _, a, b) | Vm.Isa.Fcmp (_, _, a, b) ->
      operand_regs a @ operand_regs b
  | Vm.Isa.Store (a, v) -> operand_regs a @ operand_regs v

let instr_def = function
  | Vm.Isa.Const (r, _) | Vm.Isa.Fconst (r, _) | Vm.Isa.Mov (r, _)
  | Vm.Isa.Bin (_, r, _, _) | Vm.Isa.Fbin (_, r, _, _)
  | Vm.Isa.Cmp (_, r, _, _) | Vm.Isa.Fcmp (_, r, _, _) | Vm.Isa.Load (r, _)
  | Vm.Isa.Itof (r, _) | Vm.Isa.Ftoi (r, _) ->
      Some r
  | Vm.Isa.Store _ -> None

let term_uses = function
  | Vm.Isa.Jump _ | Vm.Isa.Halt -> []
  | Vm.Isa.Br (c, _, _) -> operand_regs c
  | Vm.Isa.Call { args; _ } -> List.concat_map operand_regs args
  | Vm.Isa.Ret v -> ( match v with Some o -> operand_regs o | None -> [])

let term_def = function
  | Vm.Isa.Call { dst; _ } -> dst
  | Vm.Isa.Jump _ | Vm.Isa.Br _ | Vm.Isa.Ret _ | Vm.Isa.Halt -> None

let n_regs (f : Vm.Prog.func) =
  let top = ref (f.n_params - 1) in
  let see r = if r > !top then top := r in
  Array.iter
    (fun (b : Vm.Prog.block) ->
      Array.iter
        (fun i ->
          List.iter see (instr_uses i);
          Option.iter see (instr_def i))
        b.instrs;
      List.iter see (term_uses b.term);
      Option.iter see (term_def b.term))
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
