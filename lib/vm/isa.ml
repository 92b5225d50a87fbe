type reg = int
type operand = Reg of reg | Imm of int
type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
type fbinop = Fadd | Fsub | Fmul | Fdiv
type cmpop = Ceq | Cne | Clt | Cle | Cgt | Cge

type instr =
  | Const of reg * int
  | Fconst of reg * float
  | Mov of reg * operand
  | Bin of binop * reg * operand * operand
  | Fbin of fbinop * reg * operand * operand
  | Cmp of cmpop * reg * operand * operand
  | Fcmp of cmpop * reg * operand * operand
  | Load of reg * operand
  | Store of operand * operand
  | Itof of reg * operand
  | Ftoi of reg * operand

type terminator =
  | Jump of int
  | Br of operand * int * int
  | Call of { dst : reg option; callee : int; args : operand list; cont : int }
  | Ret of operand option
  | Halt

type op_class = Int_alu | Fp_alu | Mem_load | Mem_store | Other_op

let class_of_instr = function
  | Const _ | Mov _ | Bin _ | Cmp _ -> Int_alu
  | Fconst _ | Fbin _ | Fcmp _ | Itof _ | Ftoi _ -> Fp_alu
  | Load _ -> Mem_load
  | Store _ -> Mem_store

let is_fp i = class_of_instr i = Fp_alu
let is_mem i = match class_of_instr i with Mem_load | Mem_store -> true | _ -> false

let reg_of = function Reg r -> r | Imm _ -> -1

let def_reg = function
  | Const (r, _) | Fconst (r, _) | Mov (r, _) | Bin (_, r, _, _)
  | Fbin (_, r, _, _) | Cmp (_, r, _, _) | Fcmp (_, r, _, _) | Load (r, _)
  | Itof (r, _) | Ftoi (r, _) ->
      r
  | Store _ -> -1

let read_a = function
  | Const _ | Fconst _ -> -1
  | Mov (_, a) | Load (_, a) | Itof (_, a) | Ftoi (_, a) | Bin (_, _, a, _)
  | Fbin (_, _, a, _) | Cmp (_, _, a, _) | Fcmp (_, _, a, _) | Store (a, _) ->
      reg_of a

let read_b = function
  | Bin (_, _, _, b) | Fbin (_, _, _, b) | Cmp (_, _, _, b) | Fcmp (_, _, _, b)
  | Store (_, b) ->
      reg_of b
  | Const _ | Fconst _ | Mov _ | Load _ | Itof _ | Ftoi _ -> -1

let reads i =
  match (read_a i, read_b i) with
  | -1, -1 -> []
  | a, -1 | -1, a -> [ a ]
  | a, b -> [ a; b ]

let term_def = function Call { dst = Some r; _ } -> r | _ -> -1

let term_reads = function
  | Call { args; _ } ->
      List.filter_map (function Reg r -> Some r | Imm _ -> None) args
  | Br (Reg r, _, _) | Ret (Some (Reg r)) -> [ r ]
  | Br (Imm _, _, _) | Ret (Some (Imm _)) | Ret None | Jump _ | Halt -> []

let term_succs = function
  | Jump d -> [ d ]
  | Br (_, t, e) -> if t = e then [ t ] else [ t; e ]
  | Call { cont; _ } -> [ cont ]
  | Ret _ | Halt -> []

module Sid = struct
  type t = int

  (* 12 bits fid | 12 bits bid | 12 bits idx *)
  let bits = 12
  let mask = (1 lsl bits) - 1

  let make ~fid ~bid ~idx =
    assert (fid >= 0 && fid <= mask);
    assert (bid >= 0 && bid <= mask);
    assert (idx >= 0 && idx <= mask);
    (fid lsl (2 * bits)) lor (bid lsl bits) lor idx

  let fid t = (t lsr (2 * bits)) land mask
  let bid t = (t lsr bits) land mask
  let idx t = t land mask
  let pp fmt t = Format.fprintf fmt "f%d.b%d.i%d" (fid t) (bid t) (idx t)
  let to_string t = Format.asprintf "%a" pp t
end

let pp_operand fmt = function
  | Reg r -> Format.fprintf fmt "r%d" r
  | Imm i -> Format.fprintf fmt "#%d" i

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"

let fbinop_name = function
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

let cmpop_name = function
  | Ceq -> "eq" | Cne -> "ne" | Clt -> "lt" | Cle -> "le" | Cgt -> "gt" | Cge -> "ge"

let pp_instr fmt = function
  | Const (r, i) -> Format.fprintf fmt "r%d := %d" r i
  | Fconst (r, f) -> Format.fprintf fmt "r%d := %g" r f
  | Mov (r, o) -> Format.fprintf fmt "r%d := %a" r pp_operand o
  | Bin (op, r, a, b) ->
      Format.fprintf fmt "r%d := %s %a, %a" r (binop_name op) pp_operand a pp_operand b
  | Fbin (op, r, a, b) ->
      Format.fprintf fmt "r%d := %s %a, %a" r (fbinop_name op) pp_operand a pp_operand b
  | Cmp (op, r, a, b) ->
      Format.fprintf fmt "r%d := cmp.%s %a, %a" r (cmpop_name op) pp_operand a pp_operand b
  | Fcmp (op, r, a, b) ->
      Format.fprintf fmt "r%d := fcmp.%s %a, %a" r (cmpop_name op) pp_operand a pp_operand b
  | Load (r, a) -> Format.fprintf fmt "r%d := load [%a]" r pp_operand a
  | Store (a, v) -> Format.fprintf fmt "store [%a] := %a" pp_operand a pp_operand v
  | Itof (r, o) -> Format.fprintf fmt "r%d := itof %a" r pp_operand o
  | Ftoi (r, o) -> Format.fprintf fmt "r%d := ftoi %a" r pp_operand o

let pp_terminator fmt = function
  | Jump b -> Format.fprintf fmt "jump b%d" b
  | Br (c, t, e) -> Format.fprintf fmt "br %a, b%d, b%d" pp_operand c t e
  | Call { dst; callee; args; cont } ->
      Format.fprintf fmt "call f%d(%a)%s -> b%d" callee
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
           pp_operand)
        args
        (match dst with Some r -> Printf.sprintf " => r%d" r | None -> "")
        cont
  | Ret None -> Format.fprintf fmt "ret"
  | Ret (Some o) -> Format.fprintf fmt "ret %a" pp_operand o
  | Halt -> Format.fprintf fmt "halt"
