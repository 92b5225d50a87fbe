type expr =
  | Int of int
  | Flt of float
  | Var of string
  | Base of string
  | Bin of Isa.binop * expr * expr
  | Fbin of Isa.fbinop * expr * expr
  | Cmp of Isa.cmpop * expr * expr
  | Fcmp of Isa.cmpop * expr * expr
  | Load of expr
  | Itof of expr
  | Ftoi of expr
  | Callf of string * expr list

type stmt =
  | Let of string * expr
  | Store of expr * expr
  | For of for_loop
  | While of { cond : expr; wbody : stmt list; wloc : Prog.loc option }
  | If of expr * stmt list * stmt list
  | CallS of string option * string * expr list
  | Return of expr option
  | Break

and for_loop = {
  v : string;
  lo : expr;
  hi : expr;
  step : int;
  body : stmt list;
  floc : Prog.loc option;
  unroll : bool;
}

type fattr = May_alias

type fundef = {
  name : string;
  params : string list;
  body : stmt list;
  blacklisted : bool;
  attrs : fattr list;
}

type program = {
  funs : fundef list;
  arrays : (string * int) list;
  main : string;
}

let fundef ?(blacklisted = false) ?(attrs = []) name params body =
  { name; params; body; blacklisted; attrs }

let for_ ?loc ?(step = 1) ?(unroll = false) v lo hi body =
  For { v; lo; hi; step; body; floc = loc; unroll }

let while_ ?loc cond wbody = While { cond; wbody; wloc = loc }

let rec stmt_depth = function
  | For { body; _ } -> 1 + stmts_depth body
  | While { wbody; _ } -> 1 + stmts_depth wbody
  | If (_, a, b) -> max (stmts_depth a) (stmts_depth b)
  | Let _ | Store _ | CallS _ | Return _ | Break -> 0

and stmts_depth stmts = List.fold_left (fun acc s -> max acc (stmt_depth s)) 0 stmts

let loop_depth f = stmts_depth f.body

let max_loop_depth p =
  List.fold_left (fun acc f -> max acc (loop_depth f)) 0 p.funs

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

exception Lower_error of string

let err fmt = Format.kasprintf (fun s -> raise (Lower_error s)) fmt

type lenv = {
  fb : Prog.Builder.func_builder;
  vars : (string, Isa.reg) Hashtbl.t;
  fids : (string, int) Hashtbl.t;
  bases : (string, int) Hashtbl.t;
  mutable break_targets : int list;  (* exit blocks of enclosing loops *)
}

let reg_of_var env name =
  match Hashtbl.find_opt env.vars name with
  | Some r -> r
  | None ->
      let r = Prog.Builder.fresh_reg env.fb in
      Hashtbl.add env.vars name r;
      r

(* Compile an expression into [cur] (which may advance past calls);
   returns the operand holding the result. *)
let rec compile_expr env (cur : int ref) (e : expr) : Isa.operand =
  let emit i = Prog.Builder.emit env.fb !cur i in
  let into instr_of_reg =
    let r = Prog.Builder.fresh_reg env.fb in
    emit (instr_of_reg r);
    Isa.Reg r
  in
  match e with
  | Int n -> Isa.Imm n
  | Flt f -> into (fun r -> Isa.Fconst (r, f))
  | Var name -> (
      match Hashtbl.find_opt env.vars name with
      | Some r -> Isa.Reg r
      | None -> err "use of undefined variable %s" name)
  | Base name -> (
      match Hashtbl.find_opt env.bases name with
      | Some addr -> Isa.Imm addr
      | None -> err "unknown array %s" name)
  | Bin (op, a, b) ->
      let oa = compile_expr env cur a in
      let ob = compile_expr env cur b in
      into (fun r -> Isa.Bin (op, r, oa, ob))
  | Fbin (op, a, b) ->
      let oa = compile_expr env cur a in
      let ob = compile_expr env cur b in
      into (fun r -> Isa.Fbin (op, r, oa, ob))
  | Cmp (op, a, b) ->
      let oa = compile_expr env cur a in
      let ob = compile_expr env cur b in
      into (fun r -> Isa.Cmp (op, r, oa, ob))
  | Fcmp (op, a, b) ->
      let oa = compile_expr env cur a in
      let ob = compile_expr env cur b in
      into (fun r -> Isa.Fcmp (op, r, oa, ob))
  | Load a ->
      let oa = compile_expr env cur a in
      into (fun r -> Isa.Load (r, oa))
  | Itof a ->
      let oa = compile_expr env cur a in
      into (fun r -> Isa.Itof (r, oa))
  | Ftoi a ->
      let oa = compile_expr env cur a in
      into (fun r -> Isa.Ftoi (r, oa))
  | Callf (name, args) ->
      let oargs = List.map (compile_expr env cur) args in
      let callee =
        match Hashtbl.find_opt env.fids name with
        | Some fid -> fid
        | None -> err "call to unknown function %s" name
      in
      let r = Prog.Builder.fresh_reg env.fb in
      let cont = Prog.Builder.fresh_block env.fb in
      Prog.Builder.terminate env.fb !cur
        (Isa.Call { dst = Some r; callee; args = oargs; cont });
      cur := cont;
      Isa.Reg r

(* Substitute a variable by an integer constant (for full unrolling). *)
let rec subst_expr name value = function
  | Var n when n = name -> Int value
  | (Int _ | Flt _ | Var _ | Base _) as e -> e
  | Bin (op, a, b) -> Bin (op, subst_expr name value a, subst_expr name value b)
  | Fbin (op, a, b) -> Fbin (op, subst_expr name value a, subst_expr name value b)
  | Cmp (op, a, b) -> Cmp (op, subst_expr name value a, subst_expr name value b)
  | Fcmp (op, a, b) -> Fcmp (op, subst_expr name value a, subst_expr name value b)
  | Load a -> Load (subst_expr name value a)
  | Itof a -> Itof (subst_expr name value a)
  | Ftoi a -> Ftoi (subst_expr name value a)
  | Callf (f, args) -> Callf (f, List.map (subst_expr name value) args)

let rec subst_stmt name value = function
  | Let (n, e) -> Let (n, subst_expr name value e)
  | Store (a, v) -> Store (subst_expr name value a, subst_expr name value v)
  | For fl ->
      if fl.v = name then For fl  (* shadowed *)
      else
        For
          { fl with
            lo = subst_expr name value fl.lo;
            hi = subst_expr name value fl.hi;
            body = List.map (subst_stmt name value) fl.body }
  | While { cond; wbody; wloc } ->
      While
        { cond = subst_expr name value cond;
          wbody = List.map (subst_stmt name value) wbody;
          wloc }
  | If (c, a, b) ->
      If
        ( subst_expr name value c,
          List.map (subst_stmt name value) a,
          List.map (subst_stmt name value) b )
  | CallS (dst, f, args) -> CallS (dst, f, List.map (subst_expr name value) args)
  | Return e -> Return (Option.map (subst_expr name value) e)
  | Break -> Break

(* Compile statements into [cur].  Returns false if control cannot fall
   through (the block was terminated by return/break). *)
let rec compile_stmts env (cur : int ref) ~in_main stmts =
  match stmts with
  | [] -> true
  | s :: rest ->
      let falls = compile_stmt env cur ~in_main s in
      if falls then compile_stmts env cur ~in_main rest
      else begin
        (if rest <> [] then
           (* unreachable code after return/break: drop it *)
           ());
        false
      end

and compile_stmt env cur ~in_main = function
  | Let (name, e) ->
      let o = compile_expr env cur e in
      let r = reg_of_var env name in
      Prog.Builder.emit env.fb !cur (Isa.Mov (r, o));
      true
  | Store (a, v) ->
      let oa = compile_expr env cur a in
      let ov = compile_expr env cur v in
      Prog.Builder.emit env.fb !cur (Isa.Store (oa, ov));
      true
  | CallS (dst, name, args) ->
      let oargs = List.map (compile_expr env cur) args in
      let callee =
        match Hashtbl.find_opt env.fids name with
        | Some fid -> fid
        | None -> err "call to unknown function %s" name
      in
      let dst_reg = Option.map (reg_of_var env) dst in
      let cont = Prog.Builder.fresh_block env.fb in
      Prog.Builder.terminate env.fb !cur
        (Isa.Call { dst = dst_reg; callee; args = oargs; cont });
      cur := cont;
      true
  | Return e ->
      let o = Option.map (compile_expr env cur) e in
      if in_main then Prog.Builder.terminate env.fb !cur Isa.Halt
      else Prog.Builder.terminate env.fb !cur (Isa.Ret o);
      false
  | Break -> (
      match env.break_targets with
      | [] -> err "break outside of a loop"
      | target :: _ ->
          Prog.Builder.terminate env.fb !cur (Isa.Jump target);
          false)
  | If (c, then_s, else_s) ->
      let oc = compile_expr env cur c in
      let bthen = Prog.Builder.fresh_block env.fb in
      let belse = Prog.Builder.fresh_block env.fb in
      let bmerge = Prog.Builder.fresh_block env.fb in
      Prog.Builder.terminate env.fb !cur (Isa.Br (oc, bthen, belse));
      let ct = ref bthen in
      if compile_stmts env ct ~in_main then_s then
        Prog.Builder.terminate env.fb !ct (Isa.Jump bmerge);
      let ce = ref belse in
      if compile_stmts env ce ~in_main else_s then
        Prog.Builder.terminate env.fb !ce (Isa.Jump bmerge);
      cur := bmerge;
      true
  | While { cond; wbody; wloc } ->
      let header = Prog.Builder.fresh_block ?loc:wloc env.fb in
      let body = Prog.Builder.fresh_block env.fb in
      let exit_b = Prog.Builder.fresh_block env.fb in
      Prog.Builder.terminate env.fb !cur (Isa.Jump header);
      let ch = ref header in
      let oc = compile_expr env ch cond in
      Prog.Builder.terminate env.fb !ch (Isa.Br (oc, body, exit_b));
      env.break_targets <- exit_b :: env.break_targets;
      let cb = ref body in
      if compile_stmts env cb ~in_main wbody then
        Prog.Builder.terminate env.fb !cb (Isa.Jump header);
      env.break_targets <- List.tl env.break_targets;
      cur := exit_b;
      true
  | For { v; lo; hi; step; body; floc; unroll } when unroll -> (
      (* full unrolling: requires constant bounds *)
      match (lo, hi) with
      | Int l, Int h ->
          ignore floc;
          let k = ref l in
          let falls = ref true in
          while !falls && !k < h do
            let unrolled = List.map (subst_stmt v !k) body in
            falls := compile_stmts env cur ~in_main unrolled;
            k := !k + step
          done;
          !falls
      | _ -> err "unroll requires constant loop bounds (loop on %s)" v)
  | For { v; lo; hi; step; body; floc; unroll = _ } ->
      let olo = compile_expr env cur lo in
      let rv = reg_of_var env v in
      Prog.Builder.emit env.fb !cur (Isa.Mov (rv, olo));
      let header = Prog.Builder.fresh_block ?loc:floc env.fb in
      let bbody = Prog.Builder.fresh_block env.fb in
      let latch = Prog.Builder.fresh_block env.fb in
      let exit_b = Prog.Builder.fresh_block env.fb in
      Prog.Builder.terminate env.fb !cur (Isa.Jump header);
      let ch = ref header in
      let ohi = compile_expr env ch hi in
      let t = Prog.Builder.fresh_reg env.fb in
      Prog.Builder.emit env.fb !ch (Isa.Cmp (Isa.Clt, t, Isa.Reg rv, ohi));
      Prog.Builder.terminate env.fb !ch (Isa.Br (Isa.Reg t, bbody, exit_b));
      env.break_targets <- exit_b :: env.break_targets;
      let cb = ref bbody in
      if compile_stmts env cb ~in_main body then
        Prog.Builder.terminate env.fb !cb (Isa.Jump latch);
      env.break_targets <- List.tl env.break_targets;
      Prog.Builder.emit env.fb latch
        (Isa.Bin (Isa.Add, rv, Isa.Reg rv, Isa.Imm step));
      Prog.Builder.terminate env.fb latch (Isa.Jump header);
      cur := exit_b;
      true

let obs_lowered_funcs = Obs.Metrics.counter ~help:"functions lowered to bytecode" "vm.lower.funcs"
let obs_lowered_globals = Obs.Metrics.counter ~help:"global arrays allocated by lowering" "vm.lower.globals"

let lower (p : program) : Prog.t =
  Obs.Span.with_ ~cat:"vm" "hir.lower" @@ fun () ->
  Obs.Metrics.add obs_lowered_funcs (List.length p.funs);
  Obs.Metrics.add obs_lowered_globals (List.length p.arrays);
  let pb = Prog.Builder.create () in
  let bases = Hashtbl.create 16 in
  List.iter
    (fun (name, size) ->
      Hashtbl.add bases name (Prog.Builder.alloc_global pb name size))
    p.arrays;
  let fids = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let fid =
        Prog.Builder.declare_func ~blacklisted:f.blacklisted pb f.name
          ~n_params:(List.length f.params)
      in
      Hashtbl.add fids f.name fid)
    p.funs;
  List.iter
    (fun f ->
      let fb = Prog.Builder.define_func pb (Hashtbl.find fids f.name) in
      let env = { fb; vars = Hashtbl.create 16; fids; bases; break_targets = [] } in
      List.iteri (fun i param -> Hashtbl.add env.vars param i) f.params;
      let cur = ref 0 in
      let in_main = f.name = p.main in
      if compile_stmts env cur ~in_main f.body then
        if in_main then Prog.Builder.terminate env.fb !cur Isa.Halt
        else Prog.Builder.terminate env.fb !cur (Isa.Ret None);
      Prog.Builder.finish_func fb)
    p.funs;
  try Prog.Builder.finish pb ~main:p.main
  with Invalid_argument m -> err "%s" m

(* ------------------------------------------------------------------ *)
(* Pretty-printing: a C-like source listing                            *)
(* ------------------------------------------------------------------ *)

let binop_sym = function
  | Isa.Add -> "+" | Isa.Sub -> "-" | Isa.Mul -> "*" | Isa.Div -> "/"
  | Isa.Rem -> "%" | Isa.And -> "&" | Isa.Or -> "|" | Isa.Xor -> "^"
  | Isa.Shl -> "<<" | Isa.Shr -> ">>"

let fbinop_sym = function
  | Isa.Fadd -> "+." | Isa.Fsub -> "-." | Isa.Fmul -> "*." | Isa.Fdiv -> "/."

let cmpop_sym = function
  | Isa.Ceq -> "==" | Isa.Cne -> "!=" | Isa.Clt -> "<" | Isa.Cle -> "<="
  | Isa.Cgt -> ">" | Isa.Cge -> ">="

let rec pp_expr fmt = function
  | Int n -> Format.fprintf fmt "%d" n
  | Flt x -> Format.fprintf fmt "%g" x
  | Var v -> Format.fprintf fmt "%s" v
  | Base a -> Format.fprintf fmt "&%s" a
  | Bin (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp_expr a (binop_sym op) pp_expr b
  | Fbin (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp_expr a (fbinop_sym op) pp_expr b
  | Cmp (op, a, b) | Fcmp (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp_expr a (cmpop_sym op) pp_expr b
  | Load (Bin (Isa.Add, Base a, idx)) -> Format.fprintf fmt "%s[%a]" a pp_expr idx
  | Load a -> Format.fprintf fmt "*(%a)" pp_expr a
  | Itof a -> Format.fprintf fmt "(float)%a" pp_expr a
  | Ftoi a -> Format.fprintf fmt "(int)%a" pp_expr a
  | Callf (f, args) ->
      Format.fprintf fmt "%s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
           pp_expr)
        args

let rec pp_stmt_indent indent fmt s =
  let pad = String.make indent ' ' in
  match s with
  | Let (v, e) -> Format.fprintf fmt "%s%s = %a;" pad v pp_expr e
  | Store (Bin (Isa.Add, Base a, idx), e) ->
      Format.fprintf fmt "%s%s[%a] = %a;" pad a pp_expr idx pp_expr e
  | Store (a, e) -> Format.fprintf fmt "%s*(%a) = %a;" pad pp_expr a pp_expr e
  | CallS (None, f, args) ->
      Format.fprintf fmt "%s%s(%a);" pad f
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") pp_expr)
        args
  | CallS (Some v, f, args) ->
      Format.fprintf fmt "%s%s = %s(%a);" pad v f
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") pp_expr)
        args
  | Return None -> Format.fprintf fmt "%sreturn;" pad
  | Return (Some e) -> Format.fprintf fmt "%sreturn %a;" pad pp_expr e
  | Break -> Format.fprintf fmt "%sbreak;" pad
  | If (c, a, []) ->
      Format.fprintf fmt "%sif %a {@
%a@
%s}" pad pp_expr c
        (pp_stmts_indent (indent + 2)) a pad
  | If (c, a, b) ->
      Format.fprintf fmt "%sif %a {@
%a@
%s} else {@
%a@
%s}" pad pp_expr c
        (pp_stmts_indent (indent + 2)) a pad
        (pp_stmts_indent (indent + 2)) b pad
  | While { cond; wbody; _ } ->
      Format.fprintf fmt "%swhile %a {@
%a@
%s}" pad pp_expr cond
        (pp_stmts_indent (indent + 2)) wbody pad
  | For { v; lo; hi; step; body; floc; unroll } ->
      Format.fprintf fmt "%sfor (%s = %a; %s < %a; %s += %d)%s%s {@
%a@
%s}"
        pad v pp_expr lo v pp_expr hi v step
        (if unroll then " /* unrolled */" else "")
        (match floc with
        | Some l -> Printf.sprintf " /* %s:%d */" l.Prog.file l.Prog.line
        | None -> "")
        (pp_stmts_indent (indent + 2))
        body pad

and pp_stmts_indent indent fmt stmts =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.fprintf fmt "@
")
    (pp_stmt_indent indent) fmt stmts

let pp_program fmt (p : program) =
  List.iter
    (fun (name, size) -> Format.fprintf fmt "float %s[%d];@
" name size)
    p.arrays;
  List.iter
    (fun f ->
      Format.fprintf fmt "@
%s%s(%s)%s {@
%a@
}@
"
        (if f.blacklisted then "/* library */ " else "")
        f.name
        (String.concat ", " f.params)
        (if List.mem May_alias f.attrs then " /* may-alias */" else "")
        (pp_stmts_indent 2) f.body)
    p.funs

module Dsl = struct
  let i n = Int n
  let f x = Flt x
  let v name = Var name
  let base name = Base name
  let ( +! ) a b = Bin (Isa.Add, a, b)
  let ( -! ) a b = Bin (Isa.Sub, a, b)
  let ( *! ) a b = Bin (Isa.Mul, a, b)
  let ( /! ) a b = Bin (Isa.Div, a, b)
  let ( %! ) a b = Bin (Isa.Rem, a, b)
  let ( <! ) a b = Cmp (Isa.Clt, a, b)
  let ( <=! ) a b = Cmp (Isa.Cle, a, b)
  let ( >! ) a b = Cmp (Isa.Cgt, a, b)
  let ( >=! ) a b = Cmp (Isa.Cge, a, b)
  let ( ==! ) a b = Cmp (Isa.Ceq, a, b)
  let ( <>! ) a b = Cmp (Isa.Cne, a, b)
  let ( +? ) a b = Fbin (Isa.Fadd, a, b)
  let ( -? ) a b = Fbin (Isa.Fsub, a, b)
  let ( *? ) a b = Fbin (Isa.Fmul, a, b)
  let ( /? ) a b = Fbin (Isa.Fdiv, a, b)
  let ( <? ) a b = Fcmp (Isa.Clt, a, b)
  let ( >? ) a b = Fcmp (Isa.Cgt, a, b)
  let load a = Load a
  let ( .%[] ) name idx = Load (Bin (Isa.Add, Base name, idx))
  let store name idx value = Store (Bin (Isa.Add, Base name, idx), value)
end
