type loc = { file : string; line : int }

type block = {
  bid : int;
  instrs : Isa.instr array;
  term : Isa.terminator;
  block_loc : loc option;
}

type func = {
  fid : int;
  fname : string;
  n_params : int;
  blocks : block array;
  blacklisted : bool;
}

type t = {
  funcs : func array;
  main : int;
  globals : (string * int * int) list;
  mem_size : int;
}

let func_by_name t name =
  match Array.find_opt (fun f -> f.fname = name) t.funcs with
  | Some f -> f
  | None -> invalid_arg ("Prog.func_by_name: no function " ^ name)

let func_name t fid = t.funcs.(fid).fname
let block t ~fid ~bid = t.funcs.(fid).blocks.(bid)

let instr_at t sid =
  let b = block t ~fid:(Isa.Sid.fid sid) ~bid:(Isa.Sid.bid sid) in
  b.instrs.(Isa.Sid.idx sid)

let loc_of_block t ~fid ~bid = (block t ~fid ~bid).block_loc

let n_regs f =
  let top = ref (max 1 f.n_params) in
  let see r = if r >= !top then top := r + 1 in
  Array.iter
    (fun b ->
      Array.iter
        (fun i ->
          see (Isa.def_reg i);
          see (Isa.read_a i);
          see (Isa.read_b i))
        b.instrs;
      List.iter see (Isa.term_reads b.term);
      see (Isa.term_def b.term))
    f.blocks;
  !top

(* ------------------------------------------------------------------ *)
(* Structural well-formedness                                          *)
(* ------------------------------------------------------------------ *)

type wf_error = { wf_fid : int; wf_bid : int; wf_msg : string }

let pp_wf_error fmt e =
  Format.fprintf fmt "f%d.b%d: %s" e.wf_fid e.wf_bid e.wf_msg

(* A cap on register indices: frames grow on demand, but an index this
   large in a *static* program is certainly a builder bug. *)
let max_reg_index = 4095

let wf_errors (t : t) =
  let errs = ref [] in
  let err ~fid ~bid fmt =
    Format.kasprintf
      (fun m -> errs := { wf_fid = fid; wf_bid = bid; wf_msg = m } :: !errs)
      fmt
  in
  let n_funcs = Array.length t.funcs in
  if t.main < 0 || t.main >= n_funcs then
    errs :=
      { wf_fid = t.main; wf_bid = -1; wf_msg = "main function id out of range" }
      :: !errs;
  Array.iteri
    (fun fid (f : func) ->
      let n_blocks = Array.length f.blocks in
      if f.fid <> fid then
        err ~fid ~bid:(-1) "function id field %d does not match index" f.fid;
      if n_blocks = 0 then err ~fid ~bid:(-1) "function has no entry block";
      let check_reg bid what r =
        if r < 0 || r > max_reg_index then
          err ~fid ~bid "%s names register r%d (outside 0..%d)" what r
            max_reg_index
      in
      let check_operand bid what = function
        | Isa.Reg r -> check_reg bid what r
        | Isa.Imm _ -> ()
      in
      let check_target bid what dst =
        if dst < 0 || dst >= n_blocks then
          err ~fid ~bid "%s targets block b%d (function has %d blocks)" what
            dst n_blocks
      in
      Array.iteri
        (fun bid (b : block) ->
          if b.bid <> bid then
            err ~fid ~bid "block id field %d does not match index" b.bid;
          Array.iteri
            (fun idx i ->
              let what =
                Format.asprintf "instruction %d (%a)" idx Isa.pp_instr i
              in
              match i with
              | Isa.Const (r, _) | Isa.Fconst (r, _) -> check_reg bid what r
              | Isa.Mov (r, o) | Isa.Load (r, o) | Isa.Itof (r, o)
              | Isa.Ftoi (r, o) ->
                  check_reg bid what r;
                  check_operand bid what o
              | Isa.Bin (_, r, a, b') | Isa.Fbin (_, r, a, b')
              | Isa.Cmp (_, r, a, b') | Isa.Fcmp (_, r, a, b') ->
                  check_reg bid what r;
                  check_operand bid what a;
                  check_operand bid what b'
              | Isa.Store (a, v) ->
                  check_operand bid what a;
                  check_operand bid what v)
            b.instrs;
          match b.term with
          | Isa.Jump dst -> check_target bid "jump" dst
          | Isa.Br (c, bthen, belse) ->
              check_operand bid "br condition" c;
              check_target bid "br (then)" bthen;
              check_target bid "br (else)" belse
          | Isa.Call { dst; callee; args; cont } ->
              (match dst with Some r -> check_reg bid "call dst" r | None -> ());
              List.iter (check_operand bid "call argument") args;
              check_target bid "call continuation" cont;
              if callee < 0 || callee >= n_funcs then
                err ~fid ~bid "call targets function f%d (program has %d)"
                  callee n_funcs
              else begin
                let g = t.funcs.(callee) in
                let n_args = List.length args in
                if n_args <> g.n_params then
                  err ~fid ~bid
                    "call to %s passes %d argument%s but it declares %d \
                     parameter%s"
                    g.fname n_args
                    (if n_args = 1 then "" else "s")
                    g.n_params
                    (if g.n_params = 1 then "" else "s")
              end
          | Isa.Ret v ->
              Option.iter (check_operand bid "ret value") v
          | Isa.Halt -> ())
        f.blocks)
    t.funcs;
  List.rev !errs

let validate t =
  match wf_errors t with
  | [] -> ()
  | errs ->
      invalid_arg
        (Format.asprintf "malformed MiniVM program:@\n%a"
           (Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_wf_error)
           errs)

let pp fmt t =
  Array.iter
    (fun f ->
      Format.fprintf fmt "func %s (f%d, %d params)%s:@\n" f.fname f.fid
        f.n_params
        (if f.blacklisted then " [blacklisted]" else "");
      Array.iter
        (fun b ->
          Format.fprintf fmt "  b%d:%s@\n" b.bid
            (match b.block_loc with
            | Some l -> Printf.sprintf "   ; %s:%d" l.file l.line
            | None -> "");
          Array.iter (fun i -> Format.fprintf fmt "    %a@\n" Isa.pp_instr i) b.instrs;
          Format.fprintf fmt "    %a@\n" Isa.pp_terminator b.term)
        f.blocks)
    t.funcs

module Builder = struct
  type block_builder = {
    mutable instrs_rev : Isa.instr list;
    mutable term : Isa.terminator option;
    mutable loc : loc option;
  }

  type func_builder = {
    fb_fid : int;
    mutable next_reg : int;
    mutable blocks : block_builder array;
    mutable n_blocks : int;
    pb : prog_builder;
  }

  and prog_builder = {
    mutable fdecls : (string * int * bool) list;  (* name, n_params, blacklisted *)
    mutable fdefs : (int * func) list;
    mutable next_fid : int;
    mutable next_addr : int;
    mutable globals : (string * int * int) list;
  }

  let create () =
    { fdecls = []; fdefs = []; next_fid = 0; next_addr = 16; globals = [] }

  let alloc_global pb name size =
    let base = pb.next_addr in
    pb.next_addr <- pb.next_addr + size;
    pb.globals <- (name, base, size) :: pb.globals;
    base

  let declare_func ?(blacklisted = false) pb name ~n_params =
    let fid = pb.next_fid in
    pb.next_fid <- fid + 1;
    pb.fdecls <- (name, n_params, blacklisted) :: pb.fdecls;
    assert (List.length pb.fdecls = fid + 1);
    fid

  let new_block_builder () = { instrs_rev = []; term = None; loc = None }

  let define_func pb fid =
    let decl_params =
      let name, n, _ = List.nth (List.rev pb.fdecls) fid in
      ignore name;
      n
    in
    let fb =
      { fb_fid = fid;
        next_reg = decl_params;
        blocks = Array.init 8 (fun _ -> new_block_builder ());
        n_blocks = 1;
        pb }
    in
    fb

  let fresh_reg fb =
    let r = fb.next_reg in
    fb.next_reg <- r + 1;
    r

  let grow fb =
    if fb.n_blocks >= Array.length fb.blocks then begin
      let bigger = Array.init (2 * Array.length fb.blocks) (fun _ -> new_block_builder ()) in
      Array.blit fb.blocks 0 bigger 0 (Array.length fb.blocks);
      fb.blocks <- bigger
    end

  let fresh_block ?loc fb =
    grow fb;
    let bid = fb.n_blocks in
    fb.n_blocks <- bid + 1;
    (match loc with Some l -> fb.blocks.(bid).loc <- Some l | None -> ());
    bid

  let set_block_loc fb bid l = fb.blocks.(bid).loc <- Some l
  let emit fb bid i = fb.blocks.(bid).instrs_rev <- i :: fb.blocks.(bid).instrs_rev

  let terminate fb bid t =
    match fb.blocks.(bid).term with
    | Some _ -> invalid_arg "Builder.terminate: block already terminated"
    | None -> fb.blocks.(bid).term <- Some t

  let finish_func fb =
    let name, n_params, blacklisted = List.nth (List.rev fb.pb.fdecls) fb.fb_fid in
    let blocks =
      Array.init fb.n_blocks (fun bid ->
          let bb = fb.blocks.(bid) in
          let term =
            match bb.term with
            | Some t -> t
            | None ->
                invalid_arg
                  (Printf.sprintf "Builder.finish_func %s: block %d not terminated"
                     name bid)
          in
          { bid;
            instrs = Array.of_list (List.rev bb.instrs_rev);
            term;
            block_loc = bb.loc })
    in
    fb.pb.fdefs <-
      (fb.fb_fid, { fid = fb.fb_fid; fname = name; n_params; blocks; blacklisted })
      :: fb.pb.fdefs

  let finish pb ~main =
    let n = pb.next_fid in
    let funcs =
      Array.init n (fun fid ->
          match List.assoc_opt fid pb.fdefs with
          | Some f -> f
          | None ->
              let name, _, _ = List.nth (List.rev pb.fdecls) fid in
              invalid_arg ("Builder.finish: function not defined: " ^ name))
    in
    let t =
      { funcs;
        main = -1;
        globals = List.rev pb.globals;
        mem_size = pb.next_addr }
    in
    let mainf = func_by_name t main in
    let t = { t with main = mainf.fid } in
    validate t;
    t
end
