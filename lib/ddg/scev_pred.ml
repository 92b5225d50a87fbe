module Isa = Vm.Isa
module Loopnest = Cfg.Loopnest

(* By function id, then block id, then index in the block. *)
type t = bool array array array

let none = [||]

let mem t sid =
  let fid = Isa.Sid.fid sid and bid = Isa.Sid.bid sid and i = Isa.Sid.idx sid in
  fid < Array.length t
  && bid < Array.length t.(fid)
  && i < Array.length t.(fid).(bid)
  && t.(fid).(bid).(i)

(* ------------------------------------------------------------------ *)
(* Control facts of one executed function                               *)
(* ------------------------------------------------------------------ *)

(* The analysis runs before every profile, so it is written to allocate
   little: loops and top-level recursive helpers rather than closures. *)

type fn = {
  fid : int;
  func : Vm.Prog.func;
  rpo : int array;  (* executed blocks in reverse postorder from block 0 *)
  preds : int list array;  (* by block *)
  idom : int array;  (* by block: immediate dominator; the entry's is itself *)
  inner : int array;  (* by block: innermost loop id, or -1 *)
  loops : Loopnest.loop array;  (* by loop id *)
  parent : int array;  (* by loop id: parent loop id, or -1 *)
  reducible : bool array;  (* by loop id: the header dominates every member *)
  header_exit : bool array;  (* by loop id: only the header leaves the loop *)
  exits : int list;  (* blocks ending in [Ret] or [Halt] *)
}

let leaves_function (b : Vm.Prog.block) =
  match b.term with
  | Isa.Ret _ | Isa.Halt -> true
  | Isa.Jump _ | Isa.Br _ | Isa.Call _ -> false

let rec dominates idom a b =
  a = b
  ||
  let d = idom.(b) in
  d >= 0 && d <> b && dominates idom a d

let rec dominates_all idom a = function
  | [] -> true
  | b :: bs -> dominates idom a b && dominates_all idom a bs

let rec dominates_latches idom a = function
  | [] -> true
  | (s, _) :: es -> dominates idom a s && dominates_latches idom a es

let rec in_loop parent l x = x >= 0 && (x = l || in_loop parent l parent.(x))

let rec all_in_loop parent inner l = function
  | [] -> true
  | s :: ss -> in_loop parent l inner.(s) && all_in_loop parent inner l ss

(* Cooper, Harvey and Kennedy's iterative dominators over the RPO. *)
let rec intersect idom order a b =
  if a = b then a
  else if order.(a) > order.(b) then intersect idom order idom.(a) b
  else intersect idom order a idom.(b)

let rec meet idom order d = function
  | [] -> d
  | p :: ps ->
      let d = if idom.(p) < 0 then d else if d < 0 then p else intersect idom order p d in
      meet idom order d ps

let facts (prog : Vm.Prog.t) (fid, forest, g) =
  let func = prog.funcs.(fid) in
  let nb = Array.length func.blocks in
  let rpo = Array.of_list (Cfg.Digraph.reverse_postorder g ~root:0) in
  let order = Array.make nb (-1) in
  let preds = Array.make nb [] in
  let exits = ref [] in
  for i = Array.length rpo - 1 downto 0 do
    let b = rpo.(i) in
    order.(b) <- i;
    preds.(b) <- Cfg.Digraph.preds g b;
    if leaves_function func.blocks.(b) then exits := b :: !exits
  done;
  let idom = Array.make nb (-1) in
  idom.(0) <- 0;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to Array.length rpo - 1 do
      let b = rpo.(i) in
      let d = meet idom order (-1) preds.(b) in
      if d <> idom.(b) then begin
        idom.(b) <- d;
        changed := true
      end
    done
  done;
  let loops = Array.of_list (Loopnest.all_loops forest) in
  Array.sort (fun (a : Loopnest.loop) b -> compare a.loop_id b.loop_id) loops;
  let nl = Array.length loops in
  let parent = Array.make nl (-1) in
  (* a loop's id is below its children's: the deepest loop marks last *)
  let inner = Array.make nb (-1) in
  for l = 0 to nl - 1 do
    parent.(l) <- Option.value ~default:(-1) loops.(l).parent_id;
    List.iter (fun m -> inner.(m) <- l) loops.(l).members
  done;
  let reducible = Array.make nl true and header_exit = Array.make nl true in
  for l = 0 to nl - 1 do
    let h = loops.(l).header in
    List.iter
      (fun m ->
        if not (dominates idom h m) then reducible.(l) <- false;
        if
          m <> h
          && (leaves_function func.blocks.(m)
             || not (all_in_loop parent inner l (Cfg.Digraph.succs g m)))
        then header_exit.(l) <- false)
      loops.(l).members
  done;
  { fid; func; rpo; preds; idom; inner; loops; parent; reducible; header_exit;
    exits = !exits }

(* [b], a block of loop [l] outside its inner loops or the header of a
   child of [l], runs once on every iteration of [l] that returns to the
   header. *)
let every_iteration fn b l =
  let lp = fn.loops.(l) in
  b = lp.header || dominates_latches fn.idom b lp.back_edges

(* The executions of block [b] fill a polyhedron of its iteration
   vector whenever every loop trip count is affine (see the
   interface). *)
let block_regular fn ~main b =
  let top_level b = fn.fid = main || dominates_all fn.idom b fn.exits in
  let rec loop_regular l =
    fn.reducible.(l) && fn.header_exit.(l)
    &&
    let h = fn.loops.(l).header in
    match fn.parent.(l) with
    | -1 -> top_level h
    | p -> every_iteration fn h p && loop_regular p
  in
  match fn.inner.(b) with
  | -1 -> top_level b
  | l -> every_iteration fn b l && loop_regular l

(* Functions every execution of which is a regular block's single call:
   [main], or non-recursive functions all of whose call sites are
   regular blocks of such functions. *)
let regular_functions (prog : Vm.Prog.t) (s : Cfg.Cfg_builder.structure) fns =
  let state = Array.make (Array.length prog.funcs) 0 in
  (* 0 unknown, 1 in progress, 2 regular, 3 not *)
  let rec regular fid =
    match state.(fid) with
    | 2 -> true
    | 1 | 3 -> false
    | _ ->
        state.(fid) <- 1;
        let ok =
          Option.is_some fns.(fid)
          && Option.is_none (Cfg.Recset.component_of s.recset fid)
          && (fid = prog.main
             ||
             let sites = List.filter (fun (_, _, callee) -> callee = fid) s.call_sites in
             sites <> []
             && List.for_all
                  (fun (caller, site, _) ->
                    regular caller
                    &&
                    match fns.(caller) with
                    | Some c -> block_regular c ~main:prog.main site
                    | None -> false)
                  sites)
        in
        state.(fid) <- (if ok then 2 else 3);
        ok
  in
  Array.init (Array.length prog.funcs) regular

(* ------------------------------------------------------------------ *)
(* Register values as affine forms over the loop counters              *)
(* ------------------------------------------------------------------ *)

(* A value is [top] (unknown) or [v] with [v.(0) + sum_l v.(1 + l) * k_l],
   where [k_l] is the IIV coordinate of the function's loop [l]. *)
let top : int array = [||]
let is_top v = Array.length v = 0

(* [r]'s step when [blk.instrs.(i)] is [r := r + c], or [r := t] with
   [t := r + c] the last definition of [t] before it in the block. *)
let increment (blk : Vm.Prog.block) i r =
  let step t = function
    | Isa.Bin (Isa.Add, d, Isa.Reg s, Isa.Imm c)
    | Isa.Bin (Isa.Add, d, Isa.Imm c, Isa.Reg s)
      when d = t && s = r ->
        Some c
    | Isa.Bin (Isa.Sub, d, Isa.Reg s, Isa.Imm c) when d = t && s = r -> Some (-c)
    | _ -> None
  in
  match blk.instrs.(i) with
  | Isa.Mov (_, Isa.Reg t) when t <> r ->
      let rec back j =
        if j < 0 then None
        else if Isa.def_reg blk.instrs.(j) = t then step t blk.instrs.(j)
        else back (j - 1)
      in
      back (i - 1)
  | instr -> step r instr

(* One forward pass over the executed blocks in reverse postorder: a
   block's entry state joins the states leaving its predecessors (a
   back edge contributes nothing: [enter_loop] accounts for it), and
   its instructions are evaluated in one register file [cur].  Block
   states hold only the registers whose values cross a block boundary
   (HIR variables, mostly); the temporaries an expression lowers to
   live in [cur] alone. *)
let analyse_values fn ~main (marks : bool array array) =
  let blocks = fn.func.blocks in
  let width = Array.length fn.loops + 1 in
  let nregs = Vm.Prog.n_regs fn.func in
  (* [slot]: a crossing register's index in the block states, or -1.  A
     register crosses when a block reads it before defining it, or when
     two blocks define it. *)
  let slot = Array.make nregs (-1) and last = Array.make nregs (-1) in
  let n = ref 0 in
  let cross r =
    if slot.(r) < 0 then begin
      slot.(r) <- !n;
      incr n
    end
  in
  let use b r = if r >= 0 && last.(r) <> b then cross r in
  let def b r =
    if r >= 0 then begin
      if last.(r) >= 0 && last.(r) <> b then cross r;
      last.(r) <- b
    end
  in
  for j = 0 to Array.length fn.rpo - 1 do
    let b = fn.rpo.(j) in
    let blk = blocks.(b) in
    for i = 0 to Array.length blk.instrs - 1 do
      let ins = blk.instrs.(i) in
      use b (Isa.read_a ins);
      use b (Isa.read_b ins);
      def b (Isa.def_reg ins)
    done;
    List.iter (use b) (Isa.term_reads blk.term);
    def b (Isa.term_def blk.term)
  done;
  let n = !n in
  let crossing = Array.make n 0 in
  for r = 0 to nregs - 1 do
    if slot.(r) >= 0 then crossing.(slot.(r)) <- r
  done;
  let cur = Array.make nregs top in
  let const c =
    let v = Array.make width 0 in
    v.(0) <- c;
    v
  in
  let known = function Isa.Imm _ -> true | Isa.Reg r -> not (is_top cur.(r)) in
  let coef o i =
    match o with Isa.Imm c -> if i = 0 then c else 0 | Isa.Reg r -> cur.(r).(i)
  in
  let is_const o =
    match o with
    | Isa.Imm _ -> true
    | Isa.Reg r ->
        let v = cur.(r) in
        let rec go i = i >= width || (v.(i) = 0 && go (i + 1)) in
        go 1
  in
  (* [ka * a + kb * b] *)
  let combine ka a kb b =
    let v = Array.make width 0 in
    for i = 0 to width - 1 do
      v.(i) <- (ka * coef a i) + (kb * coef b i)
    done;
    v
  in
  let shift_ok b = is_const b && coef b 0 >= 0 && coef b 0 < Sys.int_size in
  let value = function
    | Isa.Const (_, c) | Isa.Mov (_, Isa.Imm c) -> const c
    | Isa.Mov (_, Isa.Reg s) -> cur.(s)
    | Isa.Bin (op, _, a, b) when known a && known b -> (
        let both = is_const a && is_const b in
        let x = coef a 0 and y = coef b 0 in
        match op with
        | Isa.Add -> combine 1 a 1 b
        | Isa.Sub -> combine 1 a (-1) b
        | Isa.Mul when is_const a -> combine x b 0 b
        | Isa.Mul when is_const b -> combine y a 0 a
        | Isa.Shl when shift_ok b -> combine (1 lsl y) a 0 a
        | Isa.Div when both && y <> 0 -> const (x / y)
        | Isa.Rem when both && y <> 0 -> const (x mod y)
        | Isa.And when both -> const (x land y)
        | Isa.Or when both -> const (x lor y)
        | Isa.Xor when both -> const (x lxor y)
        | Isa.Shr when both && shift_ok b -> const (x asr y)
        | Isa.Mul | Isa.Shl | Isa.Div | Isa.Rem | Isa.And | Isa.Or | Isa.Xor | Isa.Shr ->
            top)
    | Isa.Bin _ | Isa.Fconst _ | Isa.Fbin _ | Isa.Cmp _ | Isa.Fcmp _ | Isa.Load _
    | Isa.Itof _ | Isa.Ftoi _ | Isa.Store _ ->
        top
  in
  (* the crossing registers leaving each block, once it is done *)
  let out = Array.make (Array.length blocks) [||] in
  let finished = Array.make (Array.length blocks) false in
  let all_top = Array.make n top in
  (* the state along edge [p -> b]: values over the counter of a loop
     [p] leaves become unknown *)
  let along p b =
    if not finished.(p) then all_top
    else begin
      let s = out.(p) in
      let st = ref s in
      let l = ref fn.inner.(p) in
      while !l >= 0 && not (in_loop fn.parent !l fn.inner.(b)) do
        for k = 0 to n - 1 do
          let v = !st.(k) in
          if (not (is_top v)) && v.(!l + 1) <> 0 then begin
            if !st == s then st := Array.copy s;
            !st.(k) <- top
          end
        done;
        l := fn.parent.(!l)
      done;
      !st
    end
  in
  (* [a] joined with [b], in place when [a] is [fresh] *)
  let join ~fresh a b =
    if a == b then a
    else begin
      let a = if fresh then a else Array.copy a in
      for k = 0 to n - 1 do
        if not (a.(k) == b.(k) || a.(k) = b.(k)) then a.(k) <- top
      done;
      a
    end
  in
  (* the state at the header of loop [l], from the state entering it *)
  let ndefs = Array.make nregs 0 in
  let def_blk = Array.make nregs 0 and def_idx = Array.make nregs 0 in
  let enter_loop st l =
    let def r b i =
      if r >= 0 && slot.(r) >= 0 then begin
        ndefs.(r) <- ndefs.(r) + 1;
        def_blk.(r) <- b;
        def_idx.(r) <- i
      end
    in
    List.iter
      (fun b ->
        let blk = blocks.(b) in
        for i = 0 to Array.length blk.instrs - 1 do
          def (Isa.def_reg blk.instrs.(i)) b i
        done;
        def (Isa.term_def blk.term) b (-1))
      fn.loops.(l).members;
    let st = Array.copy st in
    for k = 0 to n - 1 do
      let r = crossing.(k) in
      if ndefs.(r) > 0 then begin
        let entry = st.(k) and b = def_blk.(r) and i = def_idx.(r) in
        st.(k) <- top;
        (if ndefs.(r) = 1 && i >= 0 && (not (is_top entry)) && fn.reducible.(l)
            && fn.inner.(b) = l && every_iteration fn b l
         then
           match increment blocks.(b) i r with
           | Some c ->
               let v = Array.copy entry in
               v.(l + 1) <- v.(l + 1) + c;
               st.(k) <- v
           | None -> ());
        ndefs.(r) <- 0
      end
    done;
    st
  in
  let rec entry_state b heads l acc fresh = function
    | [] -> if acc == [||] then all_top else acc
    | p :: ps ->
        (* a back edge carries no entry value *)
        if heads && in_loop fn.parent l fn.inner.(p) then
          entry_state b heads l acc fresh ps
        else
          let s = along p b in
          if acc == [||] then entry_state b heads l s false ps
          else
            let j = join ~fresh acc s in
            entry_state b heads l j (fresh || j != acc) ps
  in
  for j = 0 to Array.length fn.rpo - 1 do
    let b = fn.rpo.(j) in
    let l = fn.inner.(b) in
    let heads = l >= 0 && fn.loops.(l).header = b in
    let st = entry_state b heads l [||] false fn.preds.(b) in
    let st = if heads then enter_loop st l else st in
    for k = 0 to n - 1 do
      cur.(crossing.(k)) <- st.(k)
    done;
    let blk = blocks.(b) in
    let mark = block_regular fn ~main b in
    for i = 0 to Array.length blk.instrs - 1 do
      let ins = blk.instrs.(i) in
      let r = Isa.def_reg ins in
      if r >= 0 then begin
        let v = value ins in
        if mark && not (is_top v) then begin
          if Array.length marks.(b) = 0 then
            marks.(b) <- Array.make (Array.length blk.instrs) false;
          marks.(b).(i) <- true
        end;
        cur.(r) <- v
      end
    done;
    let r = Isa.term_def blk.term in
    if r >= 0 then cur.(r) <- top;
    let changed = ref false in
    for k = 0 to n - 1 do
      if cur.(crossing.(k)) != st.(k) then changed := true
    done;
    out.(b) <- (if !changed then Array.init n (fun k -> cur.(crossing.(k))) else st);
    finished.(b) <- true
  done

let compute (prog : Vm.Prog.t) (s : Cfg.Cfg_builder.structure) =
  let fns = Array.make (Array.length prog.funcs) None in
  List.iter (fun ((fid, _, _) as cfg) -> fns.(fid) <- Some (facts prog cfg)) s.cfgs;
  let regular = regular_functions prog s fns in
  Array.mapi
    (fun fid fn ->
      match fn with
      | Some fn when regular.(fid) ->
          let marks = Array.make (Array.length fn.func.blocks) [||] in
          analyse_values fn ~main:prog.main marks;
          marks
      | Some _ | None -> [||])
    fns
