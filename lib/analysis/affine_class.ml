type sym = Ind of { loop : int; ind_reg : Vm.Isa.reg } | Par of int

type lin = { lbase : int; lterms : (sym * int) list }

type value = Lin of lin | Loaded | Mixed | Opaque

type access = {
  acc_sid : Vm.Isa.Sid.t;
  acc_store : bool;
  acc_addr : value;
  acc_range : (int * int) option;
  acc_depth : int;
}

type call_site = {
  cs_callee : int;
  cs_sid : Vm.Isa.Sid.t;
  cs_args : int option array;
}

type loop_info = {
  li_id : int;
  li_header : int;
  li_trip : int option;
  li_trip_lin : lin option;
  li_counters : (Vm.Isa.reg * lin option * int) list;
}

type func_result = {
  fr_fid : int;
  fr_forest : Cfg.Loopnest.t;
  fr_accesses : access list;
  fr_calls : call_site list;
  fr_loops : loop_info list;
}

(* ------------------------------------------------------------------ *)
(* Linear-expression algebra                                           *)
(* ------------------------------------------------------------------ *)

let lconst c = { lbase = c; lterms = [] }

let lnorm terms =
  List.filter (fun (_, c) -> c <> 0) (List.sort compare terms)

let lmerge f a b =
  let rec go x y =
    match (x, y) with
    | [], r -> List.map (fun (s, c) -> (s, f 0 c)) r
    | l, [] -> List.map (fun (s, c) -> (s, f c 0)) l
    | (sa, ca) :: ta, (sb, cb) :: tb ->
        let cmp = compare sa sb in
        if cmp = 0 then (sa, f ca cb) :: go ta tb
        else if cmp < 0 then (sa, f ca 0) :: go ta ((sb, cb) :: tb)
        else (sb, f 0 cb) :: go ((sa, ca) :: ta) tb
  in
  lnorm (go a b)

let ladd a b = { lbase = a.lbase + b.lbase; lterms = lmerge ( + ) a.lterms b.lterms }
let lsub a b = { lbase = a.lbase - b.lbase; lterms = lmerge ( - ) a.lterms b.lterms }
let lscale k l =
  if k = 0 then lconst 0
  else { lbase = k * l.lbase; lterms = lnorm (List.map (fun (s, c) -> (s, k * c)) l.lterms) }

let lin_const = function
  | { lbase; lterms = [] } -> Some lbase
  | _ -> None

let tainted = function Loaded | Mixed -> true | Lin _ | Opaque -> false

let vjoin a b =
  if a = b then a
  else
    match (a, b) with
    | (Loaded | Mixed), (Loaded | Mixed) -> Mixed
    | _ -> Opaque

let vadd a b =
  match (a, b) with
  | Lin x, Lin y -> Lin (ladd x y)
  | Loaded, Lin _ | Lin _, Loaded -> Loaded  (* base pointer + affine offset *)
  | x, y when tainted x || tainted y -> Mixed
  | _ -> Opaque

let vsub a b =
  match (a, b) with
  | Lin x, Lin y -> Lin (lsub x y)
  | Loaded, Lin _ -> Loaded
  | x, y when tainted x || tainted y -> Mixed
  | _ -> Opaque

let vmul a b =
  match (a, b) with
  | Lin x, Lin y -> (
      match (lin_const x, lin_const y) with
      | Some k, _ -> Lin (lscale k y)
      | _, Some k -> Lin (lscale k x)
      | None, None -> Opaque)
  | x, y when tainted x || tainted y -> Mixed
  | _ -> Opaque

let vbin op a b =
  match op with
  | Vm.Isa.Add -> vadd a b
  | Vm.Isa.Sub -> vsub a b
  | Vm.Isa.Mul -> vmul a b
  | Vm.Isa.Div | Vm.Isa.Rem | Vm.Isa.And | Vm.Isa.Or | Vm.Isa.Xor
  | Vm.Isa.Shl | Vm.Isa.Shr ->
      if tainted a || tainted b then Mixed else Opaque

let vcast v = if tainted v then Mixed else Opaque

(* ------------------------------------------------------------------ *)
(* Per-function analysis                                               *)
(* ------------------------------------------------------------------ *)

type loop_ctx = {
  lc_loop : Cfg.Loopnest.loop;
  lc_members : (int, unit) Hashtbl.t;
  lc_inds : (Vm.Isa.reg * int) list;  (** induction register, step *)
  mutable lc_bounds : (Vm.Isa.reg * (int * int * int)) list;
      (** per bounded induction register: lo, tight hi, wide hi *)
  mutable lc_trip : int option;
      (** constant body-execution count, from the branching counter *)
  mutable lc_trip_lin : lin option;
      (** body-execution count as a linear expression over enclosing
          induction symbols (a constant when [lc_trip] is set); the
          consumer clamps it at 0 *)
}

let member lc bid = Hashtbl.mem lc.lc_members bid

(* induction candidates: registers whose only definition inside the loop
   region is [r := r + const] *)
let induction_candidates (f : Vm.Prog.func) (lc_members : (int, unit) Hashtbl.t) =
  let defs : (Vm.Isa.reg, int * Vm.Isa.instr option) Hashtbl.t =
    Hashtbl.create 8
  in
  let count r i =
    let n, _ = Option.value ~default:(0, None) (Hashtbl.find_opt defs r) in
    Hashtbl.replace defs r (n + 1, if n = 0 then i else None)
  in
  Array.iter
    (fun (b : Vm.Prog.block) ->
      if Hashtbl.mem lc_members b.bid then begin
        Array.iter
          (fun i ->
            let r = Vm.Isa.def_reg i in
            if r >= 0 then count r (Some i))
          b.instrs;
        let r = Vm.Isa.term_def b.term in
        if r >= 0 then count r None
      end)
    f.blocks;
  Hashtbl.fold
    (fun r (n, shape) acc ->
      match (n, shape) with
      | 1, Some (Vm.Isa.Bin (Vm.Isa.Add, r', Vm.Isa.Reg r'', Vm.Isa.Imm s))
        when r' = r && r'' = r && s > 0 ->
          (r, s) :: acc
      | _ -> acc)
    defs []
  |> List.sort compare

type fstate = {
  prog : Vm.Prog.t;
  func : Vm.Prog.func;
  fid : int;
  n_regs : int;
  graph : Cfg.Digraph.t;
  forest : Cfg.Loopnest.t;
  reach : bool array;
  loops : loop_ctx list;  (** all loops, with member tables *)
  header_of : (int, loop_ctx) Hashtbl.t;  (** header bid -> loop *)
  entry_state : value array;
  mutable block_out : value array option array;
}

let eval state = function
  | Vm.Isa.Reg r -> if r < Array.length state then state.(r) else Lin (lconst 0)
  | Vm.Isa.Imm i -> Lin (lconst i)

(* Walk one block from [state] (mutated in place).  [on_access] sees each
   load/store with the abstract address at that point; [on_call] sees the
   terminator if it is a call, with the end-of-block state. *)
let walk_block fs bid state ~on_access ~on_call =
  let b = fs.func.blocks.(bid) in
  let set r v = if r < Array.length state then state.(r) <- v in
  Array.iteri
    (fun idx i ->
      let sid = Vm.Isa.Sid.make ~fid:fs.fid ~bid ~idx in
      (match i with
      | Vm.Isa.Load (_, a) -> on_access sid false (eval state a)
      | Vm.Isa.Store (a, _) -> on_access sid true (eval state a)
      | _ -> ());
      match i with
      | Vm.Isa.Const (r, c) -> set r (Lin (lconst c))
      | Vm.Isa.Fconst (r, _) -> set r Opaque
      | Vm.Isa.Mov (r, o) -> set r (eval state o)
      | Vm.Isa.Bin (op, r, a, b') -> set r (vbin op (eval state a) (eval state b'))
      | Vm.Isa.Fbin (_, r, _, _) -> set r Opaque
      | Vm.Isa.Cmp (_, r, _, _) | Vm.Isa.Fcmp (_, r, _, _) -> set r Opaque
      | Vm.Isa.Load (r, _) -> set r Loaded
      | Vm.Isa.Itof (r, o) | Vm.Isa.Ftoi (r, o) -> set r (vcast (eval state o))
      | Vm.Isa.Store _ -> ())
    b.instrs;
  (match b.term with
  | Vm.Isa.Call { callee; args; _ } -> on_call callee args (Array.copy state)
  | _ -> ());
  (* the call destination is defined on the continuation edge *)
  (let r = Vm.Isa.term_def b.term in
   if r >= 0 then set r Opaque);
  state

let no_access _ _ _ = ()
let no_call _ _ _ = ()

(* the induction-register pin applied to the joined in-state of a loop
   header: the counter becomes its symbolic value, demoted to the class
   of its initial value when that is not affine *)
let pin_header fs bid (state : value array) =
  match Hashtbl.find_opt fs.header_of bid with
  | None -> state
  | Some lc ->
      List.iter
        (fun (r, _step) ->
          if r < Array.length state then begin
            let init =
              List.fold_left
                (fun acc p ->
                  if member lc p then acc
                  else
                    match fs.block_out.(p) with
                    | Some out when r < Array.length out ->
                        (match acc with
                        | None -> Some out.(r)
                        | Some v -> Some (vjoin v out.(r)))
                    | _ -> acc)
                None
                (Cfg.Digraph.preds fs.graph bid)
            in
            let sym = Lin { lbase = 0; lterms = [ (Ind { loop = lc.lc_loop.Cfg.Loopnest.loop_id; ind_reg = r }, 1) ] } in
            match init with
            | None | Some (Lin _) -> state.(r) <- sym
            | Some Loaded -> state.(r) <- Loaded
            | Some Mixed -> state.(r) <- Mixed
            | Some Opaque -> state.(r) <- Opaque
          end)
        lc.lc_inds;
      state

let in_state fs bid =
  let joined = ref None in
  List.iter
    (fun p ->
      match fs.block_out.(p) with
      | None -> ()
      | Some out ->
          joined :=
            Some
              (match !joined with
              | None -> Array.copy out
              | Some acc ->
                  Array.mapi (fun i v -> vjoin v out.(i)) acc))
    (Cfg.Digraph.preds fs.graph bid);
  let state =
    match !joined with
    | Some s -> s
    | None -> Array.copy fs.entry_state
  in
  let state = if bid = 0 then Array.mapi (fun i v -> vjoin v fs.entry_state.(i)) state else state in
  pin_header fs bid state

let solve fs =
  let order =
    List.filter
      (fun b -> b >= 0 && b < Array.length fs.func.blocks && fs.reach.(b))
      (Cfg.Digraph.reverse_postorder fs.graph ~root:0)
  in
  let changed = ref true in
  let sweeps = ref 0 in
  while !changed && !sweeps < 64 do
    incr sweeps;
    changed := false;
    List.iter
      (fun bid ->
        let s = in_state fs bid in
        let out = walk_block fs bid s ~on_access:no_access ~on_call:no_call in
        match fs.block_out.(bid) with
        | Some prev when prev = out -> ()
        | _ ->
            fs.block_out.(bid) <- Some out;
            changed := true)
      order
  done

(* loop bounds from the lowered for-loop idiom: the header computes
   [t := cmp.lt r, hi] and branches [br t, body, exit].  When both the
   initial counter value and [hi] are compile-time constants the trip
   count is constant ([lc_trip]); when they are merely affine in
   enclosing induction symbols (triangular/trapezoidal nests) the trip
   count is kept symbolically in [lc_trip_lin]. *)
let extract_bounds fs lc =
  let header = lc.lc_loop.Cfg.Loopnest.header in
  if fs.reach.(header) then begin
    let state = in_state fs header in
    let b = fs.func.blocks.(header) in
    let cmps : (Vm.Isa.reg, Vm.Isa.reg * lin) Hashtbl.t = Hashtbl.create 4 in
    let set r v = if r < Array.length state then state.(r) <- v in
    Array.iter
      (fun i ->
        (match i with
        | Vm.Isa.Cmp (Vm.Isa.Clt, t, Vm.Isa.Reg r, o) -> (
            if List.mem_assoc r lc.lc_inds then
              match eval state o with
              | Lin l -> Hashtbl.replace cmps t (r, l)
              | _ -> ())
        | _ -> ());
        match i with
        | Vm.Isa.Const (r, c) -> set r (Lin (lconst c))
        | Vm.Isa.Fconst (r, _) -> set r Opaque
        | Vm.Isa.Mov (r, o) -> set r (eval state o)
        | Vm.Isa.Bin (op, r, a, b') ->
            set r (vbin op (eval state a) (eval state b'))
        | Vm.Isa.Fbin (_, r, _, _) -> set r Opaque
        | Vm.Isa.Cmp (_, r, _, _) | Vm.Isa.Fcmp (_, r, _, _) -> set r Opaque
        | Vm.Isa.Load (r, _) -> set r Loaded
        | Vm.Isa.Itof (r, o) | Vm.Isa.Ftoi (r, o) -> set r (vcast (eval state o))
        | Vm.Isa.Store _ -> ())
      b.instrs;
    match b.term with
    | Vm.Isa.Br (Vm.Isa.Reg c, bt, be) when member lc bt && not (member lc be)
      -> (
        match Hashtbl.find_opt cmps c with
        | Some (r, hi_lin) -> (
            (* initial value: join of the counter over entries from
               outside the loop *)
            let init =
              List.fold_left
                (fun acc p ->
                  if member lc p then acc
                  else
                    match fs.block_out.(p) with
                    | Some out when r < Array.length out ->
                        (match acc with
                        | None -> Some out.(r)
                        | Some v -> Some (vjoin v out.(r)))
                    | _ -> acc)
                None
                (Cfg.Digraph.preds fs.graph header)
            in
            match init with
            | Some (Lin lo_lin) -> (
                let step = List.assoc r lc.lc_inds in
                match (lin_const hi_lin, lin_const lo_lin) with
                | Some hi, Some lo ->
                    let tight = max lo (hi - 1) in
                    let wide = max lo (hi - 1 + step) in
                    lc.lc_bounds <- (r, (lo, tight, wide)) :: lc.lc_bounds;
                    let trip =
                      if hi <= lo then 0 else (hi - lo + step - 1) / step
                    in
                    lc.lc_trip <- Some trip;
                    lc.lc_trip_lin <- Some (lconst trip)
                | _ ->
                    (* affine bounds in enclosing counters: trip is
                       [hi - lo] for unit step, provided neither bound
                       depends on this loop's own counters (the symbols
                       must be loop-invariant) *)
                    if step = 1 then begin
                      let t = lsub hi_lin lo_lin in
                      let self_ref =
                        List.exists
                          (fun (s, _) ->
                            match s with
                            | Ind { loop; _ } ->
                                loop = lc.lc_loop.Cfg.Loopnest.loop_id
                            | Par _ -> false)
                          t.lterms
                      in
                      if not self_ref then lc.lc_trip_lin <- Some t
                    end)
            | _ -> ())
        | None -> ())
    | _ -> ()
  end

(* inclusive address interval of an affine address at block [bid] *)
let range_of fs bid l =
  let rec go lo hi = function
    | [] -> Some (lo, hi)
    | (Par _, _) :: _ -> None
    | (Ind { loop; ind_reg }, c) :: rest -> (
        match
          List.find_opt
            (fun lc -> lc.lc_loop.Cfg.Loopnest.loop_id = loop)
            fs.loops
        with
        | None -> None
        | Some lc -> (
            match List.assoc_opt ind_reg lc.lc_bounds with
            | None -> None
            | Some (ilo, tight, wide) ->
                let ihi =
                  if member lc bid && bid <> lc.lc_loop.Cfg.Loopnest.header
                  then tight
                  else wide
                in
                if c >= 0 then go (lo + (c * ilo)) (hi + (c * ihi)) rest
                else go (lo + (c * ihi)) (hi + (c * ilo)) rest))
  in
  go l.lbase l.lbase l.lterms

let classify a =
  match a.acc_addr with
  | Lin l -> `Affine l
  | Loaded -> `Nonaffine Staticbase.Polly_lite.P_base_not_invariant
  | Mixed | Opaque -> `Nonaffine Staticbase.Polly_lite.F_nonaffine_access

let class_code a =
  match classify a with
  | `Affine _ -> "-"
  | `Nonaffine r -> Staticbase.Polly_lite.reason_code r

let analyse_func ?(param_value = fun _ -> None) (prog : Vm.Prog.t) fid =
  let func = prog.funcs.(fid) in
  let n_regs = Vm.Prog.n_regs func in
  let graph = Insn.static_cfg func in
  let forest = Cfg.Loopnest.compute graph ~entry:0 in
  let reach = Verify.reachable_blocks func in
  let loops =
    List.map
      (fun (l : Cfg.Loopnest.loop) ->
        let members = Hashtbl.create 16 in
        List.iter (fun b -> Hashtbl.replace members b ()) l.members;
        let inds = induction_candidates func members in
        { lc_loop = l; lc_members = members; lc_inds = inds; lc_bounds = [];
          lc_trip = None; lc_trip_lin = None })
      (Cfg.Loopnest.all_loops forest)
  in
  let header_of = Hashtbl.create 8 in
  List.iter
    (fun lc -> Hashtbl.replace header_of lc.lc_loop.Cfg.Loopnest.header lc)
    loops;
  let entry_state =
    Array.init n_regs (fun r ->
        if r < func.n_params then
          match param_value r with
          | Some c -> Lin (lconst c)
          | None -> Lin { lbase = 0; lterms = [ (Par r, 1) ] }
        else Lin (lconst 0) (* frames zero-fill on demand *))
  in
  let fs =
    { prog;
      func;
      fid;
      n_regs;
      graph;
      forest;
      reach;
      loops;
      header_of;
      entry_state;
      block_out = Array.make (Array.length func.blocks) None }
  in
  solve fs;
  List.iter (fun lc -> extract_bounds fs lc) fs.loops;
  (* final walk: record accesses and call sites *)
  let accesses = ref [] in
  let calls = ref [] in
  Array.iteri
    (fun bid (_ : Vm.Prog.block) ->
      if reach.(bid) then begin
        let depth =
          List.length (Cfg.Loopnest.loops_containing forest bid)
        in
        let on_access sid is_store addr =
          let range =
            match addr with Lin l -> range_of fs bid l | _ -> None
          in
          accesses :=
            { acc_sid = sid;
              acc_store = is_store;
              acc_addr = addr;
              acc_range = range;
              acc_depth = depth }
            :: !accesses
        in
        let on_call callee args state =
          let b = fs.func.blocks.(bid) in
          let cs_args =
            Array.of_list
              (List.map
                 (fun o ->
                   match eval state o with
                   | Lin l -> lin_const l
                   | _ -> None)
                 args)
          in
          calls :=
            { cs_callee = callee; cs_sid = Insn.term_sid ~fid b; cs_args }
            :: !calls
        in
        ignore
          (walk_block fs bid (in_state fs bid) ~on_access ~on_call)
      end)
    func.blocks;
  (* per-loop summary: constant trip count (when the branching counter
     has compile-time bounds) and every induction register's entry value
     (joined over loop entries from outside the region) and step *)
  let entry_lin lc r =
    let init =
      List.fold_left
        (fun acc p ->
          if member lc p then acc
          else
            match fs.block_out.(p) with
            | Some out when r < Array.length out -> (
                match acc with
                | None -> Some out.(r)
                | Some v -> Some (vjoin v out.(r)))
            | _ -> acc)
        None
        (Cfg.Digraph.preds fs.graph lc.lc_loop.Cfg.Loopnest.header)
    in
    match init with Some (Lin l) -> Some l | _ -> None
  in
  let fr_loops =
    List.map
      (fun lc ->
        { li_id = lc.lc_loop.Cfg.Loopnest.loop_id;
          li_header = lc.lc_loop.Cfg.Loopnest.header;
          li_trip = lc.lc_trip;
          li_trip_lin = lc.lc_trip_lin;
          li_counters =
            List.map (fun (r, step) -> (r, entry_lin lc r, step)) lc.lc_inds })
      fs.loops
  in
  { fr_fid = fid;
    fr_forest = forest;
    fr_accesses = List.rev !accesses;
    fr_calls = List.rev !calls;
    fr_loops }

let analyse_prog (prog : Vm.Prog.t) =
  let n = Array.length prog.funcs in
  let pv =
    Array.map (fun (f : Vm.Prog.func) -> Array.make (max 1 f.n_params) None) prog.funcs
  in
  let results = ref [||] in
  let stable = ref false in
  let rounds = ref 0 in
  while (not !stable) && !rounds < 8 do
    incr rounds;
    results :=
      Array.init n (fun fid ->
          analyse_func ~param_value:(fun i -> pv.(fid).(i)) prog fid);
    (* merge constant call arguments over all static call sites *)
    let merged : [ `Unset | `Const of int | `Conflict ] array array =
      Array.map
        (fun (f : Vm.Prog.func) -> Array.make (max 1 f.n_params) `Unset)
        prog.funcs
    in
    Array.iter
      (fun fr ->
        List.iter
          (fun cs ->
            if cs.cs_callee >= 0 && cs.cs_callee < n then
              Array.iteri
                (fun j arg ->
                  if j < Array.length merged.(cs.cs_callee) then
                    merged.(cs.cs_callee).(j) <-
                      (match (merged.(cs.cs_callee).(j), arg) with
                      | `Unset, Some c -> `Const c
                      | `Const c, Some c' when c = c' -> `Const c
                      | `Unset, None | `Const _, _ | `Conflict, _ -> `Conflict))
                cs.cs_args)
          fr.fr_calls)
      !results;
    let next =
      Array.map
        (Array.map (function `Const c -> Some c | `Unset | `Conflict -> None))
        merged
    in
    if next = pv then stable := true
    else Array.iteri (fun i row -> pv.(i) <- row) next
  done;
  !results

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_sym fmt = function
  | Ind { loop; ind_reg } -> Format.fprintf fmt "i%d(r%d)" loop ind_reg
  | Par r -> Format.fprintf fmt "p%d" r

let pp_lin fmt l =
  Format.fprintf fmt "%d" l.lbase;
  List.iter
    (fun (s, c) ->
      if c >= 0 then Format.fprintf fmt " + %d*%a" c pp_sym s
      else Format.fprintf fmt " - %d*%a" (-c) pp_sym s)
    l.lterms

let pp_value fmt = function
  | Lin l -> pp_lin fmt l
  | Loaded -> Format.pp_print_string fmt "loaded"
  | Mixed -> Format.pp_print_string fmt "mixed"
  | Opaque -> Format.pp_print_string fmt "opaque"

let pp_access fmt a =
  Format.fprintf fmt "%s %a: %a%s"
    (if a.acc_store then "store" else "load")
    Vm.Isa.Sid.pp a.acc_sid pp_value a.acc_addr
    (match a.acc_range with
    | Some (lo, hi) -> Printf.sprintf " in [%d, %d]" lo hi
    | None -> "")
