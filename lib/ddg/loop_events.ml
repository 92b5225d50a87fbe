type loop_ref =
  | Cfg_loop of { l_fid : int; loop : Cfg.Loopnest.loop }
  | Rec_comp of Cfg.Recset.component

let loop_name = function
  | Cfg_loop { l_fid; loop } -> Printf.sprintf "f%d.L%d" l_fid loop.Cfg.Loopnest.loop_id
  | Rec_comp c -> Printf.sprintf "RC%d" c.Cfg.Recset.comp_id

type t =
  | Enter of loop_ref * int * int
  | Iterate of loop_ref * int * int
  | Exit of loop_ref * int * int
  | Block of int * int
  | Call_push of int * int
  | Ret_pop of int * int

let subscript = function Cfg_loop _ -> "" | Rec_comp _ -> "c"

let pp fmt = function
  | Enter (l, f, b) ->
      Format.fprintf fmt "E%s(%s, f%d.b%d)" (subscript l) (loop_name l) f b
  | Iterate (l, f, b) ->
      Format.fprintf fmt "I%s(%s, f%d.b%d)" (subscript l) (loop_name l) f b
  | Exit (l, f, b) ->
      Format.fprintf fmt "X%s(%s, f%d.b%d)"
        (match l with Cfg_loop _ -> "" | Rec_comp _ -> "r")
        (loop_name l) f b
  | Block (f, b) -> Format.fprintf fmt "N(f%d.b%d)" f b
  | Call_push (f, b) -> Format.fprintf fmt "C(f%d.b%d)" f b
  | Ret_pop (f, b) -> Format.fprintf fmt "R(f%d.b%d)" f b

(* Per-function lookups built once from the structure, indexed by fid
   and block id: the loop headed by each block, and, per loop, its
   membership as a bool array. *)
type floop = { lr : loop_ref; fl_fid : int; inside : bool array }

type stack_entry = Cfg_live of floop | Rec_live of Cfg.Recset.component | Frame of int

type comp_state = { mutable stackcount : int; mutable centry : int option }

type state = {
  structure : Cfg.Cfg_builder.structure;
  mutable stack : stack_entry list;  (* top first *)
  mutable started : bool;
  main : int;
  headers : floop option array array;  (* by fid, then block id; [||] = no CFG *)
  comp_states : (int, comp_state) Hashtbl.t;
}

let index_function fid forest g =
  let size = List.fold_left max 0 (Cfg.Digraph.nodes g) + 1 in
  let headers = Array.make size None in
  List.iter
    (fun (loop : Cfg.Loopnest.loop) ->
      let inside =
        Array.make (List.fold_left max loop.header loop.members + 1) false
      in
      List.iter (fun b -> inside.(b) <- true) loop.members;
      headers.(loop.header) <-
        Some { lr = Cfg_loop { l_fid = fid; loop }; fl_fid = fid; inside })
    (Cfg.Loopnest.all_loops forest);
  headers

let create (structure : Cfg.Cfg_builder.structure) ~main =
  let n_funs = List.fold_left (fun m (fid, _, _) -> max m (fid + 1)) 0 structure.cfgs in
  let headers = Array.make n_funs [||] in
  List.iter
    (fun (fid, forest, g) -> headers.(fid) <- index_function fid forest g)
    structure.cfgs;
  { structure;
    stack = [ Frame main ];
    started = false;
    main;
    headers;
    comp_states = Hashtbl.create 4 }

let comp_state st (c : Cfg.Recset.component) =
  match Hashtbl.find_opt st.comp_states c.comp_id with
  | Some s -> s
  | None ->
      let s = { stackcount = 0; centry = None } in
      Hashtbl.add st.comp_states c.comp_id s;
      s

let headers st fid =
  if fid >= 0 && fid < Array.length st.headers && st.headers.(fid) != [||] then
    st.headers.(fid)
  else invalid_arg (Printf.sprintf "Loop_events: no CFG for f%d" fid)

(* The loop headed by block [b] of [fid]. *)
let loop_at st fid b =
  let h = headers st fid in
  if b < Array.length h then h.(b) else None

let contains fl b = b < Array.length fl.inside && fl.inside.(b)

(* The CFG loop headed by [dst], if any: iterate it when it is the
   innermost live loop, enter it otherwise (Algorithm 1, and Algorithm
   2 line 24 after a return). *)
let at_header st ~emit fid dst =
  match loop_at st fid dst with
  | None -> ()
  | Some fl -> (
      match st.stack with
      | Cfg_live top :: _ when top == fl -> emit (Iterate (fl.lr, fid, dst))
      | _ ->
          st.stack <- Cfg_live fl :: st.stack;
          emit (Enter (fl.lr, fid, dst)))

(* Algorithm 1: loop events from a local jump. *)
let on_jump st ~emit ~fid ~dst =
  (* exit live loops of the current frame that do not contain [dst] *)
  let rec pop_exited () =
    match st.stack with
    | Cfg_live fl :: rest when fl.fl_fid = fid && not (contains fl dst) ->
        st.stack <- rest;
        emit (Exit (fl.lr, fid, dst));
        pop_exited ()
    | _ -> ()
  in
  pop_exited ();
  at_header st ~emit fid dst;
  emit (Block (fid, dst))

(* Algorithm 2, call part. *)
let on_call st ~emit ~callee =
  let recset = st.structure.Cfg.Cfg_builder.recset in
  (match Cfg.Recset.component_of recset callee with
  | Some c when Cfg.Recset.is_entry recset callee && (comp_state st c).centry = None
    ->
      let cs = comp_state st c in
      cs.centry <- Some callee;
      st.stack <- Rec_live c :: st.stack;
      emit (Enter (Rec_comp c, callee, 0))
  | Some c when Cfg.Recset.is_header recset callee ->
      (* iteration of the recursive loop: all live CFG loops of member
         functions (they all are, between here and the component entry)
         are exited *)
      let cs = comp_state st c in
      let rec pop_members acc = function
        | Cfg_live fl :: rest ->
            emit (Exit (fl.lr, callee, 0));
            pop_members acc rest
        | (Rec_live c' :: _) as stack
          when c'.Cfg.Recset.comp_id = c.Cfg.Recset.comp_id ->
            List.rev_append acc stack
        | Frame f :: rest -> pop_members (Frame f :: acc) rest
        | Rec_live _ :: rest ->
            (* a disjoint component cannot be live strictly inside [c]
               while iterating [c]; be defensive and keep it *)
            pop_members acc rest
        | [] -> List.rev acc
      in
      st.stack <- pop_members [] st.stack;
      cs.stackcount <- cs.stackcount + 1;
      emit (Iterate (Rec_comp c, callee, 0))
  | Some _ | None -> emit (Call_push (callee, 0)));
  st.stack <- Frame callee :: st.stack

(* Algorithm 2, return part. *)
let on_return st ~emit ~callee ~caller ~dst =
  (* exit the returning function's still-live CFG loops, then pop its
     frame marker *)
  let rec unwind () =
    match st.stack with
    | Cfg_live fl :: rest ->
        st.stack <- rest;
        emit (Exit (fl.lr, caller, dst));
        unwind ()
    | Frame f :: rest ->
        assert (f = callee);
        st.stack <- rest
    | Rec_live _ :: _ | [] -> invalid_arg "Loop_events: unbalanced return"
  in
  unwind ();
  let recset = st.structure.Cfg.Cfg_builder.recset in
  match Cfg.Recset.component_of recset callee with
  | Some c
    when (comp_state st c).centry = Some callee
         && (comp_state st c).stackcount = 0 ->
      (* the call that entered the recursive loop is unstacked: exit *)
      let cs = comp_state st c in
      cs.centry <- None;
      (match st.stack with
      | Rec_live c' :: rest when c'.Cfg.Recset.comp_id = c.comp_id ->
          st.stack <- rest
      | _ -> invalid_arg "Loop_events: recursive component not on top at exit");
      emit (Exit (Rec_comp c, caller, dst))
  | Some c when Cfg.Recset.is_header recset callee ->
      let cs = comp_state st c in
      cs.stackcount <- cs.stackcount - 1;
      emit (Iterate (Rec_comp c, caller, dst))
  | Some _ | None ->
      emit (Ret_pop (caller, dst));
      (* the continuation block may itself be a loop header (paper Alg. 2
         line 24 falls through to Alg. 1) *)
      at_header st ~emit caller dst

let start st ~emit =
  if not st.started then begin
    st.started <- true;
    emit (Block (st.main, 0))
  end

let feed st ~emit (ev : Vm.Event.control) =
  start st ~emit;
  match ev with
  | Vm.Event.Jump { fid; src = _; dst } -> on_jump st ~emit ~fid ~dst
  | Vm.Event.Call { caller = _; site = _; callee; dst = _ } -> on_call st ~emit ~callee
  | Vm.Event.Return { callee; caller; dst } -> on_return st ~emit ~callee ~caller ~dst

let finish st ~emit =
  let live = st.stack in
  st.stack <- [];
  List.iter
    (function
      | Cfg_live fl -> emit (Exit (fl.lr, -1, -1))
      | Rec_live c -> emit (Exit (Rec_comp c, -1, -1))
      | Frame _ -> ())
    live

let live_depth st =
  List.length
    (List.filter (function Cfg_live _ | Rec_live _ -> true | Frame _ -> false) st.stack)
