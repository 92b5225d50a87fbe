type structure = {
  cfgs : (int * Loopnest.t * Digraph.t) list;
  cg : Digraph.t;
  recset : Recset.t;
  call_sites : (int * int * int) list;
}

(* One executed function: its CFG, and per block the (at most two)
   successors and the callee its control events have already added, so
   that a repeated event costs two int compares and no hashing. *)
type fn = {
  g : Digraph.t;
  mutable succ : int array;  (* [2b], [2b + 1]: successors of block [b] seen, or [-1] *)
  mutable callee : int array;  (* the callee of block [b]'s call seen, or [-1] *)
}

type t = {
  prog : Vm.Prog.t;
  fns : fn option array;  (* by fid *)
  cg : Digraph.t;
  sites : (int * int * int, unit) Hashtbl.t;
  mutable stack : int array;  (* live calls: caller fid, site bid *)
  mutable depth : int;  (* ints of [stack] in use *)
}

let fn_of t fid =
  match t.fns.(fid) with
  | Some f -> f
  | None ->
      let g = Digraph.create () in
      Digraph.add_node g 0;
      let nb = Array.length t.prog.Vm.Prog.funcs.(fid).blocks in
      let f = { g; succ = Array.make (2 * nb) (-1); callee = Array.make nb (-1) } in
      t.fns.(fid) <- Some f;
      f

let cfg_of t fid = (fn_of t fid).g

(* [f] with room for block [b]: sized from the program, grown for an
   event that names a block past it *)
let reserve f b =
  if b >= Array.length f.callee then begin
    let n = max (b + 1) (2 * Array.length f.callee) in
    let grow a w = Array.init (w * n) (fun i -> if i < Array.length a then a.(i) else -1) in
    f.succ <- grow f.succ 2;
    f.callee <- grow f.callee 1
  end;
  f

let create prog =
  let t =
    { prog;
      fns = Array.make (Array.length prog.Vm.Prog.funcs) None;
      cg = Digraph.create ();
      sites = Hashtbl.create 16;
      stack = Array.make 16 0;
      depth = 0 }
  in
  (* main is always executed *)
  ignore (fn_of t prog.Vm.Prog.main);
  Digraph.add_node t.cg prog.Vm.Prog.main;
  t

(* Most control events repeat an edge already seen: test it first,
   since adding rebuilds both adjacency entries. *)
let add_edge g a b = if not (Digraph.mem_edge g a b) then Digraph.add_edge g a b

(* the edge [src -> dst] of function [fid], skipped when block [src]
   already took it (a terminator has at most two successors; past them
   [add_edge] still tests the graph) *)
let jump t fid src dst =
  let f = reserve (fn_of t fid) src in
  let o = 2 * src in
  if f.succ.(o) <> dst && f.succ.(o + 1) <> dst then begin
    add_edge f.g src dst;
    if f.succ.(o) < 0 then f.succ.(o) <- dst else if f.succ.(o + 1) < 0 then f.succ.(o + 1) <- dst
  end

let on_control t = function
  | Vm.Event.Jump { fid; src; dst } -> jump t fid src dst
  | Vm.Event.Call { caller; site; callee; dst = _ } ->
      let f = reserve (fn_of t caller) site in
      if f.callee.(site) <> callee then begin
        f.callee.(site) <- callee;
        ignore (fn_of t callee);
        add_edge t.cg caller callee;
        Hashtbl.replace t.sites (caller, site, callee) ()
      end;
      if t.depth + 2 > Array.length t.stack then begin
        let s = Array.make (2 * Array.length t.stack) 0 in
        Array.blit t.stack 0 s 0 t.depth;
        t.stack <- s
      end;
      t.stack.(t.depth) <- caller;
      t.stack.(t.depth + 1) <- site;
      t.depth <- t.depth + 2
  | Vm.Event.Return { caller; dst; _ } ->
      (* the call-site block falls through to the continuation block once
         the callee returns: that edge is part of the caller's CFG (a
         call never exits a loop, paper section 3.2) *)
      if t.depth = 0 || t.stack.(t.depth - 2) <> caller then
        invalid_arg "Cfg_builder: unbalanced return";
      t.depth <- t.depth - 2;
      jump t caller t.stack.(t.depth + 1) dst

let callbacks t =
  { Vm.Interp.on_control = on_control t; on_exec = (fun _ -> ()) }

let finalize t =
  let cfgs = ref [] in
  for fid = Array.length t.fns - 1 downto 0 do
    Option.iter (fun f -> cfgs := (fid, Loopnest.compute f.g ~entry:0, f.g) :: !cfgs) t.fns.(fid)
  done;
  let cfgs = !cfgs in
  let recset = Recset.compute t.cg ~main:t.prog.Vm.Prog.main in
  let call_sites = Hashtbl.fold (fun k () acc -> k :: acc) t.sites [] in
  { cfgs; cg = t.cg; recset; call_sites = List.sort compare call_sites }

let run ?max_steps ?args prog =
  Obs.Span.with_ ~cat:"cfg" "cfg.build" @@ fun () ->
  let t = create prog in
  let (_ : Vm.Interp.stats) =
    Vm.Interp.run ?max_steps ~callbacks:(callbacks t) ?args prog
  in
  finalize t

let forest_of s fid =
  List.find_map
    (fun (f, forest, _) -> if f = fid then Some forest else None)
    s.cfgs

(* Every block reachable from a function's entry and every function
   reachable from main, with the edges of their terminators: a superset
   of what any run of the program can observe. *)
let static (prog : Vm.Prog.t) =
  let t = create prog in
  let rec visit_func fid =
    let f = prog.Vm.Prog.funcs.(fid) in
    let g = cfg_of t fid in
    let seen = Array.make (Array.length f.blocks) false in
    let rec visit b =
      if not seen.(b) then begin
        seen.(b) <- true;
        let term = f.blocks.(b).Vm.Prog.term in
        List.iter
          (fun d ->
            if d >= 0 && d < Array.length seen then begin
              add_edge g b d;
              visit d
            end)
          (Vm.Isa.term_succs term);
        match term with
        | Vm.Isa.Call { callee; _ } ->
            let fresh = Option.is_none t.fns.(callee) in
            add_edge t.cg fid callee;
            Hashtbl.replace t.sites (fid, b, callee) ();
            if fresh then visit_func callee
        | Vm.Isa.Jump _ | Vm.Isa.Br _ | Vm.Isa.Ret _ | Vm.Isa.Halt -> ()
      end
    in
    visit 0
  in
  visit_func prog.Vm.Prog.main;
  finalize t

let same_graph a b =
  Digraph.nodes a = Digraph.nodes b && Digraph.edges a = Digraph.edges b

(* What loop events read of a loop, with members and back edges cut
   down to the blocks and edges of [within]. *)
let loop_view within (l : Loopnest.loop) =
  ( l.loop_id,
    l.header,
    l.depth,
    l.parent_id,
    List.sort compare (List.map (fun (c : Loopnest.loop) -> c.loop_id) l.children),
    List.filter (Digraph.mem_node within) l.members,
    List.sort compare
      (List.filter (fun (s, h) -> Digraph.mem_edge within s h) l.back_edges) )

let agrees ~(speculated : structure) ~(observed : structure) =
  same_graph speculated.cg observed.cg
  && List.for_all
       (fun (fid, forest, g) ->
         match forest_of speculated fid with
         | None -> false
         | Some spec ->
             let views f =
               List.sort compare (List.map (loop_view g) (Loopnest.all_loops f))
             in
             views spec = views forest)
       observed.cfgs

let speculate ?structure prog pass =
  match structure with
  | Some s -> (pass s Fun.id, s, false)
  | None ->
      let speculated = static prog in
      let b = create prog in
      let tee (c : Vm.Interp.callbacks) =
        { c with
          Vm.Interp.on_control =
            (fun ev ->
              on_control b ev;
              c.Vm.Interp.on_control ev) }
      in
      let v = pass speculated tee in
      let observed = finalize b in
      if agrees ~speculated ~observed then (v, observed, false)
      else (pass observed Fun.id, observed, true)

let pp_structure fmt s =
  List.iter
    (fun (fid, forest, g) ->
      Format.fprintf fmt "function f%d: %d blocks, %d loops@\n%a" fid
        (Digraph.n_nodes g) (Loopnest.n_loops forest) Loopnest.pp forest)
    s.cfgs;
  Format.fprintf fmt "call graph:@\n%a" Digraph.pp s.cg;
  Format.fprintf fmt "recursive components:@\n%a" Recset.pp s.recset
