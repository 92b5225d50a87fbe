type structure = {
  cfgs : (int * Loopnest.t * Digraph.t) list;
  cg : Digraph.t;
  recset : Recset.t;
  call_sites : (int * int * int) list;
}

type t = {
  prog : Vm.Prog.t;
  func_cfgs : (int, Digraph.t) Hashtbl.t;
  cg : Digraph.t;
  sites : (int * int * int, unit) Hashtbl.t;
  mutable call_stack : (int * int) list;  (* (caller fid, site bid) *)
}

let create prog =
  let t =
    { prog;
      func_cfgs = Hashtbl.create 16;
      cg = Digraph.create ();
      sites = Hashtbl.create 16;
      call_stack = [] }
  in
  (* main is always executed *)
  let g = Digraph.create () in
  Digraph.add_node g 0;
  Hashtbl.replace t.func_cfgs prog.Vm.Prog.main g;
  Digraph.add_node t.cg prog.Vm.Prog.main;
  t

let cfg_of t fid =
  match Hashtbl.find_opt t.func_cfgs fid with
  | Some g -> g
  | None ->
      let g = Digraph.create () in
      Digraph.add_node g 0;
      Hashtbl.replace t.func_cfgs fid g;
      g

(* Most control events repeat an edge already seen: test it first,
   since adding rebuilds both adjacency entries. *)
let add_edge g a b = if not (Digraph.mem_edge g a b) then Digraph.add_edge g a b

let on_control t = function
  | Vm.Event.Jump { fid; src; dst } -> add_edge (cfg_of t fid) src dst
  | Vm.Event.Call { caller; site; callee; dst = _ } ->
      ignore (cfg_of t callee);
      add_edge t.cg caller callee;
      Hashtbl.replace t.sites (caller, site, callee) ();
      t.call_stack <- (caller, site) :: t.call_stack
  | Vm.Event.Return { caller; dst; _ } -> (
      (* the call-site block falls through to the continuation block once
         the callee returns: that edge is part of the caller's CFG (a
         call never exits a loop, paper section 3.2) *)
      match t.call_stack with
      | (cf, site) :: rest when cf = caller ->
          t.call_stack <- rest;
          add_edge (cfg_of t caller) site dst
      | _ -> invalid_arg "Cfg_builder: unbalanced return")

let callbacks t =
  { Vm.Interp.on_control = on_control t; on_exec = (fun _ -> ()) }

let finalize t =
  let cfgs =
    Hashtbl.fold
      (fun fid g acc -> (fid, Loopnest.compute g ~entry:0, g) :: acc)
      t.func_cfgs []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
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
            let fresh = not (Hashtbl.mem t.func_cfgs callee) in
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

let pp_structure fmt s =
  List.iter
    (fun (fid, forest, g) ->
      Format.fprintf fmt "function f%d: %d blocks, %d loops@\n%a" fid
        (Digraph.n_nodes g) (Loopnest.n_loops forest) Loopnest.pp forest)
    s.cfgs;
  Format.fprintf fmt "call graph:@\n%a" Digraph.pp s.cg;
  Format.fprintf fmt "recursive components:@\n%a" Recset.pp s.recset
