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
      | (cf, site) :: rest ->
          t.call_stack <- rest;
          assert (cf = caller);
          add_edge (cfg_of t caller) site dst
      | [] -> invalid_arg "Cfg_builder: unbalanced return")

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

let pp_structure fmt s =
  List.iter
    (fun (fid, forest, g) ->
      Format.fprintf fmt "function f%d: %d blocks, %d loops@\n%a" fid
        (Digraph.n_nodes g) (Loopnest.n_loops forest) Loopnest.pp forest)
    s.cfgs;
  Format.fprintf fmt "call graph:@\n%a" Digraph.pp s.cg;
  Format.fprintf fmt "recursive components:@\n%a" Recset.pp s.recset
