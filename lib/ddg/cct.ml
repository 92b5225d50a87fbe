type node = {
  func : int;
  site : int;
  children : (int * int, node) Hashtbl.t;
  mutable child_order : (int * int) list;
}

type t = {
  nroot : node;
  mutable stack : node list;  (* top first; bottom = root *)
  mutable maxd : int;
}

let mk_node func site =
  { func; site; children = Hashtbl.create 4; child_order = [] }

let create ~main =
  let nroot = mk_node main (-1) in
  { nroot; stack = [ nroot ]; maxd = 0 }

let top t = match t.stack with n :: _ -> n | [] -> t.nroot

let on_control t = function
  | Vm.Event.Jump _ -> ()
  | Vm.Event.Call { site; callee; _ } ->
      let parent = top t in
      let key = (site, callee) in
      let child =
        match Hashtbl.find_opt parent.children key with
        | Some c -> c
        | None ->
            let c = mk_node callee site in
            Hashtbl.add parent.children key c;
            parent.child_order <- key :: parent.child_order;
            c
      in
      t.stack <- child :: t.stack;
      t.maxd <- max t.maxd (List.length t.stack - 1)
  | Vm.Event.Return _ -> (
      match t.stack with
      | _ :: (_ :: _ as rest) -> t.stack <- rest
      | _ -> invalid_arg "Cct: unbalanced return")

let root t = t.nroot
let max_depth t = t.maxd

let rec count_nodes n =
  Hashtbl.fold (fun _ c acc -> acc + count_nodes c) n.children 1

let n_nodes t = count_nodes t.nroot

let children_in_order n =
  List.rev_map (fun k -> Hashtbl.find n.children k) n.child_order
