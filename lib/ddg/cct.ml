type node = {
  func : int;
  site : int;
  mutable weight : int;
  mutable calls : int;
  children : (int * int, node) Hashtbl.t;
  mutable child_order : (int * int) list;
}

type t = {
  nroot : node;
  mutable stack : node list;  (* top first; bottom = root *)
  mutable maxd : int;
}

let mk_node func site =
  { func; site; weight = 0; calls = 1; children = Hashtbl.create 4; child_order = [] }

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
        | Some c ->
            c.calls <- c.calls + 1;
            c
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

let add_weight t w =
  let n = top t in
  n.weight <- n.weight + w

let root t = t.nroot
let max_depth t = t.maxd

let rec count_nodes n =
  Hashtbl.fold (fun _ c acc -> acc + count_nodes c) n.children 1

let n_nodes t = count_nodes t.nroot

let children_in_order n =
  List.rev_map (fun k -> Hashtbl.find n.children k) n.child_order

let rec total_weight n =
  Hashtbl.fold (fun _ c acc -> acc + total_weight c) n.children n.weight

let pp ?(fname = fun f -> "f" ^ string_of_int f) fmt t =
  let rec go indent n =
    Format.fprintf fmt "%s%s%s w=%d calls=%d@\n" indent (fname n.func)
      (if n.site >= 0 then Printf.sprintf "(b%d)" n.site else "")
      n.weight n.calls;
    List.iter (go (indent ^ "  ")) (children_in_order n)
  in
  go "" t.nroot
