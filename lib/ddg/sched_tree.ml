type node = {
  elt : Iiv.ctx_id option;
  static_index : int;
  mutable self_weight : int;
  mutable iterations : int;
  children : (Iiv.ctx_id, node) Hashtbl.t;
  mutable child_order : Iiv.ctx_id list;
}

(* The memos map a context id to its node; ids are dense, so they are
   arrays indexed by id, with [unset] marking an id not seen yet. *)
type t = {
  sroot : node;
  mutable leaf_memo : node array;
  mutable loop_memo : node array;
}

let mk_node elt static_index =
  { elt;
    static_index;
    self_weight = 0;
    iterations = 0;
    children = Hashtbl.create 4;
    child_order = [] }

let unset = mk_node None (-1)

let create () = { sroot = mk_node None 0; leaf_memo = [||]; loop_memo = [||] }

let child_of n c =
  match Hashtbl.find_opt n.children c with
  | Some x -> x
  | None ->
      let x = mk_node (Some c) (Hashtbl.length n.children) in
      Hashtbl.add n.children c x;
      n.child_order <- c :: n.child_order;
      x

let flatten (ctx : Iiv.context) = List.concat ctx

let memo_find memo id = if id < Array.length memo then memo.(id) else unset

let memo_add memo id n =
  let memo =
    if id < Array.length memo then memo
    else begin
      let grown = Array.make (max (id + 1) (2 * Array.length memo)) unset in
      Array.blit memo 0 grown 0 (Array.length memo);
      grown
    end
  in
  memo.(id) <- n;
  memo

let record t iiv ~weight =
  let id = Iiv.context_id iiv in
  let n = memo_find t.leaf_memo id in
  let n =
    if n != unset then n
    else begin
      let n = List.fold_left child_of t.sroot (flatten (Iiv.context iiv)) in
      t.leaf_memo <- memo_add t.leaf_memo id n;
      n
    end
  in
  n.self_weight <- n.self_weight + weight

let is_loop_elt = function
  | Iiv.Cloop _ | Iiv.Ccomp _ -> true
  | Iiv.Cblock _ -> false

let record_iteration t iiv =
  let id = Iiv.context_id iiv in
  let n = memo_find t.loop_memo id in
  let n =
    if n != unset then n
    else begin
      (* path down to the innermost loop element of the context *)
      let path = flatten (Iiv.context iiv) in
      let rec last_loop acc best = function
        | [] -> best
        | c :: rest ->
            let acc = c :: acc in
            if is_loop_elt c then last_loop acc (Some (List.rev acc)) rest
            else last_loop acc best rest
      in
      let n =
        match last_loop [] None path with
        | Some p -> List.fold_left child_of t.sroot p
        | None -> t.sroot
      in
      t.loop_memo <- memo_add t.loop_memo id n;
      n
    end
  in
  n.iterations <- n.iterations + 1

let root t = t.sroot

let rec total_weight n =
  Hashtbl.fold (fun _ c acc -> acc + total_weight c) n.children n.self_weight

let children_in_order n =
  List.rev_map (fun k -> Hashtbl.find n.children k) n.child_order

let rec node_depth n =
  Hashtbl.fold (fun _ c acc -> max acc (1 + node_depth c)) n.children 0

let depth t = node_depth t.sroot

let rec count_nodes n =
  Hashtbl.fold (fun _ c acc -> acc + count_nodes c) n.children 1

let n_nodes t = count_nodes t.sroot

let is_loop_node n = match n.elt with Some e -> is_loop_elt e | None -> false

let kelly_path t ctx =
  let rec go n = function
    | [] -> []
    | c :: rest -> (
        match Hashtbl.find_opt n.children c with
        | None -> []
        | Some child -> (child.static_index, c) :: go child rest)
  in
  go t.sroot (flatten ctx)

let default_name c = Format.asprintf "%a" Iiv.pp_ctx_id c

let pp ?(name = default_name) fmt t =
  let rec go indent n =
    (match n.elt with
    | None -> Format.fprintf fmt "%sroot@\n" indent
    | Some e ->
        Format.fprintf fmt "%s%s(%d)%s w=%d%s@\n" indent (name e) n.static_index
          (if is_loop_node n then " (i)" else "")
          n.self_weight
          (if n.iterations > 0 then Printf.sprintf " iters=%d" n.iterations else ""));
    List.iter (go (indent ^ "  ")) (children_in_order n)
  in
  go "" t.sroot
