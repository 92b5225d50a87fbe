type ctx_id =
  | Cblock of int * int
  | Cloop of int * int
  | Ccomp of int

let pp_ctx_id fmt = function
  | Cblock (f, b) -> Format.fprintf fmt "f%d.b%d" f b
  | Cloop (f, l) -> Format.fprintf fmt "f%d.L%d" f l
  | Ccomp c -> Format.fprintf fmt "RC%d" c

type context = ctx_id list list

(* A context element as an int below [2^code_bits]: a 2-bit tag, then
   the ids.  Function, block and loop ids are below [2^12] (the widths
   of [Vm.Isa.Sid]); [sep] closes one dimension's stack. *)
let code_bits = 26
let id_limit = 1 lsl 12
let sep = 3

let pair_code tag a b =
  if a < 0 || a >= id_limit || b < 0 || b >= id_limit then
    invalid_arg "Iiv: function, block or loop id above 2^12";
  tag lor (a lsl 2) lor (b lsl 14)

let block_code f b = pair_code 0 f b

let loop_code = function
  | Loop_events.Cfg_loop { l_fid; loop } -> pair_code 1 l_fid loop.Cfg.Loopnest.loop_id
  | Loop_events.Rec_comp { comp_id; _ } ->
      if comp_id < 0 || comp_id >= 1 lsl (code_bits - 2) then
        invalid_arg "Iiv: component id above 2^24";
      2 lor (comp_id lsl 2)

let ctx_of_code c =
  match c land 3 with
  | 0 -> Cblock ((c lsr 2) land (id_limit - 1), c lsr 14)
  | 1 -> Cloop ((c lsr 2) land (id_limit - 1), c lsr 14)
  | _ -> Ccomp (c lsr 2)

(* The context trie, domain-local so that domains profiling concurrently
   never share it; a profile and the scheduling stages that read its ids
   run in the same domain.  Node 0 is the root; a node is
   [(parent, element code)], found by one [Int_tbl] step keyed by
   [parent lsl code_bits lor code].  A context is the path from the
   root: its stacks in order, a [sep] node between consecutive ones.
   Public ids are issued on a node's first {!context_id} query. *)
type trie = {
  children : int Int_tbl.t;
  mutable parent : int array;
  mutable code : int array;  (* [sep] at the root *)
  mutable pub : int array;  (* public id, or -1 before the first query *)
  mutable n_nodes : int;
  mutable node_of_pub : int array;
  mutable n_pub : int;
}

let trie_key =
  Domain.DLS.new_key (fun () ->
      { children = Int_tbl.create 256;
        parent = Array.make 256 (-1);
        code = Array.make 256 sep;
        pub = Array.make 256 (-1);
        n_nodes = 1;
        node_of_pub = Array.make 256 0;
        n_pub = 0 })

let reset_intern_table () =
  let tr = Domain.DLS.get trie_key in
  Int_tbl.reset tr.children;
  Array.fill tr.pub 0 tr.n_nodes (-1);
  tr.n_nodes <- 1;
  tr.n_pub <- 0

let grow a fill =
  let g = Array.make (2 * Array.length a) fill in
  Array.blit a 0 g 0 (Array.length a);
  g

let new_node tr p code key =
  let n = tr.n_nodes in
  if n = Array.length tr.parent then begin
    tr.parent <- grow tr.parent (-1);
    tr.code <- grow tr.code sep;
    tr.pub <- grow tr.pub (-1)
  end;
  tr.parent.(n) <- p;
  tr.code.(n) <- code;
  tr.n_nodes <- n + 1;
  Int_tbl.add tr.children key n;
  n

let child tr p code =
  let key = (p lsl code_bits) lor code in
  match Int_tbl.find tr.children key with
  | n -> n
  | exception Not_found -> new_node tr p code key

(* Walk up from [n], splitting at [sep] nodes: stacks outermost first,
   each outermost element first. *)
let context_of_node tr n : context =
  let rec go n cur acc =
    if n = 0 then cur :: acc
    else
      let c = tr.code.(n) in
      if c = sep then go tr.parent.(n) [] (cur :: acc)
      else go tr.parent.(n) (ctx_of_code c :: cur) acc
  in
  go n [] []

type t = {
  trie : trie;  (* the creating domain's *)
  mutable node : int;  (* the current context *)
  mutable ndims : int;
  mutable ivs : int array;  (* outermost first; [ndims] used *)
  mutable dim_base : int array;
      (* per dimension, the node its context stack ends at *)
  mutable cached_coords : int array;
  mutable coords_valid : bool;  (* false after Enter/Iterate/Exit *)
}

let create () =
  { trie = Domain.DLS.get trie_key;
    node = 0;
    ndims = 0;
    ivs = Array.make 8 0;
    dim_base = Array.make 8 0;
    cached_coords = [||];
    coords_valid = true }

(* The innermost stack is empty at the root and right after a [sep]. *)
let set_last t code =
  let tr = t.trie and n = t.node in
  let c = tr.code.(n) in
  if c = sep then t.node <- child tr n code
  else if c <> code then t.node <- child tr tr.parent.(n) code

let push_last t code = t.node <- child t.trie t.node code

let pop_last t =
  let tr = t.trie in
  if tr.code.(t.node) <> sep then t.node <- tr.parent.(t.node)

let add_dimension t code =
  let d = t.ndims in
  if d = Array.length t.ivs then begin
    t.ivs <- grow t.ivs 0;
    t.dim_base <- grow t.dim_base 0
  end;
  t.ivs.(d) <- 0;
  t.dim_base.(d) <- t.node;
  t.ndims <- d + 1;
  t.node <- child t.trie (child t.trie t.node sep) code;
  t.coords_valid <- false

let remove_dimension t =
  if t.ndims > 0 then begin
    t.ndims <- t.ndims - 1;
    t.node <- t.dim_base.(t.ndims);
    t.coords_valid <- false
  end

(* Algorithm 3. *)
let update t (ev : Loop_events.t) =
  match ev with
  | Loop_events.Block (f, b) -> set_last t (block_code f b)
  | Loop_events.Call_push (f, b) -> push_last t (block_code f b)
  | Loop_events.Ret_pop (f, b) ->
      pop_last t;
      set_last t (block_code f b)
  | Loop_events.Enter (l, f, b) ->
      (match l with
      | Loop_events.Rec_comp _ -> push_last t (loop_code l)
      | Loop_events.Cfg_loop _ -> set_last t (loop_code l));
      add_dimension t (block_code f b)
  | Loop_events.Iterate (_, f, b) ->
      if t.ndims > 0 then begin
        t.ivs.(t.ndims - 1) <- t.ivs.(t.ndims - 1) + 1;
        t.coords_valid <- false
      end;
      set_last t (block_code f b)
  | Loop_events.Exit (_, f, b) ->
      remove_dimension t;
      if f >= 0 then set_last t (block_code f b)

let depth t = t.ndims

(* A fresh array per iteration, handed to every holder until the next
   Enter/Iterate/Exit (shadows keep it; collectors copy its values); it
   is never written after it is built. *)
let coords t =
  if not t.coords_valid then begin
    t.cached_coords <- Array.sub t.ivs 0 t.ndims;
    t.coords_valid <- true
  end;
  t.cached_coords

let context t = context_of_node t.trie t.node

let context_id t =
  let tr = t.trie and n = t.node in
  let id = tr.pub.(n) in
  if id >= 0 then id
  else begin
    let id = tr.n_pub in
    if id = Array.length tr.node_of_pub then tr.node_of_pub <- grow tr.node_of_pub 0;
    tr.node_of_pub.(id) <- n;
    tr.n_pub <- id + 1;
    tr.pub.(n) <- id;
    id
  end

let context_of_id id =
  let tr = Domain.DLS.get trie_key in
  if id < 0 || id >= tr.n_pub then raise Not_found;
  context_of_node tr tr.node_of_pub.(id)

let default_name c = Format.asprintf "%a" pp_ctx_id c

let pp_stack name fmt stack =
  List.iteri
    (fun i c ->
      if i > 0 then Format.fprintf fmt "/";
      Format.fprintf fmt "%s" (name c))
    stack

let pp_context ?(name = default_name) fmt (c : context) =
  Format.fprintf fmt "(";
  List.iteri
    (fun i stack ->
      if i > 0 then Format.fprintf fmt ", _, ";
      pp_stack name fmt stack)
    c;
  Format.fprintf fmt ")"

let pp ?(name = default_name) fmt t =
  Format.fprintf fmt "(";
  List.iteri
    (fun i stack ->
      if i > 0 then Format.fprintf fmt ", ";
      pp_stack name fmt stack;
      if i < t.ndims then Format.fprintf fmt ", %d" t.ivs.(i))
    (context t);
  Format.fprintf fmt ")"

let to_string ?name t = Format.asprintf "%a" (pp ?name) t
