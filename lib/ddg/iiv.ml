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

(* The context trie, one per process: a profile and the scheduling
   stages that read its ids share it.  Node 0 is the root; a node is
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

let trie =
  { children = Int_tbl.create 256;
    parent = Array.make 256 (-1);
    code = Array.make 256 sep;
    pub = Array.make 256 (-1);
    n_nodes = 1;
    node_of_pub = Array.make 256 0;
    n_pub = 0 }

let reset_intern_table () =
  Int_tbl.reset trie.children;
  Array.fill trie.pub 0 trie.n_nodes (-1);
  trie.n_nodes <- 1;
  trie.n_pub <- 0

let grow a fill =
  let g = Array.make (2 * Array.length a) fill in
  Array.blit a 0 g 0 (Array.length a);
  g

let new_node p code key =
  let n = trie.n_nodes in
  if n = Array.length trie.parent then begin
    trie.parent <- grow trie.parent (-1);
    trie.code <- grow trie.code sep;
    trie.pub <- grow trie.pub (-1)
  end;
  trie.parent.(n) <- p;
  trie.code.(n) <- code;
  trie.n_nodes <- n + 1;
  Int_tbl.add trie.children key n;
  n

let child p code =
  let key = (p lsl code_bits) lor code in
  match Int_tbl.find trie.children key with
  | n -> n
  | exception Not_found -> new_node p code key

(* Walk up from [n], splitting at [sep] nodes: stacks outermost first,
   each outermost element first. *)
let context_of_node n : context =
  let rec go n cur acc =
    if n = 0 then cur :: acc
    else
      let c = trie.code.(n) in
      if c = sep then go trie.parent.(n) [] (cur :: acc)
      else go trie.parent.(n) (ctx_of_code c :: cur) acc
  in
  go n [] []

type t = {
  mutable node : int;  (* the current context *)
  mutable ndims : int;
  mutable ivs : int array;  (* outermost first; [ndims] used *)
  mutable dim_base : int array;
      (* per dimension, the node its context stack ends at *)
  mutable cached_coords : int array;
  mutable coords_valid : bool;  (* false after Enter/Iterate/Exit *)
}

let create () =
  { node = 0;
    ndims = 0;
    ivs = Array.make 8 0;
    dim_base = Array.make 8 0;
    cached_coords = [||];
    coords_valid = true }

(* The innermost stack is empty at the root and right after a [sep]. *)
let set_last t code =
  let n = t.node in
  let c = trie.code.(n) in
  if c = sep then t.node <- child n code
  else if c <> code then t.node <- child trie.parent.(n) code

let push_last t code = t.node <- child t.node code

let pop_last t =
  if trie.code.(t.node) <> sep then t.node <- trie.parent.(t.node)

let add_dimension t code =
  let d = t.ndims in
  if d = Array.length t.ivs then begin
    t.ivs <- grow t.ivs 0;
    t.dim_base <- grow t.dim_base 0
  end;
  t.ivs.(d) <- 0;
  t.dim_base.(d) <- t.node;
  t.ndims <- d + 1;
  t.node <- child (child t.node sep) code;
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

let context t = context_of_node t.node

let context_id t =
  let n = t.node in
  let id = trie.pub.(n) in
  if id >= 0 then id
  else begin
    let id = trie.n_pub in
    if id = Array.length trie.node_of_pub then trie.node_of_pub <- grow trie.node_of_pub 0;
    trie.node_of_pub.(id) <- n;
    trie.n_pub <- id + 1;
    trie.pub.(n) <- id;
    id
  end

let context_of_id id =
  if id < 0 || id >= trie.n_pub then raise Not_found;
  context_of_node trie.node_of_pub.(id)

let default_name c = Format.asprintf "%a" pp_ctx_id c

let pp_stack name fmt stack =
  List.iteri
    (fun i c ->
      if i > 0 then Format.fprintf fmt "/";
      Format.fprintf fmt "%s" (name c))
    stack

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
