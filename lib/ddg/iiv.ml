type ctx_id =
  | Cblock of int * int
  | Cloop of int * int
  | Ccomp of int

let pp_ctx_id fmt = function
  | Cblock (f, b) -> Format.fprintf fmt "f%d.b%d" f b
  | Cloop (f, l) -> Format.fprintf fmt "f%d.L%d" f l
  | Ccomp c -> Format.fprintf fmt "RC%d" c

type context = ctx_id list list

type dim = { mutable iv : int; dctx : ctx_id list (* innermost first *) }

type t = {
  mutable outer : dim list;  (* innermost dimension first *)
  mutable last : ctx_id list;  (* innermost context element first *)
  mutable cached_ctx_id : int;  (* -1 = dirty *)
  mutable cached_coords : int array;
  mutable coords_valid : bool;  (* false after Enter/Iterate/Exit *)
}

let create () =
  { outer = []; last = []; cached_ctx_id = -1; cached_coords = [||]; coords_valid = true }

let set_last t c =
  (match t.last with [] -> t.last <- [ c ] | _ :: rest -> t.last <- c :: rest);
  t.cached_ctx_id <- -1

let push_last t c =
  t.last <- c :: t.last;
  t.cached_ctx_id <- -1

let pop_last t =
  (match t.last with [] -> () | _ :: rest -> t.last <- rest);
  t.cached_ctx_id <- -1

let add_dimension t iv c =
  t.outer <- { iv; dctx = t.last } :: t.outer;
  t.last <- [ c ];
  t.cached_ctx_id <- -1;
  t.coords_valid <- false

let remove_dimension t =
  match t.outer with
  | [] -> ()
  | d :: rest ->
      t.outer <- rest;
      t.last <- d.dctx;
      t.cached_ctx_id <- -1;
      t.coords_valid <- false

let loop_ctx = function
  | Loop_events.Cfg_loop { l_fid; loop } -> Cloop (l_fid, loop.Cfg.Loopnest.loop_id)
  | Loop_events.Rec_comp c -> Ccomp c.Cfg.Recset.comp_id

(* Algorithm 3. *)
let update t (ev : Loop_events.t) =
  match ev with
  | Loop_events.Block (f, b) -> set_last t (Cblock (f, b))
  | Loop_events.Call_push (f, b) -> push_last t (Cblock (f, b))
  | Loop_events.Ret_pop (f, b) ->
      pop_last t;
      set_last t (Cblock (f, b))
  | Loop_events.Enter (l, f, b) ->
      (match l with
      | Loop_events.Rec_comp _ -> push_last t (loop_ctx l)
      | Loop_events.Cfg_loop _ -> set_last t (loop_ctx l));
      add_dimension t 0 (Cblock (f, b))
  | Loop_events.Iterate (_, f, b) ->
      (match t.outer with
      | d :: _ ->
          d.iv <- d.iv + 1;
          t.coords_valid <- false
      | [] -> ());
      set_last t (Cblock (f, b))
  | Loop_events.Exit (_, f, b) ->
      remove_dimension t;
      if f >= 0 then set_last t (Cblock (f, b))

let depth t = List.length t.outer

(* A fresh array per iteration, handed to every holder until the next
   Enter/Iterate/Exit (shadow origins keep it; collectors copy its
   values); it is never written after it is built. *)
let coords t =
  if not t.coords_valid then begin
    let n = depth t in
    let a = Array.make n 0 in
    List.iteri (fun i d -> a.(n - 1 - i) <- d.iv) t.outer;
    t.cached_coords <- a;
    t.coords_valid <- true
  end;
  t.cached_coords

let context t : context =
  let dims = List.rev_map (fun d -> List.rev d.dctx) t.outer in
  dims @ [ List.rev t.last ]

(* Intern table: domain-local, because each serve worker domain runs
   whole profiles of its own; a profile and the scheduling stages that
   read its ids run in the same domain. *)
type intern_state = {
  tbl : (context, int) Hashtbl.t;
  rev : (int, context) Hashtbl.t;
  mutable next : int;
}

let intern_key =
  Domain.DLS.new_key (fun () ->
      { tbl = Hashtbl.create 256; rev = Hashtbl.create 256; next = 0 })

let reset_intern_table () =
  let s = Domain.DLS.get intern_key in
  Hashtbl.reset s.tbl;
  Hashtbl.reset s.rev;
  s.next <- 0

let max_contexts = 1 lsl 26

let context_id t =
  if t.cached_ctx_id >= 0 then t.cached_ctx_id
  else begin
    let s = Domain.DLS.get intern_key in
    let c = context t in
    let id =
      match Hashtbl.find_opt s.tbl c with
      | Some id -> id
      | None ->
          let id = s.next in
          if id >= max_contexts then failwith "Iiv.context_id: more than 2^26 contexts";
          s.next <- s.next + 1;
          Hashtbl.add s.tbl c id;
          Hashtbl.add s.rev id c;
          id
    in
    t.cached_ctx_id <- id;
    id
  end

let context_of_id id = Hashtbl.find (Domain.DLS.get intern_key).rev id

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
  let dims = List.rev t.outer in
  List.iteri
    (fun i d ->
      if i > 0 then Format.fprintf fmt ", ";
      pp_stack name fmt (List.rev d.dctx);
      Format.fprintf fmt ", %d" d.iv)
    dims;
  if dims <> [] then Format.fprintf fmt ", ";
  pp_stack name fmt (List.rev t.last);
  Format.fprintf fmt ")"

let to_string ?name t = Format.asprintf "%a" (pp ?name) t
