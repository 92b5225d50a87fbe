(* Tags and coordinates live in parallel arrays.  Memory is paged:
   4096-word pages behind an [Int_tbl] keyed by page number, with the
   last page looked up cached (also when it is [absent]).  Register
   frames are arrays indexed by register number, grown on demand;
   popped frames are kept and cleared for the next call at the same
   depth. *)
let page_bits = 12
let page_size = 1 lsl page_bits

type page = { tags : int array; coords : int array array }

let new_page () =
  { tags = Array.make page_size (-1); coords = Array.make page_size [||] }

(* What a read of a page never written finds: no writer anywhere.  It
   has no coordinates: [mem_coords] answers [[||]] for it. *)
let absent = { tags = Array.make page_size (-1); coords = [||] }

type t = {
  pages : page Int_tbl.t;
  mutable last_no : int;  (* page number of [last] *)
  mutable last : page;
  mutable words : int;
  mutable frame_tags : int array array;  (* [frame_tags.(depth)] is the top *)
  mutable frame_coords : int array array array;
  mutable depth : int;
}

let create () =
  { pages = Int_tbl.create 64;
    last_no = 0;
    last = absent;
    words = 0;
    frame_tags = [| Array.make 16 (-1) |];
    frame_coords = [| Array.make 16 [||] |];
    depth = 0 }

let page t no =
  if no = t.last_no then t.last
  else begin
    let p = match Int_tbl.find t.pages no with p -> p | exception Not_found -> absent in
    t.last_no <- no;
    t.last <- p;
    p
  end

let mem_tag t ~addr = (page t (addr asr page_bits)).tags.(addr land (page_size - 1))

let mem_coords t ~addr =
  let p = page t (addr asr page_bits) in
  if p == absent then [||] else p.coords.(addr land (page_size - 1))

let write_mem t ~addr ~tag ~coords =
  let no = addr asr page_bits in
  let p = page t no in
  let p =
    if p != absent then p
    else begin
      let p = new_page () in
      Int_tbl.add t.pages no p;
      t.last <- p;
      p
    end
  in
  let i = addr land (page_size - 1) in
  if p.tags.(i) < 0 then t.words <- t.words + 1;
  p.tags.(i) <- tag;
  p.coords.(i) <- coords

let push_frame t =
  let d = t.depth + 1 in
  if d = Array.length t.frame_tags then begin
    let grow a fill =
      let g = Array.make (2 * d) fill in
      Array.blit a 0 g 0 d;
      g
    in
    t.frame_tags <- grow t.frame_tags [||];
    t.frame_coords <- grow t.frame_coords [||]
  end;
  (match t.frame_tags.(d) with
  | [||] ->
      t.frame_tags.(d) <- Array.make 16 (-1);
      t.frame_coords.(d) <- Array.make 16 [||]
  | tags ->
      Array.fill tags 0 (Array.length tags) (-1);
      let coords = t.frame_coords.(d) in
      Array.fill coords 0 (Array.length coords) [||]);
  t.depth <- d

let pop_frame t =
  if t.depth = 0 then invalid_arg "Shadow.pop_frame: unbalanced";
  t.depth <- t.depth - 1

let write_reg t ~reg ~tag ~coords =
  let d = t.depth in
  let tags = t.frame_tags.(d) in
  if reg >= Array.length tags then begin
    let n = max (reg + 1) (2 * Array.length tags) in
    let grown_tags = Array.make n (-1) and grown_coords = Array.make n [||] in
    Array.blit tags 0 grown_tags 0 (Array.length tags);
    Array.blit t.frame_coords.(d) 0 grown_coords 0 (Array.length tags);
    t.frame_tags.(d) <- grown_tags;
    t.frame_coords.(d) <- grown_coords
  end;
  t.frame_tags.(d).(reg) <- tag;
  t.frame_coords.(d).(reg) <- coords

let reg_tag t ~reg =
  let tags = t.frame_tags.(t.depth) in
  if reg < Array.length tags then tags.(reg) else -1

let reg_coords t ~reg =
  let coords = t.frame_coords.(t.depth) in
  if reg < Array.length coords then coords.(reg) else [||]

let frame_depth t = t.depth + 1
let n_shadowed_words t = t.words
