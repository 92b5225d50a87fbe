type origin = { o_tag : int; o_coords : int array }

(* Each table holds [Some origin] values built once at the write, so a
   lookup that hits returns the stored option and allocates nothing.
   Register frames are arrays indexed by register number, grown on
   demand; popped frames are kept and cleared for the next call. *)
type t = {
  mem : origin option Int_tbl.t;
  mutable frames : origin option array array;  (* [frames.(depth)] is the top *)
  mutable depth : int;
}

let create () = { mem = Int_tbl.create 4096; frames = [| Array.make 16 None |]; depth = 0 }
let write_mem t ~addr origin = Int_tbl.replace t.mem addr (Some origin)

let last_mem_writer t ~addr =
  match Int_tbl.find t.mem addr with o -> o | exception Not_found -> None

let push_frame t =
  let d = t.depth + 1 in
  if d = Array.length t.frames then begin
    let grown = Array.make (2 * d) [||] in
    Array.blit t.frames 0 grown 0 d;
    t.frames <- grown
  end;
  (match t.frames.(d) with
  | [||] -> t.frames.(d) <- Array.make 16 None
  | f -> Array.fill f 0 (Array.length f) None);
  t.depth <- d

let pop_frame t =
  if t.depth = 0 then invalid_arg "Shadow.pop_frame: unbalanced";
  t.depth <- t.depth - 1

let write_reg t ~reg origin =
  let f = t.frames.(t.depth) in
  let f =
    if reg < Array.length f then f
    else begin
      let grown = Array.make (max (reg + 1) (2 * Array.length f)) None in
      Array.blit f 0 grown 0 (Array.length f);
      t.frames.(t.depth) <- grown;
      grown
    end
  in
  f.(reg) <- Some origin

let last_reg_writer t ~reg =
  let f = t.frames.(t.depth) in
  if reg < Array.length f then f.(reg) else None

let frame_depth t = t.depth + 1
let n_shadowed_words t = Int_tbl.length t.mem
