(* The identity hash would leave a key's high bits out of the bucket
   index: every dependence of one consumer differs only in the bits of
   its producer, so all of them would share a bucket.  Fold the high
   half down, multiply by an odd constant, and fold the product's high
   bits back into the low ones. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let h = x lxor (x lsr 31) in
    let h = h * 0x3C79AC492BA7B653 in
    (h lxor (h lsr 29)) land max_int
end)
