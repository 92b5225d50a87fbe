(* Standard CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320),
   slicing-by-8 over native-int tables.  Pure OCaml so the codec has no
   external deps.

   [table.(k * 256 + n)] is the CRC of byte [n] followed by [k] zero
   bytes, so eight input bytes fold into the running CRC with eight
   independent lookups instead of a chain of eight dependent ones.  A
   tail shorter than eight bytes goes a byte at a time through slice 0,
   the classic byte-wise table. *)

(* built on first use: an eager table would sit in the major heap of
   every program that links the library *)
let table =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let c = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- t.(c land 0xFF) lxor (c lsr 8)
       done
     done;
     t)

let[@inline] get b i = Char.code (Bytes.unsafe_get b i)

(* [n] is a byte, so the index stays inside the 8 * 256 table *)
let[@inline] slice t k n = Array.unsafe_get t ((k * 256) + n)

let update_int crc b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Stream.Crc32.update";
  let t = Lazy.force table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  while !i <= stop - 8 do
    let p = !i in
    let lo =
      !c lxor (get b p lor (get b (p + 1) lsl 8) lor (get b (p + 2) lsl 16)
              lor (get b (p + 3) lsl 24))
    in
    c :=
      slice t 7 (lo land 0xFF)
      lxor slice t 6 ((lo lsr 8) land 0xFF)
      lxor slice t 5 ((lo lsr 16) land 0xFF)
      lxor slice t 4 (lo lsr 24)
      lxor slice t 3 (get b (p + 4))
      lxor slice t 2 (get b (p + 5))
      lxor slice t 1 (get b (p + 6))
      lxor slice t 0 (get b (p + 7));
    i := p + 8
  done;
  while !i < stop do
    c := slice t 0 ((!c lxor get b !i) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let update crc b ~pos ~len =
  Int32.of_int (update_int (Int32.to_int crc land 0xFFFFFFFF) b ~pos ~len)

let bytes ?(crc = 0l) b = update crc b ~pos:0 ~len:(Bytes.length b)
let string ?crc s = bytes ?crc (Bytes.unsafe_of_string s)
