let render ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i s -> widths.(i) <- max widths.(i) (String.length s)))
    all;
  let buf = Buffer.create 1024 in
  let put row =
    List.iteri
      (fun i s -> Buffer.add_string buf (Printf.sprintf "%-*s  " widths.(i) s))
      row;
    Buffer.add_char buf '\n'
  in
  put header;
  Array.iter
    (fun w -> Buffer.add_string buf (String.make w '-' ^ "  "))
    (Array.sub widths 0 (List.length header));
  Buffer.add_char buf '\n';
  List.iter put rows;
  Buffer.contents buf
