exception Unbalanced of string

type t = {
  sp_name : string;
  sp_cat : string;
  sp_start_ns : int;
  mutable sp_dur_ns : int;
  mutable sp_minor_words : float;
  mutable sp_major_words : float;
  mutable sp_top_heap_words : int;
  mutable sp_children : t list;
}

type frame = { f_span : t; f_minor0 : float; f_major0 : float }

(* the open spans, innermost first, and the finished top-level ones *)
let stack : frame list ref = ref []
let completed : t list ref = ref []

let enter ?(cat = "polyprof") name =
  if Registry.enabled () then begin
    let q = Gc.quick_stat () in
    let sp =
      { sp_name = name;
        sp_cat = cat;
        sp_start_ns = Clock.now_ns ();
        sp_dur_ns = 0;
        sp_minor_words = 0.0;
        sp_major_words = 0.0;
        sp_top_heap_words = 0;
        sp_children = [] }
    in
    stack :=
      { f_span = sp; f_minor0 = Gc.minor_words (); f_major0 = q.Gc.major_words }
      :: !stack
  end

let exit_ name =
  if Registry.enabled () then begin
    match !stack with
    | [] -> raise (Unbalanced (Printf.sprintf "exit %S: no open span" name))
    | f :: rest ->
        if f.f_span.sp_name <> name then
          raise
            (Unbalanced
               (Printf.sprintf "exit %S: innermost open span is %S" name
                  f.f_span.sp_name));
        stack := rest;
        let sp = f.f_span in
        let q = Gc.quick_stat () in
        sp.sp_dur_ns <- Clock.now_ns () - sp.sp_start_ns;
        (* [Gc.minor_words] counts the current minor heap too;
           [quick_stat]'s count stops at the last minor collection *)
        sp.sp_minor_words <- Gc.minor_words () -. f.f_minor0;
        sp.sp_major_words <- q.Gc.major_words -. f.f_major0;
        sp.sp_top_heap_words <- q.Gc.top_heap_words;
        sp.sp_children <- List.rev sp.sp_children;
        (match rest with
        | parent :: _ ->
            parent.f_span.sp_children <- sp :: parent.f_span.sp_children
        | [] -> completed := sp :: !completed)
  end

let with_ ?cat name f =
  if not (Registry.enabled ()) then f ()
  else begin
    enter ?cat name;
    Fun.protect ~finally:(fun () -> exit_ name) f
  end

let roots () =
  List.sort
    (fun a b ->
      match compare a.sp_start_ns b.sp_start_ns with
      | 0 -> compare a.sp_name b.sp_name
      | c -> c)
    !completed

let depth () = List.length !stack

let reset () =
  completed := [];
  stack := []
