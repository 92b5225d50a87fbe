exception Unbalanced of string

type t = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_start_ns : int;
  mutable sp_dur_ns : int;
  mutable sp_minor_words : float;
  mutable sp_major_words : float;
  mutable sp_top_heap_words : int;
  mutable sp_children : t list;
}

type frame = { f_span : t; f_minor0 : float; f_major0 : float }

(* per-domain open-span stack *)
let stack_key = Domain.DLS.new_key (fun () -> ref ([] : frame list))

let completed_mutex = Mutex.create ()
let completed : t list ref = ref []

let enter ?(cat = "polyprof") name =
  if Registry.enabled () then begin
    let q = Gc.quick_stat () in
    let sp =
      { sp_name = name;
        sp_cat = cat;
        sp_tid = (Domain.self () :> int);
        sp_start_ns = Clock.now_ns ();
        sp_dur_ns = 0;
        sp_minor_words = 0.0;
        sp_major_words = 0.0;
        sp_top_heap_words = 0;
        sp_children = [] }
    in
    let st = Domain.DLS.get stack_key in
    st :=
      { f_span = sp; f_minor0 = q.Gc.minor_words; f_major0 = q.Gc.major_words }
      :: !st
  end

let exit_ name =
  if Registry.enabled () then begin
    let st = Domain.DLS.get stack_key in
    match !st with
    | [] -> raise (Unbalanced (Printf.sprintf "exit %S: no open span" name))
    | f :: rest ->
        if f.f_span.sp_name <> name then
          raise
            (Unbalanced
               (Printf.sprintf "exit %S: innermost open span is %S" name
                  f.f_span.sp_name));
        st := rest;
        let sp = f.f_span in
        let q = Gc.quick_stat () in
        sp.sp_dur_ns <- Clock.now_ns () - sp.sp_start_ns;
        sp.sp_minor_words <- q.Gc.minor_words -. f.f_minor0;
        sp.sp_major_words <- q.Gc.major_words -. f.f_major0;
        sp.sp_top_heap_words <- q.Gc.top_heap_words;
        sp.sp_children <- List.rev sp.sp_children;
        (match rest with
        | parent :: _ ->
            parent.f_span.sp_children <- sp :: parent.f_span.sp_children
        | [] ->
            Mutex.protect completed_mutex (fun () -> completed := sp :: !completed))
  end

let with_ ?cat name f =
  if not (Registry.enabled ()) then f ()
  else begin
    enter ?cat name;
    Fun.protect ~finally:(fun () -> exit_ name) f
  end

let roots () =
  let l = Mutex.protect completed_mutex (fun () -> !completed) in
  List.sort
    (fun a b ->
      match compare a.sp_start_ns b.sp_start_ns with
      | 0 -> compare a.sp_name b.sp_name
      | c -> c)
    l

let depth () = List.length !(Domain.DLS.get stack_key)

let reset () =
  Mutex.protect completed_mutex (fun () -> completed := []);
  Domain.DLS.set stack_key (ref [])
