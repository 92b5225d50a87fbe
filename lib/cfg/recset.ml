module Iset = Set.Make (Int)

type component = {
  comp_id : int;
  members : int list;
  entries : int list;
  headers : int list;
}

type t = {
  components : component list;
  by_member : (int, component) Hashtbl.t;
  entry_set : Iset.t;
  header_set : Iset.t;
}

let compute g ~main =
  let rpo = Digraph.reverse_postorder g ~root:main in
  let rpo_index = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace rpo_index n i) rpo;
  let rank n = match Hashtbl.find_opt rpo_index n with Some i -> i | None -> max_int in
  let best_by_rank = function
    | [] -> invalid_arg "Recset: empty candidate set"
    | c :: cs ->
        List.fold_left
          (fun best n ->
            if rank n < rank best || (rank n = rank best && n < best) then n else best)
          c cs
  in
  let sccs = Scc.compute g in
  let next_id = ref 0 in
  let components =
    List.filter_map
      (fun comp ->
        if not (Scc.has_cycle g comp) then None
        else begin
          let comp_set = Iset.of_list comp in
          let entries =
            List.filter
              (fun n ->
                n = main
                || List.exists
                     (fun p -> not (Iset.mem p comp_set))
                     (Digraph.preds g n))
              comp
          in
          let entries = if entries = [] then [ best_by_rank comp ] else entries in
          (* peel headers until the component is acyclic *)
          let region = Digraph.subgraph g comp in
          let headers = ref [] in
          let rec peel () =
            let cyclic =
              List.filter (fun c -> Scc.has_cycle region c) (Scc.compute region)
            in
            match cyclic with
            | [] -> ()
            | sub :: _ ->
                let sub_set = Iset.of_list sub in
                (* entries of this sub-SCC within the region, falling back
                   to the component entries that are in the sub-SCC *)
                let sub_entries =
                  List.filter
                    (fun n ->
                      List.exists
                        (fun p -> not (Iset.mem p sub_set))
                        (Digraph.preds region n)
                      || List.mem n entries)
                    sub
                in
                let cands = if sub_entries = [] then sub else sub_entries in
                let h = best_by_rank cands in
                headers := h :: !headers;
                List.iter
                  (fun p -> if Iset.mem p sub_set then Digraph.remove_edge region p h)
                  (Digraph.preds region h);
                peel ()
          in
          peel ();
          let id = !next_id in
          incr next_id;
          Some
            { comp_id = id;
              members = List.sort compare comp;
              entries = List.sort compare entries;
              headers = List.rev !headers }
        end)
      sccs
  in
  let by_member = Hashtbl.create 16 in
  let entry_set = ref Iset.empty in
  let header_set = ref Iset.empty in
  List.iter
    (fun c ->
      List.iter (fun m -> Hashtbl.replace by_member m c) c.members;
      List.iter (fun e -> entry_set := Iset.add e !entry_set) c.entries;
      List.iter (fun h -> header_set := Iset.add h !header_set) c.headers)
    components;
  { components; by_member; entry_set = !entry_set; header_set = !header_set }

let components t = t.components
let component_of t f = Hashtbl.find_opt t.by_member f
let is_entry t f = Iset.mem f t.entry_set
let is_header t f = Iset.mem f t.header_set

let pp fmt t =
  List.iter
    (fun c ->
      Format.fprintf fmt "component %d: members=[%s] entries=[%s] headers=[%s]@\n"
        c.comp_id
        (String.concat ";" (List.map string_of_int c.members))
        (String.concat ";" (List.map string_of_int c.entries))
        (String.concat ";" (List.map string_of_int c.headers)))
    t.components
