(* Flow-insensitive Andersen-style points-to over MiniVM bytecode.
   Regions: index 0 = outside pseudo-region, 1.. = named globals in
   [Prog.globals] order.  Sets are int bit masks; > 62 named regions
   degrades to the all-regions mask everywhere (sound, nothing
   prunable). *)

type t = {
  prog : Vm.Prog.t;
  regions : (string * int * int) array;  (** named: name, base, size *)
  all_mask : int;
  degraded : bool;
  pts : int array array;  (** per fid, per reg *)
  content : int array;  (** per region index *)
  ret_pts : int array;  (** per fid *)
  touched : int array;  (** per fid, transitively *)
  access : (Vm.Isa.Sid.t, bool * int) Hashtbl.t;
}

let n_regions t = Array.length t.regions + 1

let region_name t i =
  if i = 0 then "outside"
  else
    let name, _, _ = t.regions.(i - 1) in
    name

let region_range t i =
  if i = 0 then None
  else
    let _, base, size = t.regions.(i - 1) in
    Some (base, size)

let region_of_addr t a =
  let n = Array.length t.regions in
  let rec go i =
    if i >= n then 0
    else
      let _, base, size = t.regions.(i) in
      if a >= base && a < base + size then i + 1 else go (i + 1)
  in
  go 0

let const_pts t c = if t.degraded then t.all_mask else 1 lsl region_of_addr t c

let analyse (prog : Vm.Prog.t) =
  let regions = Array.of_list prog.globals in
  let n_named = Array.length regions in
  let degraded = n_named > 62 in
  let all_mask =
    if degraded then -1 else (1 lsl (n_named + 1)) - 1
  in
  let t =
    { prog;
      regions;
      all_mask;
      degraded;
      pts =
        Array.map (fun f -> Array.make (Vm.Prog.n_regs f) 0) prog.funcs;
      content = Array.make (n_named + 1) 0;
      ret_pts = Array.make (Array.length prog.funcs) 0;
      touched = Array.make (Array.length prog.funcs) 0;
      access = Hashtbl.create 64 }
  in
  (* zero-filled memory: contents start as the set of the constant 0 *)
  let zero = const_pts t 0 in
  Array.iteri (fun i _ -> t.content.(i) <- zero) t.content;
  let changed = ref true in
  let union_reg fid r mask =
    let row = t.pts.(fid) in
    if r < Array.length row && row.(r) lor mask <> row.(r) then begin
      row.(r) <- row.(r) lor mask;
      changed := true
    end
  in
  let union_content mask_regions mask =
    for i = 0 to Array.length t.content - 1 do
      if mask_regions land (1 lsl i) <> 0 && t.content.(i) lor mask <> t.content.(i)
      then begin
        t.content.(i) <- t.content.(i) lor mask;
        changed := true
      end
    done
  in
  let ev fid = function
    | Vm.Isa.Imm c -> const_pts t c
    | Vm.Isa.Reg r ->
        let row = t.pts.(fid) in
        if r < Array.length row then row.(r) else 0
  in
  let content_of mask =
    let acc = ref 0 in
    for i = 0 to Array.length t.content - 1 do
      if mask land (1 lsl i) <> 0 then acc := !acc lor t.content.(i)
    done;
    !acc
  in
  let rounds = ref 0 in
  while !changed && !rounds < 1000 do
    changed := false;
    incr rounds;
    Array.iteri
      (fun fid (f : Vm.Prog.func) ->
        Array.iter
          (fun (b : Vm.Prog.block) ->
            Array.iter
              (fun i ->
                match i with
                | Vm.Isa.Const (r, c) -> union_reg fid r (const_pts t c)
                | Vm.Isa.Fconst (r, _) -> union_reg fid r 1
                | Vm.Isa.Mov (r, o)
                | Vm.Isa.Itof (r, o)
                | Vm.Isa.Ftoi (r, o) ->
                    union_reg fid r (ev fid o)
                | Vm.Isa.Bin (_, r, a, b') ->
                    union_reg fid r (ev fid a lor ev fid b')
                | Vm.Isa.Fbin (_, r, _, _)
                | Vm.Isa.Cmp (_, r, _, _)
                | Vm.Isa.Fcmp (_, r, _, _) ->
                    (* offsets, not base pointers *)
                    union_reg fid r 1
                | Vm.Isa.Load (r, a) ->
                    let m = ev fid a in
                    let before = t.touched.(fid) in
                    t.touched.(fid) <- before lor m;
                    if t.touched.(fid) <> before then changed := true;
                    union_reg fid r (content_of m)
                | Vm.Isa.Store (a, v) ->
                    let m = ev fid a in
                    let before = t.touched.(fid) in
                    t.touched.(fid) <- before lor m;
                    if t.touched.(fid) <> before then changed := true;
                    union_content m (ev fid v))
              b.instrs;
            match b.term with
            | Vm.Isa.Call { dst; callee; args; _ } ->
                if callee >= 0 && callee < Array.length prog.funcs then begin
                  List.iteri
                    (fun j o ->
                      if j < prog.funcs.(callee).n_params then
                        union_reg callee j (ev fid o))
                    args;
                  Option.iter
                    (fun r -> union_reg fid r t.ret_pts.(callee))
                    dst;
                  let before = t.touched.(fid) in
                  t.touched.(fid) <- before lor t.touched.(callee);
                  if t.touched.(fid) <> before then changed := true
                end
            | Vm.Isa.Ret (Some o) ->
                let before = t.ret_pts.(fid) in
                t.ret_pts.(fid) <- before lor ev fid o;
                if t.ret_pts.(fid) <> before then changed := true
            | _ -> ())
          f.blocks)
      prog.funcs
  done;
  (* record per-access address masks at the fixpoint *)
  Array.iteri
    (fun fid (f : Vm.Prog.func) ->
      Array.iter
        (fun (b : Vm.Prog.block) ->
          Array.iteri
            (fun idx i ->
              let sid = Vm.Isa.Sid.make ~fid ~bid:b.bid ~idx in
              match i with
              | Vm.Isa.Load (_, a) ->
                  Hashtbl.replace t.access sid (false, ev fid a)
              | Vm.Isa.Store (a, _) ->
                  Hashtbl.replace t.access sid (true, ev fid a)
              | _ -> ())
            b.instrs)
        f.blocks)
    prog.funcs;
  t

let accesses t =
  Hashtbl.fold (fun sid (st, m) acc -> (sid, st, m) :: acc) t.access []
  |> List.sort compare

let func_touched t fid =
  if fid >= 0 && fid < Array.length t.touched then t.touched.(fid) else t.all_mask

let pp fmt t =
  Format.fprintf fmt "@[<v>points-to: %d named regions%s@,"
    (Array.length t.regions)
    (if t.degraded then " (degraded: all-alias)" else "");
  List.iter
    (fun (sid, st, m) ->
      Format.fprintf fmt "  %s %a -> {" (if st then "store" else "load")
        Vm.Isa.Sid.pp sid;
      let first = ref true in
      for i = 0 to n_regions t - 1 do
        if m land (1 lsl i) <> 0 then begin
          if not !first then Format.pp_print_string fmt ", ";
          first := false;
          Format.pp_print_string fmt (region_name t i)
        end
      done;
      Format.fprintf fmt "}@,")
    (accesses t);
  Format.fprintf fmt "@]"
