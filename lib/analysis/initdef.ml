module ISet = Set.Make (Int)

(* Must-analysis join is set intersection; "all registers" is the
   optimistic initial value.  [Top] avoids materialising the full set. *)
module L = struct
  type t = Top | Known of ISet.t

  let equal a b =
    match (a, b) with
    | Top, Top -> true
    | Known x, Known y -> ISet.equal x y
    | _ -> false

  let join a b =
    match (a, b) with
    | Top, x | x, Top -> x
    | Known x, Known y -> Known (ISet.inter x y)
end

module Engine = Dataflow.Make (L)

let add_def s r =
  if r < 0 then s
  else match s with L.Top -> L.Top | L.Known x -> L.Known (ISet.add r x)

let transfer_block (f : Vm.Prog.func) bid state =
  let b = f.blocks.(bid) in
  let state =
    Array.fold_left (fun s i -> add_def s (Vm.Isa.def_reg i)) state b.instrs
  in
  add_def state (Vm.Isa.term_def b.term)

let check_func (prog : Vm.Prog.t) fid =
  let f = prog.funcs.(fid) in
  let n_blocks = Array.length f.blocks in
  let graph = Insn.static_cfg f in
  let params = ISet.of_list (List.init f.n_params Fun.id) in
  let { Engine.block_in; _ } =
    Engine.run ~dir:Dataflow.Forward ~graph ~n_blocks ~entry:[ 0 ]
      ~boundary:(L.Known params) ~init:L.Top
      ~transfer:(fun bid s -> transfer_block f bid s)
  in
  let diags = ref [] in
  let reach = Verify.reachable_blocks f in
  Array.iteri
    (fun bid (b : Vm.Prog.block) ->
      if reach.(bid) then begin
        let state = ref block_in.(bid) in
        let flag sid r =
          diags :=
            Diag.warning ~sid ~code:"W-uninit" ~fid
              (Printf.sprintf
                 "register r%d may be read before initialization" r)
            :: !diags
        in
        let check_uses sid uses =
          match !state with
          | L.Top -> ()
          | L.Known known ->
              List.iter
                (fun r -> if not (ISet.mem r known) then flag sid r)
                (List.sort_uniq compare uses)
        in
        Array.iteri
          (fun idx i ->
            check_uses (Vm.Isa.Sid.make ~fid ~bid ~idx) (Vm.Isa.reads i);
            state := add_def !state (Vm.Isa.def_reg i))
          b.instrs;
        check_uses (Insn.term_sid ~fid b) (Vm.Isa.term_reads b.term)
      end)
    f.blocks;
  List.sort Diag.compare !diags

let check prog =
  Array.to_list prog.Vm.Prog.funcs
  |> List.concat_map (fun (f : Vm.Prog.func) -> check_func prog f.fid)
