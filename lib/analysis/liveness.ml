module ISet = Set.Make (Int)

module L = struct
  type t = ISet.t

  let equal = ISet.equal
  let join = ISet.union
end

module Engine = Dataflow.Make (L)

let kill s r = if r < 0 then s else ISet.remove r s
let gen s uses = List.fold_left (fun s r -> ISet.add r s) s uses

(* live-in of a block from the live-out state *)
let transfer_block (f : Vm.Prog.func) bid live_out =
  let b = f.blocks.(bid) in
  let live =
    gen (kill live_out (Vm.Isa.term_def b.term)) (Vm.Isa.term_reads b.term)
  in
  let live = ref live in
  for idx = Array.length b.instrs - 1 downto 0 do
    let i = b.instrs.(idx) in
    live := gen (kill !live (Vm.Isa.def_reg i)) (Vm.Isa.reads i)
  done;
  !live

let solve (f : Vm.Prog.func) =
  let n_blocks = Array.length f.blocks in
  let graph = Insn.static_cfg f in
  let exits =
    Array.to_list f.blocks
    |> List.filter_map (fun (b : Vm.Prog.block) ->
           match b.term with
           | Vm.Isa.Ret _ | Vm.Isa.Halt -> Some b.bid
           | _ -> None)
  in
  Engine.run ~dir:Dataflow.Backward ~graph ~n_blocks ~entry:exits
    ~boundary:ISet.empty ~init:ISet.empty
    ~transfer:(fun bid s -> transfer_block f bid s)

let live_in f bid =
  let { Engine.block_out; _ } = solve f in
  ISet.elements block_out.(bid)

let check_func (prog : Vm.Prog.t) fid =
  let f = prog.funcs.(fid) in
  let { Engine.block_in; _ } = solve f in
  (* block_in (backward) = live-out of the block *)
  let diags = ref [] in
  let reach = Verify.reachable_blocks f in
  Array.iteri
    (fun bid (b : Vm.Prog.block) ->
      if reach.(bid) then begin
        let live =
          gen
            (kill block_in.(bid) (Vm.Isa.term_def b.term))
            (Vm.Isa.term_reads b.term)
        in
        let live = ref live in
        for idx = Array.length b.instrs - 1 downto 0 do
          let i = b.instrs.(idx) in
          let r = Vm.Isa.def_reg i in
          if r >= 0 && not (ISet.mem r !live) then
            diags :=
              Diag.warning
                ~sid:(Vm.Isa.Sid.make ~fid ~bid ~idx)
                ~code:"W-dead-store" ~fid
                (Format.asprintf
                   "dead store: result r%d of `%a' is never read" r
                   Vm.Isa.pp_instr i)
              :: !diags;
          live := gen (kill !live r) (Vm.Isa.reads i)
        done
      end)
    f.blocks;
  (* parameters nobody reads *)
  let used = Hashtbl.create 16 in
  Array.iteri
    (fun bid (b : Vm.Prog.block) ->
      if reach.(bid) then begin
        Array.iter
          (fun i -> List.iter (fun r -> Hashtbl.replace used r ()) (Vm.Isa.reads i))
          b.instrs;
        List.iter (fun r -> Hashtbl.replace used r ()) (Vm.Isa.term_reads b.term)
      end)
    f.blocks;
  for p = 0 to f.n_params - 1 do
    if not (Hashtbl.mem used p) then
      diags :=
        Diag.info ~code:"I-dead-param" ~fid
          (Printf.sprintf "parameter r%d of %s is never read" p f.fname)
        :: !diags
  done;
  List.sort Diag.compare !diags

let check prog =
  Array.to_list prog.Vm.Prog.funcs
  |> List.concat_map (fun (f : Vm.Prog.func) -> check_func prog f.fid)
