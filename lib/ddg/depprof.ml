type config = {
  stmt_cap : int;
  dep_cap : int;
  max_pieces : int;
  track_waw : bool;
  scev_prune : bool;
  boundary_splits : bool;
  per_component_labels : bool;
}

let default_config =
  { stmt_cap = 100_000;
    dep_cap = 50_000;
    max_pieces = 16;
    track_waw = false;
    scev_prune = true;
    boundary_splits = true;
    per_component_labels = true }

type label_kind = Lvalue | Laddr | Lnone

type stmt_key = { s_ctx : int; s_sid : Vm.Isa.Sid.t }

type stmt_info = {
  sk : stmt_key;
  cls : Vm.Isa.op_class;
  s_count : int;
  s_pieces : Fold.piece list;
  label_kind : label_kind;
  is_scev : bool;
  affine_exact : bool;
  depth : int;
}

type dep_kind = Reg_dep | Mem_dep | Out_dep

type dep_key = {
  src_sid : Vm.Isa.Sid.t;
  src_ctx : int;
  dst_sid : Vm.Isa.Sid.t;
  dst_ctx : int;
  kind : dep_kind;
}

type dep_info = {
  dk : dep_key;
  d_count : int;
  d_pieces : Fold.piece list;
  src_depth : int;
  dst_depth : int;
}

(* Witness checks (speculative pruning): the static engine may prune a
   region whose model holds only under an assumption about a
   data-dependent branch.  Each assumption is a [witness]; the engine
   probes the guard's branch events at run time, and a run whose
   behaviour contradicts a witness raises {!Witness_failure} before any
   result is materialised (the caller re-analyses with the speculation
   refined and reruns). *)
type witness_expect =
  | Expect_taken  (* the guard always branches to [w_block] *)
  | Expect_skip  (* the guard never branches to [w_block] *)

type witness = {
  w_fid : int;
  w_guard : int;  (* block whose terminator is the speculated branch *)
  w_block : int;  (* the branch successor the speculation is about *)
  w_expect : witness_expect;
}

type witness_outcome = { wo_witness : witness; wo_hits : int; wo_misses : int }

exception Witness_failure of witness_outcome list

type result = {
  stmts : stmt_info list;
  deps : dep_info list;
  pruned_dep_edges : int;
  total_dep_edges : int;
  statically_pruned : int;
  witnesses : witness_outcome list;
  stree : Sched_tree.t;
  run_stats : Vm.Interp.stats;
  structure : Cfg.Cfg_builder.structure;
}

(* A statically resolved access: its address is an affine function of
   the dynamic iteration vector, [base + coefs . coords].  Produced by
   [Analysis.Statdep], consumed here to skip shadow-memory tracking and
   re-derive the skipped dependences by simulation at finalisation. *)
type static_access = {
  sa_sid : Vm.Isa.Sid.t;
  sa_store : bool;
  sa_base : int;
  sa_coefs : int array;
}

type static_item =
  | Sacc of static_access
  | Sloop of { sl_base : int; sl_coefs : int array; sl_body : static_item list }

type static_plan = {
  sp_items : static_item list;
      (** the program's once-executed chain restricted to pruned
          accesses: straight-line items and affine-trip loops (runtime
          trip = [max 0 (sl_base + sl_coefs . outer coords)]), in
          execution order *)
  sp_resolved : (Vm.Isa.Sid.t, static_access) Hashtbl.t;
      (** the pruned accesses, keyed by statement id *)
  sp_witnesses : witness list;
      (** speculation assumptions the plan depends on *)
  sp_mem_size : int;
}

let loop_trip ~base ~coefs (coords : int array) =
  let t = ref base in
  Array.iteri (fun i c -> t := !t + (c * coords.(i))) coefs;
  max 0 !t

(* The engine numbers statements densely in first-execution order; a
   shadow tag is its producer's index, so a dependence never needs the
   producer's [stmt_key] until its record is created.  Each consumer
   memoises, per dependence slot (register operand 0 or 1, memory read,
   WAW), the producer it last saw there and that dependence's record:
   a slot's kind is fixed, so a producer equal to the memoised one
   means the same [dep_table_key]. *)
type stmt_rec = {
  r_sk : stmt_key;
  r_idx : int;  (* dense index: position in [stmt_arr] *)
  collector : Fold.Collector.t;
  mutable count : int;
  r_cls : Vm.Isa.op_class;
  r_label : label_kind;
  r_pruned : static_access option;  (* the static plan's entry for the sid *)
  r_scev : bool;
      (* predicted SCEV: its dependences are counted, never collected *)
  mutable poisoned : bool;  (* saw a label of the wrong shape *)
  r_depth : int;
  slot_src : int array;  (* per slot: producer index last seen, or -1 *)
  slot_dep : dep_rec array;  (* per slot: its record *)
}

and dep_rec = {
  dr_dk : dep_key;
  dr_src : int;  (* producer's statement index *)
  dr_dst : int;  (* consumer's statement index *)
  d_collector : Fold.Collector.t;  (* [no_collector] when an endpoint is [r_scev] *)
  mutable d_n : int;
  dr_src_depth : int;
  dr_dst_depth : int;
}

(* Table keys, injective by construction.  A dependence key packs two
   statement indices (below [max_stmts] = 2^30, checked where an index
   is issued) above the 2-bit kind, below 2^62, so it is a
   non-negative int.  A witness guard's key packs its function id
   above its block id. *)
let max_stmts = 1 lsl 30
let block_key ~fid ~block = (fid lsl 32) lor block
let kind_code = function Reg_dep -> 0 | Mem_dep -> 1 | Out_dep -> 2
let dep_table_key ~src ~dst kind = (src lsl 32) lor (dst lsl 2) lor kind_code kind

(* Dependence slots of a consumer; register operands past the second
   (none in the ISA today) go uncached. *)
let n_slots = 4
let mem_slot = 2
let waw_slot = 3
let no_slot = -1

(* Fill the empty entries of block rows and of the slot caches. *)
let no_collector = Fold.Collector.create ~cap:1 ~dim:0 ~label_dim:0 ()

let no_dep =
  { dr_dk = { src_sid = -1; src_ctx = -1; dst_sid = -1; dst_ctx = -1; kind = Reg_dep };
    dr_src = -1;
    dr_dst = -1;
    d_collector = no_collector;
    d_n = 0;
    dr_src_depth = 0;
    dr_dst_depth = 0 }

let no_stmt =
  { r_sk = { s_ctx = -1; s_sid = -1 };
    r_idx = -1;
    collector = no_collector;
    count = 0;
    r_cls = Vm.Isa.Other_op;
    r_label = Lnone;
    r_pruned = None;
    r_scev = false;
    poisoned = false;
    r_depth = 0;
    slot_src = [||];
    slot_dep = [||] }

(* A block's translation: what its instructions do to registers, which
   the program fixes, so it is built once per block. *)
type block_code = {
  bc_sid : Vm.Isa.Sid.t;  (* the block's first instruction *)
  bc_len : int;
  bc_reads : int array array;
      (* per instruction, the registers it reads, in [Vm.Interp]'s order *)
  bc_src : int array array;
      (* per instruction and read: the latest earlier instruction of the
         block that defines the register, or -1 when the read goes
         through the register shadow (there is none, or the instruction
         reads one register twice) *)
  bc_def : int array;  (* per instruction, the register it writes, or -1 *)
  bc_shadowed : bool array;
      (* per instruction: whether its definition is written to the
         register shadow — the block's last definition of the register,
         or one a read through the shadow takes *)
}

(* One block in one context, translated at its first execution there.
   While [b_fast], an execution appends its coordinates to [b_dom] once;
   a labelled statement hands its collector only its label
   ([Fold.Collector.label]), a label-less one does nothing, and so does
   a dependence of [b_static], whose producer [b_code] fixes: the points
   of both are the domain's, a dependence's each labelled by itself.
   [materialize] fills their collectors from the domain and clears
   [b_fast], after which each instruction goes through [slow_exec]. *)
type block_rec = {
  b_code : block_code;
  b_ctx : int;
  b_stmts : stmt_rec array;  (* by instruction index; [no_stmt] until executed *)
  mutable b_fast : bool;
  mutable b_dom : Fold.Collector.domain;
  mutable b_static : dep_rec list;  (* newest first *)
  mutable b_limit : int;
      (* the points a collector of the block may take before one
         spills (a cap below 1 spills at the first point):
         [materialize] runs before the domain passes it *)
}

let no_domain = Fold.Collector.domain ~dim:0 ~cap:0

let no_code =
  { bc_sid = -1; bc_len = 0; bc_reads = [||]; bc_src = [||]; bc_def = [||]; bc_shadowed = [||] }

let no_block =
  { b_code = no_code;
    b_ctx = -1;
    b_stmts = [||];
    b_fast = false;
    b_dom = no_domain;
    b_static = [];
    b_limit = 0 }

let translate prog sid =
  let fid = Vm.Isa.Sid.fid sid and bid = Vm.Isa.Sid.bid sid in
  let instrs = (Vm.Prog.block prog ~fid ~bid).Vm.Prog.instrs in
  let n = Array.length instrs in
  let def = Array.map Vm.Isa.def_reg instrs in
  let reads =
    Array.map
      (fun ins ->
        match (Vm.Isa.read_a ins, Vm.Isa.read_b ins) with
        | -1, -1 -> [||]
        | a, -1 | -1, a -> [| a |]
        | a, b -> [| a; b |])
      instrs
  in
  let shadowed =
    Array.init n (fun j ->
        let last = ref (def.(j) >= 0) in
        for k = j + 1 to n - 1 do
          if def.(k) = def.(j) then last := false
        done;
        !last)
  in
  let src =
    Array.mapi
      (fun i regs ->
        let twice = Array.length regs = 2 && regs.(0) = regs.(1) in
        Array.map
          (fun r ->
            let j = ref (i - 1) in
            while !j >= 0 && def.(!j) <> r do
              decr j
            done;
            if twice then begin
              if !j >= 0 then shadowed.(!j) <- true;
              -1
            end
            else !j)
          regs)
      reads
  in
  { bc_sid = Vm.Isa.Sid.make ~fid ~bid ~idx:0;
    bc_len = n;
    bc_reads = reads;
    bc_src = src;
    bc_def = def;
    bc_shadowed = shadowed }

type witness_state = {
  ws_w : witness;
  mutable ws_hits : int;
  mutable ws_misses : int;
}

let label_kind_of prog sid =
  match Vm.Prog.instr_at prog sid with
  | Vm.Isa.Cmp _ | Vm.Isa.Fcmp _ -> Lnone
  | Vm.Isa.Load _ | Vm.Isa.Store _ -> Laddr
  | i -> (
      match Vm.Isa.class_of_instr i with
      | Vm.Isa.Int_alu -> Lvalue
      | Vm.Isa.Fp_alu | Vm.Isa.Mem_load | Vm.Isa.Mem_store | Vm.Isa.Other_op ->
          Lnone)

(* ------------------------------------------------------------------ *)
(* The profiling engine                                                 *)
(* ------------------------------------------------------------------ *)

(* One Instrumentation-II state machine, driven by the events of one
   execution: live from the interpreter ([profile]) or replayed from a
   trace file ([profile_replay]).  Dependence points stream straight
   into the folding collectors, except those of a dependence with a
   predicted-SCEV endpoint, which SCEV pruning will drop, and those a
   block record holds until [materialize]. *)
type engine = {
  e_config : config;
  e_prog : Vm.Prog.t;
  iiv : Iiv.t;
  levents : Loop_events.state;
  e_stree : Sched_tree.t;
  shadow : Shadow.t;
  mutable by_ctx : block_rec array;
      (* by context id: a context ends in the block executing;
         [no_block] marks a context not seen yet *)
  codes : block_code Int_tbl.t;  (* by the block's first sid *)
  mutable stmt_arr : stmt_rec array;  (* by dense index; [n_stmts] used *)
  mutable n_stmts : int;
  deps : dep_rec Int_tbl.t;  (* by [dep_table_key] *)
  e_prune : static_plan option;
  e_scev : Scev_pred.t;  (* statements predicted SCEV *)
  e_witness : witness_state list Int_tbl.t;
      (* [block_key] of the guard -> probes on that guard's branch *)
  label_buf : int array;
      (* a labelled statement's value or address, written per execution
         and copied by its collector *)
  mutable cur : block_rec;  (* the block executing, while [next_sid >= 0] *)
  mutable cur_coords : int array;  (* its coordinates *)
  mutable next_sid : int;
      (* the instruction the current block execution runs next, or -1
         when none is open *)
  mutable n_translated : int;  (* block records built *)
  mutable n_static_edges : int;  (* dependence edges of [b_static] records *)
}

let make_engine ~config ?static_prune ~scev prog ~structure =
  Iiv.reset_intern_table ();
  let e_witness = Int_tbl.create 8 in
  (match static_prune with
  | Some p ->
      List.iter
        (fun w ->
          let key = block_key ~fid:w.w_fid ~block:w.w_guard in
          Int_tbl.replace e_witness key
            ({ ws_w = w; ws_hits = 0; ws_misses = 0 }
            :: Option.value ~default:[] (Int_tbl.find_opt e_witness key)))
        p.sp_witnesses
  | None -> ());
  { e_config = config;
    e_prog = prog;
    iiv = Iiv.create ();
    levents = Loop_events.create structure ~main:prog.Vm.Prog.main;
    e_stree = Sched_tree.create ();
    shadow = Shadow.create ();
    by_ctx = [||];
    codes = Int_tbl.create 64;
    stmt_arr = [||];
    n_stmts = 0;
    deps = Int_tbl.create 512;
    e_prune = static_prune;
    e_scev = scev;
    e_witness;
    label_buf = [| 0 |];
    cur = no_block;
    cur_coords = [||];
    next_sid = -1;
    n_translated = 0;
    n_static_edges = 0 }

let apply_levent e ev =
  Iiv.update e.iiv ev;
  match ev with
  | Loop_events.Iterate _ -> Sched_tree.record_iteration e.e_stree e.iiv
  | Loop_events.Enter _ | Loop_events.Exit _ | Loop_events.Block _
  | Loop_events.Call_push _ | Loop_events.Ret_pop _ ->
      ()

let new_stmt_rec e ~ctx ~sid ~depth first_value =
  let idx = e.n_stmts in
  if idx >= max_stmts then failwith "Depprof: more than 2^30 statements";
  let r_label =
    (* an integer-class instruction that turns out to carry a float
       (e.g. a Mov copying a loaded float) has no integer value to
       recognise a SCEV on: demote it to label-less *)
    match (label_kind_of e.e_prog sid, first_value) with
    | Lvalue, Some (Vm.Event.F _) -> Lnone
    | k, _ -> k
  in
  let label_dim = match r_label with Lnone -> 0 | Lvalue | Laddr -> 1 in
  let config = e.e_config in
  let r =
    { r_sk = { s_ctx = ctx; s_sid = sid };
      r_idx = idx;
      collector =
        Fold.Collector.create ~cap:config.stmt_cap ~max_pieces:config.max_pieces
          ~boundary_splits:config.boundary_splits
          ~per_component:config.per_component_labels ~dim:depth ~label_dim ();
      count = 0;
      r_cls = Vm.Isa.class_of_instr (Vm.Prog.instr_at e.e_prog sid);
      r_label;
      r_pruned =
        (match e.e_prune with
        | None -> None
        | Some p -> Hashtbl.find_opt p.sp_resolved sid);
      r_scev = Scev_pred.mem e.e_scev sid;
      poisoned = false;
      r_depth = depth;
      slot_src = Array.make n_slots (-1);
      slot_dep = Array.make n_slots no_dep }
  in
  if idx = Array.length e.stmt_arr then begin
    let grown = Array.make (max 64 (2 * idx)) r in
    Array.blit e.stmt_arr 0 grown 0 idx;
    e.stmt_arr <- grown
  end;
  e.stmt_arr.(idx) <- r;
  e.n_stmts <- idx + 1;
  r

let outside_context sid =
  failwith
    (Format.asprintf "Depprof: %a executed outside its block's context" Vm.Isa.Sid.pp sid)

(* The record of [ctx], which [sid]'s block executes in, built on first
   use: [fast] at a block's first instruction. *)
let block_of e ctx sid ~fast =
  if ctx >= Array.length e.by_ctx then begin
    let grown = Array.make (max (ctx + 1) (2 * Array.length e.by_ctx)) no_block in
    Array.blit e.by_ctx 0 grown 0 (Array.length e.by_ctx);
    e.by_ctx <- grown
  end;
  let first = sid - Vm.Isa.Sid.idx sid in
  let br = e.by_ctx.(ctx) in
  if br != no_block then begin
    if br.b_code.bc_sid <> first then outside_context sid;
    br
  end
  else begin
    let code =
      match Int_tbl.find e.codes first with
      | c -> c
      | exception Not_found ->
          let c = translate e.e_prog sid in
          Int_tbl.add e.codes first c;
          c
    in
    let br =
      { b_code = code;
        b_ctx = ctx;
        b_stmts = Array.make code.bc_len no_stmt;
        b_fast = fast;
        b_dom =
          (if fast then Fold.Collector.domain ~dim:(Iiv.depth e.iiv) ~cap:e.e_config.stmt_cap
           else no_domain);
        b_static = [];
        b_limit = max 1 e.e_config.stmt_cap }
    in
    if fast then e.n_translated <- e.n_translated + 1;
    e.by_ctx.(ctx) <- br;
    br
  end

(* Give every collector of [br] the points its fast executions imply and
   leave the fast path.  The last execution ran its first [ran]
   instructions. *)
let materialize e br ~ran ~final =
  let n = Fold.Collector.domain_points br.b_dom in
  for i = 0 to Array.length br.b_stmts - 1 do
    let r = br.b_stmts.(i) in
    if r != no_stmt then begin
      r.count <- (if i < ran then n else n - 1);
      (* a labelled collector took its points through [label] *)
      if r.r_label = Lnone then
        Fold.Collector.fill ~final r.collector br.b_dom Fold.Collector.Unlabelled r.count
    end
  done;
  List.iter
    (fun dr ->
      let k = br.b_stmts.(Vm.Isa.Sid.idx dr.dr_dk.dst_sid).count in
      dr.d_n <- k;
      e.n_static_edges <- e.n_static_edges + k;
      if dr.d_collector != no_collector then
        Fold.Collector.fill ~final dr.d_collector br.b_dom Fold.Collector.By_coords k)
    br.b_static;
  br.b_fast <- false;
  br.b_dom <- no_domain;
  br.b_static <- []

let new_dep_rec config ~(src : stmt_rec) ~(dst : stmt_rec) kind ~src_depth
    ~dst_depth =
  { dr_dk =
      { src_sid = src.r_sk.s_sid;
        src_ctx = src.r_sk.s_ctx;
        dst_sid = dst.r_sk.s_sid;
        dst_ctx = dst.r_sk.s_ctx;
        kind };
    dr_src = src.r_idx;
    dr_dst = dst.r_idx;
    d_collector =
      (if src.r_scev || dst.r_scev then no_collector
       else
         Fold.Collector.create ~cap:config.dep_cap ~max_pieces:config.max_pieces
           ~boundary_splits:config.boundary_splits
           ~per_component:config.per_component_labels ~dim:dst_depth
           ~label_dim:src_depth ());
    d_n = 0;
    dr_src_depth = src_depth;
    dr_dst_depth = dst_depth }

(* The record in [deps] of the dependence from [src] to [r], created on
   first use. *)
let find_dep e deps (r : stmt_rec) coords kind ~src ~src_coords =
  let key = dep_table_key ~src ~dst:r.r_idx kind in
  match Int_tbl.find deps key with
  | dr -> dr
  | exception Not_found ->
      let dr =
        new_dep_rec e.e_config ~src:e.stmt_arr.(src) ~dst:r kind
          ~src_depth:(Array.length src_coords) ~dst_depth:(Array.length coords)
      in
      Int_tbl.add deps key dr;
      dr

(* One dynamic dependence from producer [src], which ran at
   [src_coords], to the statement [r] now executing at [coords],
   through [slot] (of kind [kind]). *)
let record_dep e (r : stmt_rec) coords slot kind ~src ~src_coords =
  let dr =
    if slot = no_slot then find_dep e e.deps r coords kind ~src ~src_coords
    else if r.slot_src.(slot) = src then r.slot_dep.(slot)
    else begin
      let dr = find_dep e e.deps r coords kind ~src ~src_coords in
      r.slot_src.(slot) <- src;
      r.slot_dep.(slot) <- dr;
      dr
    end
  in
  dr.d_n <- dr.d_n + 1;
  if
    dr.d_collector != no_collector
    && Fold.Collector.dim dr.d_collector = Array.length coords
    && Array.length src_coords = dr.dr_src_depth
  then Fold.Collector.add dr.d_collector coords src_coords

(* The register dependence of [r]'s read of [reg] through [slot], from
   the shadow's last writer. *)
let record_reg_dep e r coords slot reg =
  let src = Shadow.reg_tag e.shadow ~reg in
  if src >= 0 then
    record_dep e r coords slot Reg_dep ~src ~src_coords:(Shadow.reg_coords e.shadow ~reg)

(* The slot of a register read: its position among the instruction's
   reads. *)
let reg_slot p = if p < 2 then p else no_slot

(* Memory dependences and the memory shadow; a statically pruned access
   skips both (the static plan's dependences are injected at
   finalisation). *)
let track_mem e r coords (ex : Vm.Event.exec) =
  if Option.is_none r.r_pruned then begin
    let shadow = e.shadow in
    (match ex.addr_read with
    | Some addr ->
        let src = Shadow.mem_tag shadow ~addr in
        if src >= 0 then
          record_dep e r coords mem_slot Mem_dep ~src
            ~src_coords:(Shadow.mem_coords shadow ~addr)
    | None -> ());
    match ex.addr_written with
    | Some addr ->
        (if e.e_config.track_waw then
           let src = Shadow.mem_tag shadow ~addr in
           if src >= 0 then
             record_dep e r coords waw_slot Out_dep ~src
               ~src_coords:(Shadow.mem_coords shadow ~addr));
        Shadow.write_mem shadow ~addr ~tag:r.r_idx ~coords
    | None -> ()
  end

(* The value or address labelling one execution of [r]; a label of the
   wrong shape poisons [r]. *)
let label_value r (ex : Vm.Event.exec) =
  match r.r_label with
  | Lnone -> 0
  | Lvalue -> (
      match ex.value with
      | Some (Vm.Event.I v) -> v
      | Some (Vm.Event.F _) | None ->
          r.poisoned <- true;
          0)
  | Laddr -> (
      match (ex.addr_read, ex.addr_written) with
      | Some a, _ | None, Some a -> a
      | None, None ->
          r.poisoned <- true;
          0)

(* One instruction, every dependence through the shadows: the path of a
   block record after [materialize], and of any instruction that does
   not continue the open block execution. *)
let slow_exec e (ex : Vm.Event.exec) =
  let ctx = Iiv.context_id e.iiv in
  let coords = Iiv.coords e.iiv in
  let depth = Array.length coords in
  Sched_tree.record e.e_stree e.iiv ~weight:1;
  let br = block_of e ctx ex.sid ~fast:false in
  if br.b_fast then materialize e br ~ran:br.b_code.bc_len ~final:false;
  let i = Vm.Isa.Sid.idx ex.sid in
  if i >= Array.length br.b_stmts then outside_context ex.sid;
  let r = br.b_stmts.(i) in
  let r =
    if r != no_stmt then r
    else begin
      let r = new_stmt_rec e ~ctx ~sid:ex.sid ~depth ex.value in
      br.b_stmts.(i) <- r;
      r
    end
  in
  r.count <- r.count + 1;
  if Fold.Collector.dim r.collector = depth then begin
    let label =
      match r.r_label with
      | Lnone -> [||]
      | Lvalue | Laddr ->
          e.label_buf.(0) <- label_value r ex;
          e.label_buf
    in
    Fold.Collector.add r.collector coords label
  end
  else r.poisoned <- true;
  (* dependences: consult shadows before recording this instruction's
     own writes *)
  let code = br.b_code in
  let reads = code.bc_reads.(i) in
  for p = 0 to Array.length reads - 1 do
    record_reg_dep e r coords (reg_slot p) reads.(p)
  done;
  track_mem e r coords ex;
  if code.bc_def.(i) >= 0 then Shadow.write_reg e.shadow ~reg:code.bc_def.(i) ~tag:r.r_idx ~coords

(* End the open block execution, if any.  One cut short (a truncated
   event stream) writes the shadow definitions it skipped that no later
   instruction it ran overwrote, and leaves the fast path. *)
let close e =
  if e.next_sid >= 0 then begin
    let br = e.cur in
    let ran = e.next_sid - br.b_code.bc_sid in
    e.next_sid <- -1;
    Sched_tree.record e.e_stree e.iiv ~weight:ran;
    let code = br.b_code in
    if ran < code.bc_len then begin
      for j = 0 to ran - 1 do
        let reg = code.bc_def.(j) in
        if reg >= 0 && not code.bc_shadowed.(j) then begin
          let later = ref false in
          for k = j + 1 to ran - 1 do
            if code.bc_def.(k) = reg then later := true
          done;
          if not !later then
            Shadow.write_reg e.shadow ~reg ~tag:br.b_stmts.(j).r_idx ~coords:e.cur_coords
        end
      done;
      materialize e br ~ran ~final:false
    end
  end

(* The next instruction of the open execution of [br]. *)
let fast_exec e br (ex : Vm.Event.exec) =
  let code = br.b_code and coords = e.cur_coords in
  let i = Vm.Isa.Sid.idx ex.sid in
  e.next_sid <- ex.sid + 1;
  let r = br.b_stmts.(i) in
  let first = r == no_stmt in
  let r =
    if not first then r
    else begin
      let r = new_stmt_rec e ~ctx:br.b_ctx ~sid:ex.sid ~depth:(Array.length coords) ex.value in
      br.b_stmts.(i) <- r;
      r
    end
  in
  (match r.r_label with
  | Lnone -> ()
  | Lvalue | Laddr -> Fold.Collector.label r.collector br.b_dom coords (label_value r ex));
  (* a read the block satisfies is a dependence of [b_static], created
     here at the first execution, in read order like the others *)
  let reads = code.bc_reads.(i) and src = code.bc_src.(i) in
  for p = 0 to Array.length reads - 1 do
    let j = src.(p) in
    if j < 0 then record_reg_dep e r coords (reg_slot p) reads.(p)
    else if first then begin
      let dr =
        find_dep e e.deps r coords Reg_dep ~src:br.b_stmts.(j).r_idx ~src_coords:coords
      in
      br.b_static <- dr :: br.b_static;
      if dr.d_collector != no_collector then
        br.b_limit <- min br.b_limit (max 1 e.e_config.dep_cap)
    end
  done;
  track_mem e r coords ex;
  if code.bc_shadowed.(i) then
    Shadow.write_reg e.shadow ~reg:code.bc_def.(i) ~tag:r.r_idx ~coords;
  if i + 1 = code.bc_len then close e

(* A block's first instruction: translate the block in this context on
   its first execution there, and do the work of the whole execution
   that does not depend on the instruction. *)
let open_block e (ex : Vm.Event.exec) =
  let br = block_of e (Iiv.context_id e.iiv) ex.sid ~fast:true in
  if br.b_fast && Fold.Collector.domain_points br.b_dom >= br.b_limit then
    materialize e br ~ran:br.b_code.bc_len ~final:false;
  if br.b_fast then begin
    let coords = Iiv.coords e.iiv in
    e.cur <- br;
    e.cur_coords <- coords;
    Fold.Collector.extend br.b_dom coords;
    fast_exec e br ex
  end
  else slow_exec e ex

let on_exec e (ex : Vm.Event.exec) =
  if ex.sid = e.next_sid then fast_exec e e.cur ex
  else begin
    close e;
    if Vm.Isa.Sid.idx ex.sid = 0 then open_block e ex else slow_exec e ex
  end

let on_control e ~emit ev =
  close e;
  (match ev with
  | Vm.Event.Call _ -> Shadow.push_frame e.shadow
  | Vm.Event.Return _ -> Shadow.pop_frame e.shadow
  | Vm.Event.Jump { fid; src; dst } -> (
      (* witness probe: every branch of a speculated guard either
         confirms or refutes the speculation *)
      match Int_tbl.find_opt e.e_witness (block_key ~fid ~block:src) with
      | Some wss ->
          List.iter
            (fun ws ->
              let taken = dst = ws.ws_w.w_block in
              let ok =
                match ws.ws_w.w_expect with
                | Expect_taken -> taken
                | Expect_skip -> not taken
              in
              if ok then ws.ws_hits <- ws.ws_hits + 1
              else ws.ws_misses <- ws.ws_misses + 1)
            wss
      | None -> ()));
  Loop_events.feed e.levents ~emit ev

let callbacks e =
  let emit = apply_levent e in
  { Vm.Interp.on_control = (fun ev -> on_control e ~emit ev);
    on_exec = (fun ex -> on_exec e ex) }

let start e = Loop_events.start e.levents ~emit:(apply_levent e)

let finish e =
  close e;
  Loop_events.finish e.levents ~emit:(apply_levent e)

let witness_outcomes e =
  Int_tbl.fold
    (fun _ wss acc ->
      List.map
        (fun ws ->
          { wo_witness = ws.ws_w; wo_hits = ws.ws_hits; wo_misses = ws.ws_misses })
        wss
      @ acc)
    e.e_witness []
  |> List.sort compare

(* Must run after [finish] and before [finalize]: a refuted witness
   means the pruned run skipped shadow tracking it actually needed, so
   no result may be materialised from this engine. *)
let check_witnesses e =
  let os = witness_outcomes e in
  if List.exists (fun o -> o.wo_misses > 0) os then raise (Witness_failure os)

(* ------------------------------------------------------------------ *)
(* Finalisation                                                         *)
(* ------------------------------------------------------------------ *)

(* Indexed like [stmt_arr]. *)
let stmt_infos_of e shared =
  Array.init e.n_stmts (fun i ->
      let r = e.stmt_arr.(i) in
      let pieces = Fold.Collector.result ~shared r.collector in
      let affine = (not r.poisoned) && Fold.Collector.is_affine r.collector in
      { sk = r.r_sk;
        cls = r.r_cls;
        s_count = r.count;
        s_pieces = pieces;
        label_kind = r.r_label;
        is_scev = (r.r_label = Lvalue && affine);
        affine_exact = affine;
        depth = r.r_depth })

(* A plan item compiled for the simulation: an access carries its
   statement's dense index ([n_stmts] and past: never executed). *)
type sim_item =
  | Sim_acc of { idx : int; store : bool; base : int; coefs : int array }
  | Sim_loop of { base : int; coefs : int array; body : sim_item array }

(* Re-derive the dependences the pruned run skipped, by simulating the
   static plan: enumerate the resolved accesses in exact execution order
   (the plan is the program's once-executed chain) with a fresh
   [Shadow] as the last-writer table, tagged by statement index, and
   one coordinate array per loop iteration shared by its accesses as
   [Iiv.coords] is, feeding every rediscovered edge into a fresh
   collector exactly as the unpruned engine would have.  Contexts are
   recovered from the pruned run's own statement table — each pruned
   statement executes under a unique dynamic context by construction of
   the plan (single static call chain). *)
let simulate_plan e (plan : static_plan) =
  let config = e.e_config in
  let n_exec = e.n_stmts in
  (* sid -> index of the statement record of its one dynamic context *)
  let idx_of = Int_tbl.create 64 in
  for i = 0 to n_exec - 1 do
    let sid = e.stmt_arr.(i).r_sk.s_sid in
    if Hashtbl.mem plan.sp_resolved sid then begin
      if Int_tbl.mem idx_of sid then
        failwith "Depprof: pruned statement has multiple dynamic contexts";
      Int_tbl.add idx_of sid i
    end
  done;
  (* plan accesses the run never executed get indices from [n_exec] on:
     an edge with such an endpoint fails, and so does its count check *)
  let unexecuted = Int_tbl.create 4 in
  let index sid =
    match Int_tbl.find_opt idx_of sid with
    | Some i -> i
    | None -> (
        match Int_tbl.find_opt unexecuted sid with
        | Some i -> i
        | None ->
            let i = n_exec + Int_tbl.length unexecuted in
            Int_tbl.add unexecuted sid i;
            i)
  in
  let rec compile items =
    Array.of_list
      (List.map
         (function
           | Sacc a ->
               Sim_acc
                 { idx = index a.sa_sid;
                   store = a.sa_store;
                   base = a.sa_base;
                   coefs = a.sa_coefs }
           | Sloop { sl_base; sl_coefs; sl_body } ->
               Sim_loop { base = sl_base; coefs = sl_coefs; body = compile sl_body })
         items)
  in
  let items = compile plan.sp_items in
  let sim_count = Array.make (n_exec + Int_tbl.length unexecuted) 0 in
  let mem_size = max 1 plan.sp_mem_size in
  let last = Shadow.create () in
  let deps = Int_tbl.create 64 in
  (* the edge from [addr]'s last writer, if any, to statement [dst]
     running at [coords] *)
  let edge kind ~dst ~addr coords =
    let src = Shadow.mem_tag last ~addr in
    if src >= 0 then begin
      if src >= n_exec || dst >= n_exec then
        failwith "Depprof: pruned dependence endpoint never executed";
      let src_coords = Shadow.mem_coords last ~addr in
      let dr = find_dep e deps e.stmt_arr.(dst) coords kind ~src ~src_coords in
      dr.d_n <- dr.d_n + 1;
      if dr.d_collector != no_collector then
        Fold.Collector.add dr.d_collector coords src_coords
    end
  in
  let rec go coords items =
    let d = Array.length coords in
    for j = 0 to Array.length items - 1 do
      match items.(j) with
      | Sim_acc { idx; store; base; coefs } ->
          if Array.length coefs <> d then
            failwith "Depprof: static plan depth mismatch";
          let addr = ref base in
          for i = 0 to d - 1 do
            addr := !addr + (coefs.(i) * coords.(i))
          done;
          let addr = !addr in
          if addr < 0 || addr >= mem_size then
            failwith "Depprof: static plan address out of range";
          sim_count.(idx) <- sim_count.(idx) + 1;
          if store then begin
            if config.track_waw then edge Out_dep ~dst:idx ~addr coords;
            Shadow.write_mem last ~addr ~tag:idx ~coords
          end
          else edge Mem_dep ~dst:idx ~addr coords
      | Sim_loop { base; coefs; body } ->
          if Array.length coefs <> d then
            failwith "Depprof: static plan loop depth mismatch";
          for k = 0 to loop_trip ~base ~coefs coords - 1 do
            let inner = Array.make (d + 1) k in
            Array.blit coords 0 inner 0 d;
            go inner body
          done
    done
  in
  go [||] items;
  (* the simulation must cover exactly the executions the run saw:
     a mismatch means a truncated run or an unsound plan — fail loudly
     rather than inject wrong dependences *)
  Array.iteri
    (fun i n ->
      let m = if i < n_exec then e.stmt_arr.(i).count else 0 in
      if n > 0 && n <> m then begin
        let sid =
          if i < n_exec then e.stmt_arr.(i).r_sk.s_sid
          else Int_tbl.fold (fun sid j acc -> if j = i then sid else acc) unexecuted (-1)
        in
        failwith
          (Format.asprintf
             "Depprof: static plan simulated %d executions of %a, the run \
              performed %d (truncated run?)"
             n Vm.Isa.Sid.pp sid m)
      end)
    sim_count;
  Int_tbl.iter
    (fun _ i ->
      if e.stmt_arr.(i).count > 0 && sim_count.(i) = 0 then
        failwith "Depprof: pruned access executed but absent from the plan")
    idx_of;
  deps

let obs_events = Obs.Metrics.counter ~help:"exec events seen by the dependence profiler" "ddg.profile.events"
let obs_blocks_translated = Obs.Metrics.counter ~help:"block records built at a block's first execution in a context (translated)" "ddg.profile.blocks_translated"
let obs_static_reg_edges = Obs.Metrics.counter ~help:"register dependence edges whose producer the block's translation fixed (no shadow read)" "ddg.profile.static_reg_edges"
let obs_peak_shadow = Obs.Metrics.gauge ~help:"distinct memory addresses shadowed by one profile (the largest)" "ddg.profile.peak_shadow"
let obs_scev_predicted = Obs.Metrics.counter ~help:"statements predicted SCEV before the run (their dependences are counted, not collected)" "ddg.profile.scev_predicted"
let obs_scev_reruns = Obs.Metrics.counter ~help:"profiles rerun without SCEV prediction after the fold refuted one" "ddg.profile.scev_reruns"
let obs_structure_reruns = Obs.Metrics.counter ~help:"profiles rerun under the observed structure after the run refuted the static one" "ddg.profile.structure_reruns"
let obs_pruned_accesses = Obs.Metrics.counter ~help:"memory accesses skipped by static pruning" "ddg.profile.pruned_accesses"
let obs_dep_edges = Obs.Metrics.counter ~help:"dynamic dependence edges (before SCEV pruning)" "ddg.result.dep_edges"
let obs_scev_pruned = Obs.Metrics.counter ~help:"dependence edges dropped by SCEV pruning" "ddg.result.scev_pruned_edges"
let obs_approx_stmt = Obs.Metrics.counter ~help:"statement collectors folded after spilling into approx mode" "ddg.finalize.approx_stmt"
let obs_approx_dep = Obs.Metrics.counter ~help:"dependence collectors folded after spilling into approx mode" "ddg.finalize.approx_dep"

(* A predicted-SCEV statement did not fold as SCEV: the dependences
   it skipped are lost, so the profile must be rerun without
   prediction. *)
exception Scev_refuted

let finalize e ~run_stats ~structure =
  Obs.Span.with_ ~cat:"ddg" "ddg.finalize" @@ fun () ->
  Array.iter (fun br -> if br.b_fast then materialize e br ~ran:br.b_code.bc_len ~final:true) e.by_ctx;
  (* exec events seen, and those of statically pruned accesses *)
  let events = ref 0 and n_pruned = ref 0 in
  for i = 0 to e.n_stmts - 1 do
    let r = e.stmt_arr.(i) in
    events := !events + r.count;
    if Option.is_some r.r_pruned then n_pruned := !n_pruned + r.count
  done;
  (* a spilled or poisoned collector cannot fold as SCEV: refute a
     prediction before any folding *)
  for i = 0 to e.n_stmts - 1 do
    let r = e.stmt_arr.(i) in
    if r.r_scev && (r.poisoned || Fold.Collector.spilled r.collector) then
      raise Scev_refuted
  done;
  (* inject the dependences skipped by static pruning *)
  (match e.e_prune with
  | Some plan when plan.sp_items <> [] ->
      Obs.Span.with_ ~cat:"ddg" "ddg.finalize.inject" @@ fun () ->
      let injected = simulate_plan e plan in
      Int_tbl.iter
        (fun key dr ->
          if Int_tbl.mem e.deps key then
            failwith "Depprof: injected dependence collides with a dynamic one";
          Int_tbl.add e.deps key dr)
        injected
  | _ -> ());
  (* fold every statement, then SCEV-prune the dependences (dropping
     edges whose producer or consumer is a recognised scalar-evolution
     instruction) and fold the rest *)
  let total_dep_edges = ref 0 in
  let pruned = ref 0 in
  let approx_dep = ref 0 in
  let stmt_infos, dep_infos =
    Obs.Span.with_ ~cat:"ddg" "ddg.finalize.fold" @@ fun () ->
    (* one stream table for every collector: most streams repeat *)
    let shared = Fold.Collector.shared () in
    let stmt_infos = stmt_infos_of e shared in
    Array.iteri
      (fun i s -> if e.stmt_arr.(i).r_scev && not s.is_scev then raise Scev_refuted)
      stmt_infos;
    ( stmt_infos,
      Int_tbl.fold
        (fun _ dr acc ->
          total_dep_edges := !total_dep_edges + dr.d_n;
          if
            e.e_config.scev_prune
            && (stmt_infos.(dr.dr_src).is_scev || stmt_infos.(dr.dr_dst).is_scev)
          then begin
            pruned := !pruned + dr.d_n;
            acc
          end
          else begin
            let d_pieces = Fold.Collector.result ~shared dr.d_collector in
            if Fold.Collector.spilled dr.d_collector then incr approx_dep;
            { dk = dr.dr_dk;
              d_count = dr.d_n;
              d_pieces;
              src_depth = dr.dr_src_depth;
              dst_depth = dr.dr_dst_depth }
            :: acc
          end)
        e.deps [] )
  in
  if Obs.Registry.enabled () then begin
    Obs.Metrics.add obs_events !events;
    Obs.Metrics.add obs_blocks_translated e.n_translated;
    Obs.Metrics.add obs_static_reg_edges e.n_static_edges;
    Obs.Metrics.set_max obs_peak_shadow (Shadow.n_shadowed_words e.shadow);
    Obs.Metrics.add obs_pruned_accesses !n_pruned;
    Obs.Metrics.add obs_dep_edges !total_dep_edges;
    Obs.Metrics.add obs_scev_pruned !pruned;
    Obs.Metrics.add obs_approx_stmt
      (Array.fold_left
         (fun n r -> if Fold.Collector.spilled r.collector then n + 1 else n)
         0
         (Array.sub e.stmt_arr 0 e.n_stmts));
    Obs.Metrics.add obs_approx_dep !approx_dep;
    Obs.Metrics.add obs_scev_predicted
      (Array.fold_left (fun n r -> if r.r_scev then n + 1 else n) 0
         (Array.sub e.stmt_arr 0 e.n_stmts))
  end;
  { stmts = List.sort (fun a b -> compare a.sk b.sk) (Array.to_list stmt_infos);
    deps = List.sort (fun a b -> compare a.dk b.dk) dep_infos;
    pruned_dep_edges = !pruned;
    total_dep_edges = !total_dep_edges;
    statically_pruned = !n_pruned;
    witnesses = witness_outcomes e;
    stree = e.e_stree;
    run_stats;
    structure }

(* The one Instrumentation-II driver: [feed] delivers one execution's
   events and returns its interpreter stats, which a trace file only
   knows once its trailer has been read.

   Without a [structure] from Instrumentation I, the pass speculates
   the static one ([Cfg_builder.speculate]), which calls [feed] once
   more when the run refutes it.  Under SCEV pruning the statements
   predicted SCEV collect no dependences; when the fold refutes a
   prediction, [feed] is called again without prediction.  So [feed]
   runs at most three times, and the result is always the one the
   observed structure gives. *)
let drive ?(config = default_config) ?static_prune ?structure ~feed prog =
  let rec go ?structure ~predict () =
    let (e, run_stats), observed, reran =
      Cfg.Cfg_builder.speculate ?structure prog (fun structure tee ->
          let scev =
            if predict && config.scev_prune then Scev_pred.compute prog structure
            else Scev_pred.none
          in
          let e = make_engine ~config ?static_prune ~scev prog ~structure in
          start e;
          let run_stats = feed (tee (callbacks e)) in
          finish e;
          (e, run_stats))
    in
    if reran then Obs.Metrics.add obs_structure_reruns 1;
    check_witnesses e;
    match finalize e ~run_stats ~structure:observed with
    | r -> r
    | exception Scev_refuted ->
        Obs.Metrics.add obs_scev_reruns 1;
        go ~structure:observed ~predict:false ()
  in
  (* both counters are recorded even when no rerun happens *)
  Obs.Metrics.add obs_structure_reruns 0;
  if config.scev_prune then Obs.Metrics.add obs_scev_reruns 0;
  go ?structure ~predict:true ()

let profile ?config ?max_steps ?args ?static_prune ?structure prog =
  Obs.Span.with_ ~cat:"ddg" "ddg.profile" @@ fun () ->
  drive ?config ?static_prune ?structure prog ~feed:(fun callbacks ->
      Vm.Interp.run ?max_steps ?args ~callbacks prog)

let profile_replay ?config ?static_prune ?structure ~feed prog =
  Obs.Span.with_ ~cat:"ddg" "ddg.profile_replay" @@ fun () ->
  drive ?config ?static_prune ?structure ~feed prog

(* The invariant behind [~static_prune]: modulo the schedule tree (a
   shared mutable structure, compared by its own consumers), a
   pruned-and-injected profile is bit-identical to the unpruned one. *)
let equal_result (a : result) (b : result) =
  a.stmts = b.stmts && a.deps = b.deps
  && a.pruned_dep_edges = b.pruned_dep_edges
  && a.total_dep_edges = b.total_dep_edges

let stmt_domain (s : stmt_info) =
  Minisl.Pset.of_polyhedra s.depth
    (List.map (fun (p : Fold.piece) -> p.Fold.dom) s.s_pieces)

let dep_map (d : dep_info) =
  let pieces =
    List.filter_map
      (fun (p : Fold.piece) ->
        match Fold.piece_label_fn p with
        | Some out -> Some { Minisl.Pmap.dom = p.Fold.dom; out }
        | None -> None)
      d.d_pieces
  in
  if List.length pieces = List.length d.d_pieces then
    Some (Minisl.Pmap.make ~in_dim:d.dst_depth ~out_dim:d.src_depth pieces)
  else None
