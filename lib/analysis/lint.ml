type entry = {
  e_name : string;
  e_diags : Diag.t list;
  e_accesses : int;
  e_affine : int;
  e_ranged : int;
  e_xcheck : Crosscheck.report option;
}

(* constant value of an operand at the end of [b], if decidable from the
   block alone: an immediate, or a register whose last in-block
   definition is a constant *)
let const_at_term (b : Vm.Prog.block) (o : Vm.Isa.operand) =
  match o with
  | Vm.Isa.Imm c -> Some c
  | Vm.Isa.Reg r ->
      let n = Array.length b.instrs in
      let rec scan i =
        if i < 0 then None
        else
          match b.instrs.(i) with
          | Vm.Isa.Const (d, c) when d = r -> Some c
          | Vm.Isa.Mov (d, Vm.Isa.Imm c) when d = r -> Some c
          | Vm.Isa.Mov (d, _)
          | Vm.Isa.Const (d, _)
          | Vm.Isa.Fconst (d, _)
          | Vm.Isa.Bin (_, d, _, _)
          | Vm.Isa.Fbin (_, d, _, _)
          | Vm.Isa.Cmp (_, d, _, _)
          | Vm.Isa.Fcmp (_, d, _, _)
          | Vm.Isa.Load (d, _)
          | Vm.Isa.Itof (d, _)
          | Vm.Isa.Ftoi (d, _)
            when d = r ->
              None
          | _ -> scan (i - 1)
      in
      scan (n - 1)

(* W-deadcode: blocks reachable in the plain static CFG that become
   unreachable once constant conditional branches follow only their
   taken edge.  Disjoint from the verifier's [W-unreachable] (plain
   unreachability), which already covers blocks no path reaches. *)
let deadcode (prog : Vm.Prog.t) =
  let diags = ref [] in
  Array.iter
    (fun (f : Vm.Prog.func) ->
      let n = Array.length f.blocks in
      if n > 0 then begin
        let plain = Verify.reachable_blocks f in
        let feasible = Array.make n false in
        let rec visit bid =
          if bid >= 0 && bid < n && not feasible.(bid) then begin
            feasible.(bid) <- true;
            let b = f.blocks.(bid) in
            let succs =
              match b.term with
              | Vm.Isa.Br (cond, t, e) -> (
                  match const_at_term b cond with
                  | Some c -> [ (if c <> 0 then t else e) ]
                  | None -> [ t; e ])
              | t -> Vm.Isa.term_succs t
            in
            List.iter visit succs
          end
        in
        visit 0;
        Array.iteri
          (fun bid (b : Vm.Prog.block) ->
            if plain.(bid) && not feasible.(bid) then
              let sid =
                if Array.length b.instrs > 0 then
                  Some (Vm.Isa.Sid.make ~fid:f.fid ~bid ~idx:0)
                else None
              in
              diags :=
                Diag.warning ?sid ~code:"W-deadcode" ~fid:f.fid
                  (Printf.sprintf
                     "block b%d is dead code: every path to it takes the \
                      other side of a constant conditional branch"
                     bid)
                :: !diags)
          f.blocks
      end)
    prog.funcs;
  List.rev !diags

(* W-redundant-load: within a block, the same address operand loaded
   again with no intervening store (any store may alias) and the
   address register not redefined — the second load can reuse the first
   one's value *)
let redundant_load (prog : Vm.Prog.t) =
  let diags = ref [] in
  Array.iter
    (fun (f : Vm.Prog.func) ->
      Array.iter
        (fun (b : Vm.Prog.block) ->
          let avail : (Vm.Isa.operand, Vm.Isa.Sid.t) Hashtbl.t =
            Hashtbl.create 8
          in
          let kill_reg r =
            if Hashtbl.mem avail (Vm.Isa.Reg r) then
              Hashtbl.remove avail (Vm.Isa.Reg r)
          in
          Array.iteri
            (fun idx i ->
              let sid = Vm.Isa.Sid.make ~fid:f.fid ~bid:b.bid ~idx in
              match i with
              | Vm.Isa.Load (dst, a) ->
                  (match Hashtbl.find_opt avail a with
                  | Some first ->
                      diags :=
                        Diag.warning ~sid ~code:"W-redundant-load"
                          ~fid:f.fid
                          (Format.asprintf
                             "address already loaded at %a with no \
                              intervening store; reuse that value"
                             Vm.Isa.Sid.pp first)
                        :: !diags
                  | None -> Hashtbl.replace avail a sid);
                  kill_reg dst
              | Vm.Isa.Store (_, _) -> Hashtbl.reset avail
              | Vm.Isa.Const (d, _)
              | Vm.Isa.Fconst (d, _)
              | Vm.Isa.Mov (d, _)
              | Vm.Isa.Bin (_, d, _, _)
              | Vm.Isa.Fbin (_, d, _, _)
              | Vm.Isa.Cmp (_, d, _, _)
              | Vm.Isa.Fcmp (_, d, _, _)
              | Vm.Isa.Itof (d, _)
              | Vm.Isa.Ftoi (d, _) ->
                  kill_reg d)
            b.instrs)
        f.blocks)
    prog.funcs;
  List.rev !diags

(* W-almost-affine: a memory region that just misses the static
   dependence engine's prunable set — every unresolved access that may
   touch it (per points-to) is blocked for one and the same reason.
   Fixing that single class of blocker would make the whole region
   statically prunable.  Opt-in (the CLI lint command): the static
   engine run is not free, and the warning is advisory, so it is not
   part of {!static_entry} (whose warnings the sweep test pins at 0). *)
let almost_affine (prog : Vm.Prog.t) =
  let sd = Statdep.analyse prog in
  let unres = Hashtbl.create 16 in
  List.iter
    (fun (sid, _store, reason) -> Hashtbl.replace unres sid reason)
    sd.Statdep.unresolved;
  let nreg = Array.length sd.Statdep.prunable in
  let blockers = Array.make nreg [] in
  List.iter
    (fun (sid, _store, mask) ->
      match Hashtbl.find_opt unres sid with
      | Some reason ->
          for r = 1 to nreg - 1 do
            if mask land (1 lsl r) <> 0 then
              blockers.(r) <- (sid, reason) :: blockers.(r)
          done
      | None -> ())
    (Points_to.accesses sd.Statdep.pta);
  let diags = ref [] in
  Array.iteri
    (fun r bs ->
      if r > 0 && (not sd.Statdep.prunable.(r)) && bs <> [] then begin
        match List.sort_uniq compare (List.map snd bs) with
        | [ reason ] ->
            let sids = List.sort_uniq compare (List.map fst bs) in
            let sid = List.hd sids in
            diags :=
              Diag.warning ~sid ~code:"W-almost-affine"
                ~fid:(Vm.Isa.Sid.fid sid)
                (Printf.sprintf
                   "region %s is almost statically prunable: %d blocking \
                    access%s, all for the same reason (%s)"
                   (Points_to.region_name sd.Statdep.pta r)
                   (List.length sids)
                   (if List.length sids = 1 then "" else "es")
                   (Statdep.reason_code reason))
              :: !diags
        | _ -> ()
      end)
    blockers;
  List.sort Diag.compare !diags

let with_almost_affine e prog =
  { e with e_diags = List.sort Diag.compare (e.e_diags @ almost_affine prog) }

(* Parallelism advisories from the certifier (opt-in, like
   {!almost_affine}: runs the static dependence engine).  One warning
   per chain dimension that is either provably racy ([W-race], with a
   concrete witness pair) or certified only thanks to a discharge the
   programmer must honour when parallelizing by hand ([W-privatizable],
   [W-reduction]). *)
let parallelism (prog : Vm.Prog.t) =
  let pc = Parcheck.analyse prog in
  let diags =
    List.concat_map
      (fun (d : Parcheck.dim_report) ->
        let where =
          match d.Parcheck.dr_loc with
          | Some l -> Printf.sprintf " (%s:%d)" l.Vm.Prog.file l.Vm.Prog.line
          | None -> ""
        in
        let loop = Printf.sprintf "loop f%d.b%d%s" d.Parcheck.dr_fid d.Parcheck.dr_header where in
        match d.Parcheck.dr_verdict with
        | Parcheck.Race ws ->
            let w = List.hd ws in
            [ Diag.warning ~sid:w.Parcheck.w_src ~code:"W-race"
                ~fid:d.Parcheck.dr_fid
                (Printf.sprintf
                   "%s is not parallel: %d loop-carried conflict pair%s, \
                    e.g. %s between %s and %s"
                   loop (List.length ws)
                   (if List.length ws = 1 then "" else "s")
                   (if w.Parcheck.w_ww then "W/W" else "R/W")
                   (Vm.Isa.Sid.to_string w.Parcheck.w_src)
                   (Vm.Isa.Sid.to_string w.Parcheck.w_dst)) ]
        | Parcheck.Certified c ->
            (if c.Parcheck.ct_private = [] then []
             else
               [ Diag.warning ~code:"W-privatizable" ~fid:d.Parcheck.dr_fid
                   (Printf.sprintf
                      "%s is parallel only with %d region%s privatized \
                       per-thread"
                      loop
                      (List.length c.Parcheck.ct_private)
                      (if List.length c.Parcheck.ct_private = 1 then ""
                       else "s")) ])
            @
            if c.Parcheck.ct_reductions = [] then []
            else
              [ Diag.warning
                  ~sid:(List.hd c.Parcheck.ct_reductions)
                  ~code:"W-reduction" ~fid:d.Parcheck.dr_fid
                  (Printf.sprintf
                     "%s is parallel only as a reduction (%d \
                      read-modify-write access%s must combine atomically or \
                      per-thread)"
                     loop
                     (List.length c.Parcheck.ct_reductions)
                     (if List.length c.Parcheck.ct_reductions = 1 then ""
                      else "es")) ]
        | Parcheck.Unknown _ -> [])
      pc.Parcheck.pc_dims
  in
  List.sort Diag.compare diags

let with_parallelism e prog =
  { e with e_diags = List.sort Diag.compare (e.e_diags @ parallelism prog) }

let static_entry name (prog : Vm.Prog.t) =
  let diags =
    List.sort Diag.compare
      (Verify.verify prog @ Initdef.check prog @ Liveness.check prog
      @ deadcode prog @ redundant_load prog)
  in
  let frs = Affine_class.analyse_prog prog in
  let accesses = ref 0 and affine = ref 0 and ranged = ref 0 in
  Array.iter
    (fun fr ->
      List.iter
        (fun (a : Affine_class.access) ->
          incr accesses;
          (match Affine_class.classify a with
          | `Affine _ -> incr affine
          | `Nonaffine _ -> ());
          if a.Affine_class.acc_range <> None then incr ranged)
        fr.Affine_class.fr_accesses)
    frs;
  { e_name = name;
    e_diags = diags;
    e_accesses = !accesses;
    e_affine = !affine;
    e_ranged = !ranged;
    e_xcheck = None }

let analyse ?(name = "<prog>") prog =
  Obs.Span.with_ ~cat:"analysis" "analysis.lint" @@ fun () ->
  static_entry name prog

let crosschecked e prog profile =
  { e with e_xcheck = Some (Crosscheck.check prog profile) }

let analyse_profiled ?(name = "<prog>") ?max_steps ?args prog =
  let e = static_entry name prog in
  (* only execute programs the verifier accepts *)
  if List.exists Diag.is_error e.e_diags then e
  else
    let profile = Ddg.Depprof.profile ?max_steps ?args prog in
    crosschecked e prog profile

let of_hir ?name ?(profile = true) ?max_steps ?args hir =
  let prog = Vm.Hir.lower hir in
  if profile then analyse_profiled ?name ?max_steps ?args prog
  else analyse ?name prog

let errors e =
  List.filter Diag.is_error e.e_diags
  @ (match e.e_xcheck with Some r -> r.Crosscheck.violations | None -> [])

let passed e = errors e = []

let header =
  [ "Workload"; "E"; "W"; "I"; "Acc"; "Aff"; "Rng"; "Facts"; "Chk"; "Viol";
    "Lint" ]

let to_row e =
  let c sev = string_of_int (Diag.count sev e.e_diags) in
  [ e.e_name;
    c Diag.Error;
    c Diag.Warning;
    c Diag.Info;
    string_of_int e.e_accesses;
    string_of_int e.e_affine;
    string_of_int e.e_ranged ]
  @ (match e.e_xcheck with
    | Some r ->
        [ string_of_int r.Crosscheck.facts;
          string_of_int r.Crosscheck.checked_edges;
          string_of_int (List.length r.Crosscheck.violations) ]
    | None -> [ "-"; "-"; "-" ])
  @ [ (if passed e then "ok" else "FAIL") ]

let table entries = Report.Texttable.render ~header (List.map to_row entries)

let pp_entry ?prog () fmt e =
  Format.fprintf fmt "%s: %d accesses (%d affine, %d ranged), lint %s"
    e.e_name e.e_accesses e.e_affine e.e_ranged
    (if passed e then "ok" else "FAILED");
  (match e.e_xcheck with
  | Some r -> Format.fprintf fmt "@\n  cross-check: %a" Crosscheck.pp_report r
  | None -> ());
  List.iter
    (fun d -> Format.fprintf fmt "@\n  %a" (Diag.pp ?prog ()) d)
    e.e_diags

let entry_json e =
  let open Obs.Json_emit in
  let c sev = Int (Diag.count sev e.e_diags) in
  let severity = function
    | Diag.Error -> "error"
    | Diag.Warning -> "warning"
    | Diag.Info -> "info"
  in
  Obj
    [ ("name", Str e.e_name);
      ("errors", c Diag.Error);
      ("warnings", c Diag.Warning);
      ("infos", c Diag.Info);
      ("accesses", Int e.e_accesses);
      ("affine", Int e.e_affine);
      ("ranged", Int e.e_ranged);
      ("passed", Bool (passed e));
      ( "crosscheck",
        match e.e_xcheck with
        | None -> Null
        | Some r ->
            Obj
              [ ("facts", Int r.Crosscheck.facts);
                ("checked_edges", Int r.Crosscheck.checked_edges);
                ("skipped_edges", Int r.Crosscheck.skipped_edges);
                ("skip_norange", Int r.Crosscheck.skip_norange);
                ("skip_crossfn", Int r.Crosscheck.skip_crossfn);
                ("poly_pairs", Int r.Crosscheck.poly_pairs);
                ("poly_checked", Int r.Crosscheck.poly_checked);
                ("sim_must", Int r.Crosscheck.sim_must);
                ("sim_may", Int r.Crosscheck.sim_may);
                ("sim_skipped", Bool r.Crosscheck.sim_skipped);
                ("violations", Int (List.length r.Crosscheck.violations)) ] );
      ( "diags",
        List
          (List.map
             (fun (d : Diag.t) ->
               Obj
                 [ ("severity", Str (severity d.Diag.severity));
                   ("code", Str d.Diag.code);
                   ("fid", Int d.Diag.fid);
                   ("message", Str d.Diag.message) ])
             e.e_diags) ) ]
