(* Output oracle: what a correct pipeline run of a program produces.

   Each program's expected entry holds a SHA-256 of a canonical text of
   its folded profile, its Table 5 row and its Polly reason string.
   Two further checks need no expected file: the statement execution
   counts must add up to the interpreter's dynamic instruction count,
   and a program with a paper row must reproduce the paper's Polly
   reasons. *)

module J = Obs.Json_emit
module D = Ddg.Depprof

type entry = { digest : string; row : string list; polly : string }

let label_kind = function D.Lvalue -> "value" | D.Laddr -> "addr" | D.Lnone -> "none"
let dep_kind = function D.Reg_dep -> "reg" | D.Mem_dep -> "mem" | D.Out_dep -> "out"

(* Every statement and dependence with its counts and every folded
   piece, in the result's own (sorted) order. *)
let canonical_text (r : D.result) =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  Format.pp_set_margin fmt 100_000;
  let pieces ps =
    List.iter (fun p -> Format.fprintf fmt "  %a@\n" (Fold.pp_piece ?names:None ?label_names:None) p) ps
  in
  List.iter
    (fun (s : D.stmt_info) ->
      Format.fprintf fmt "stmt %d %a count=%d label=%s scev=%b affine=%b depth=%d@\n"
        s.D.sk.D.s_ctx Vm.Isa.Sid.pp s.D.sk.D.s_sid s.D.s_count
        (label_kind s.D.label_kind) s.D.is_scev s.D.affine_exact s.D.depth;
      pieces s.D.s_pieces)
    r.D.stmts;
  List.iter
    (fun (d : D.dep_info) ->
      let k = d.D.dk in
      Format.fprintf fmt "dep %s %d %a -> %d %a count=%d depth=%d,%d@\n"
        (dep_kind k.D.kind) k.D.src_ctx Vm.Isa.Sid.pp k.D.src_sid k.D.dst_ctx
        Vm.Isa.Sid.pp k.D.dst_sid d.D.d_count d.D.src_depth d.D.dst_depth;
      pieces d.D.d_pieces)
    r.D.deps;
  Format.fprintf fmt "edges total=%d scev_pruned=%d@." r.D.total_dep_edges
    r.D.pruned_dep_edges;
  Buffer.contents buf

let digest r = Polyprof.Prog_hash.sha256_hex (canonical_text r)

let entry_of ~profile ~row ~polly =
  { digest = digest profile;
    row = Sched.Metrics.to_strings row;
    polly = Staticbase.Polly_lite.reasons_string polly }

(* ---- expected file ---- *)

let entry_json e =
  J.Obj
    [ ("digest", J.Str e.digest);
      ("row", J.List (List.map (fun s -> J.Str s) e.row));
      ("polly", J.Str e.polly) ]

let save path entries =
  J.write_file ~pretty:true path
    (J.Obj
       [ ("schema_version", J.Int 1);
         ("programs", J.Obj (List.map (fun (n, e) -> (n, entry_json e)) entries)) ])

let str = function J.Str s -> s | _ -> failwith "expected a string"

let load path =
  match J.parse_file path with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok doc -> (
      match J.member "programs" doc with
      | Some (J.Obj progs) ->
          List.map
            (fun (name, e) ->
              let field k =
                match J.member k e with
                | Some v -> v
                | None -> failwith (Printf.sprintf "%s: %s lacks %S" path name k)
              in
              let row = match field "row" with J.List l -> List.map str l | _ -> [] in
              (name, { digest = str (field "digest"); row; polly = str (field "polly") }))
            progs
      | _ -> failwith (path ^ ": no \"programs\" object"))

(* ---- checks ---- *)

(* All defects of one program run, empty when the output is correct. *)
let check ~expected ~(w : Workloads.Workload.t) ~(native : Vm.Interp.stats)
    ~(profile : D.result) (got : entry) =
  let name = w.Workloads.Workload.w_name in
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (match List.assoc_opt name expected with
  | None -> fail "%s: no expected entry" name
  | Some e ->
      if e.digest <> got.digest then
        fail "%s: profile digest %s, expected %s" name got.digest e.digest;
      if e.row <> got.row then
        fail "%s: Table 5 row [%s], expected [%s]" name
          (String.concat "|" got.row) (String.concat "|" e.row);
      if e.polly <> got.polly then
        fail "%s: Polly reasons %s, expected %s" name got.polly e.polly);
  let counted = List.fold_left (fun a (s : D.stmt_info) -> a + s.D.s_count) 0 profile.D.stmts in
  if counted <> native.Vm.Interp.dyn_instrs then
    fail "%s: statement counts sum to %d, the interpreter ran %d instructions"
      name counted native.Vm.Interp.dyn_instrs;
  (match w.Workloads.Workload.paper with
  | Some p when p.Workloads.Workload.p_polly <> got.polly ->
      fail "%s: Polly reasons %s, the paper reports %s" name got.polly
        p.Workloads.Workload.p_polly
  | _ -> ());
  List.rev !errs
