module L = Cfg.Loopnest
module LE = Loop_events

type claim = {
  cl_fid : int;
  cl_header : int;
  cl_label : string;
  cl_certified : bool;
  cl_private : (int * int) list;
  cl_reductions : Vm.Isa.Sid.t list;
}

type race = {
  rc_addr : int;
  rc_ww : bool;
  rc_src : Vm.Isa.Sid.t;
  rc_src_iter : int;
  rc_src_iiv : int array;
  rc_dst : Vm.Isa.Sid.t;
  rc_dst_iter : int;
  rc_dst_iiv : int array;
}

type claim_stats = {
  cs_claim : claim;
  cs_instances : int;
  cs_iterations : int;
  cs_covered : int;
  cs_races : race list;
  cs_n_races : int;
}

type report = { sr_claims : claim_stats list; sr_accesses : int }

(* One live activation of a claimed loop: the epoch serial tags shadow
   entries so state left over from an earlier activation (or from a
   sibling call) can never produce a cross-instance false positive. *)
type inst = { serial : int; mutable iter : int }

(* Shadow cell per (claim, address): the last write of the current
   epoch plus up to two reads from distinct iterations — two suffice,
   because any write conflicts with a read from *some* other iteration
   iff it conflicts with one of two distinct recorded ones. *)
type cell = {
  mutable cw_ser : int;
  mutable cw_iter : int;
  mutable cw_sid : int;
  mutable cw_iiv : int array;
  mutable r1_ser : int;
  mutable r1_iter : int;
  mutable r1_sid : int;
  mutable r1_iiv : int array;
  mutable r2_ser : int;
  mutable r2_iter : int;
  mutable r2_sid : int;
  mutable r2_iiv : int array;
}

let fresh_cell () =
  {
    cw_ser = -1;
    cw_iter = 0;
    cw_sid = 0;
    cw_iiv = [||];
    r1_ser = -1;
    r1_iter = 0;
    r1_sid = 0;
    r1_iiv = [||];
    r2_ser = -1;
    r2_iter = 0;
    r2_sid = 0;
    r2_iiv = [||];
  }

type cstate = {
  cst_claim : claim;
  red : (Vm.Isa.Sid.t, unit) Hashtbl.t;
  shadow : (int, cell) Hashtbl.t;
  mutable stack : inst list;  (* innermost activation first *)
  mutable instances : int;
  mutable iterations : int;
  mutable covered : int;
  mutable races : race list;  (* reversed *)
  mutable n_reported : int;
  mutable n_races : int;
}

let in_private st addr =
  List.exists
    (fun (lo, hi) -> addr >= lo && addr <= hi)
    st.cst_claim.cl_private

(* One pass under [structure]: all of its state is made here, so a
   rerun after a refuted speculation starts fresh. *)
let pass ?max_steps ~max_races ?args prog ~claims structure tee =
  let iiv = Iiv.create () in
  let serial = ref 0 in
  let states =
    List.map
      (fun cl ->
        let red = Hashtbl.create 8 in
        List.iter (fun s -> Hashtbl.replace red s ()) cl.cl_reductions;
        {
          cst_claim = cl;
          red;
          shadow = Hashtbl.create 1024;
          stack = [];
          instances = 0;
          iterations = 0;
          covered = 0;
          races = [];
          n_reported = 0;
          n_races = 0;
        })
      claims
  in
  let accesses = ref 0 in
  let matching l_fid (loop : L.loop) f =
    List.iter
      (fun st ->
        if st.cst_claim.cl_fid = l_fid && st.cst_claim.cl_header = loop.L.header
        then f st)
      states
  in
  let handle_levent ev =
    Iiv.update iiv ev;
    match ev with
    | LE.Enter (LE.Cfg_loop { l_fid; loop }, _, _) ->
        matching l_fid loop (fun st ->
            incr serial;
            st.stack <- { serial = !serial; iter = 0 } :: st.stack;
            st.instances <- st.instances + 1;
            st.iterations <- st.iterations + 1)
    | LE.Iterate (LE.Cfg_loop { l_fid; loop }, _, _) ->
        matching l_fid loop (fun st ->
            match st.stack with
            | top :: _ ->
                top.iter <- top.iter + 1;
                st.iterations <- st.iterations + 1
            | [] -> ())
    | LE.Exit (LE.Cfg_loop { l_fid; loop }, _, _) ->
        matching l_fid loop (fun st ->
            match st.stack with
            | _ :: rest -> st.stack <- rest
            | [] -> ())
    | _ -> ()
  in
  let record st ~ww ~addr ~src_iter ~src_sid ~src_iiv ~dst_iter ~dst_sid
      ~dst_iiv =
    let covered =
      in_private st addr
      || (Hashtbl.mem st.red src_sid && Hashtbl.mem st.red dst_sid)
    in
    if covered then st.covered <- st.covered + 1
    else begin
      st.n_races <- st.n_races + 1;
      if st.n_reported < max_races then begin
        st.n_reported <- st.n_reported + 1;
        st.races <-
          {
            rc_addr = addr;
            rc_ww = ww;
            rc_src = src_sid;
            rc_src_iter = src_iter;
            rc_src_iiv = src_iiv;
            rc_dst = dst_sid;
            rc_dst_iter = dst_iter;
            rc_dst_iiv = dst_iiv;
          }
          :: st.races
      end
    end
  in
  let access st ~write sid addr coords =
    match st.stack with
    | [] -> ()
    | top :: _ ->
        let cell =
          match Hashtbl.find_opt st.shadow addr with
          | Some c -> c
          | None ->
              let c = fresh_cell () in
              Hashtbl.add st.shadow addr c;
              c
        in
        let ser = top.serial and iter = top.iter in
        if write then begin
          if cell.cw_ser = ser && cell.cw_iter <> iter then
            record st ~ww:true ~addr ~src_iter:cell.cw_iter
              ~src_sid:cell.cw_sid ~src_iiv:cell.cw_iiv ~dst_iter:iter
              ~dst_sid:sid ~dst_iiv:coords;
          if cell.r1_ser = ser && cell.r1_iter <> iter then
            record st ~ww:false ~addr ~src_iter:cell.r1_iter
              ~src_sid:cell.r1_sid ~src_iiv:cell.r1_iiv ~dst_iter:iter
              ~dst_sid:sid ~dst_iiv:coords;
          if cell.r2_ser = ser && cell.r2_iter <> iter then
            record st ~ww:false ~addr ~src_iter:cell.r2_iter
              ~src_sid:cell.r2_sid ~src_iiv:cell.r2_iiv ~dst_iter:iter
              ~dst_sid:sid ~dst_iiv:coords;
          cell.cw_ser <- ser;
          cell.cw_iter <- iter;
          cell.cw_sid <- sid;
          cell.cw_iiv <- coords
        end
        else begin
          if cell.cw_ser = ser && cell.cw_iter <> iter then
            record st ~ww:false ~addr ~src_iter:cell.cw_iter
              ~src_sid:cell.cw_sid ~src_iiv:cell.cw_iiv ~dst_iter:iter
              ~dst_sid:sid ~dst_iiv:coords;
          if cell.r1_ser <> ser then begin
            cell.r1_ser <- ser;
            cell.r1_iter <- iter;
            cell.r1_sid <- sid;
            cell.r1_iiv <- coords;
            cell.r2_ser <- -1
          end
          else if cell.r1_iter <> iter && (cell.r2_ser <> ser || cell.r2_iter <> iter)
          then begin
            cell.r2_ser <- ser;
            cell.r2_iter <- iter;
            cell.r2_sid <- sid;
            cell.r2_iiv <- coords
          end
        end
  in
  let levents = LE.create structure ~main:prog.Vm.Prog.main in
  LE.start levents ~emit:handle_levent;
  let callbacks =
    {
      Vm.Interp.on_control =
        (fun c -> LE.feed levents ~emit:handle_levent c);
      on_exec =
        (fun (e : Vm.Event.exec) ->
          match (e.addr_read, e.addr_written) with
          | None, None -> ()
          | ar, aw ->
              (match ar with Some _ -> incr accesses | None -> ());
              (match aw with Some _ -> incr accesses | None -> ());
              if List.exists (fun st -> st.stack <> []) states then begin
                let coords = Iiv.coords iiv in
                (match ar with
                | Some a ->
                    List.iter
                      (fun st -> access st ~write:false e.sid a coords)
                      states
                | None -> ());
                match aw with
                | Some a ->
                    List.iter
                      (fun st -> access st ~write:true e.sid a coords)
                      states
                | None -> ()
              end);
    }
  in
  ignore (Vm.Interp.run ?max_steps ~callbacks:(tee callbacks) ?args prog);
  let stats =
    List.map
      (fun st ->
        {
          cs_claim = st.cst_claim;
          cs_instances = st.instances;
          cs_iterations = st.iterations;
          cs_covered = st.covered;
          cs_races = List.rev st.races;
          cs_n_races = st.n_races;
        })
      states
  in
  { sr_claims = stats; sr_accesses = !accesses }

let run ?max_steps ?(max_races = 5) ?args ?structure prog ~claims =
  let report, _, _ =
    Cfg.Cfg_builder.speculate ?structure prog
      (pass ?max_steps ~max_races ?args prog ~claims)
  in
  report

let races_on_certified r =
  List.fold_left
    (fun acc cs ->
      if cs.cs_claim.cl_certified then acc + cs.cs_n_races else acc)
    0 r.sr_claims

let ok r = races_on_certified r = 0

let pp_iiv fmt iv =
  Format.fprintf fmt "[%s]"
    (String.concat " " (Array.to_list (Array.map string_of_int iv)))

let pp_race fmt rc =
  Format.fprintf fmt "%s @%d: %a (iter %d, iiv %a) vs %a (iter %d, iiv %a)"
    (if rc.rc_ww then "W/W" else "R/W")
    rc.rc_addr Vm.Isa.Sid.pp rc.rc_src rc.rc_src_iter pp_iiv rc.rc_src_iiv
    Vm.Isa.Sid.pp rc.rc_dst rc.rc_dst_iter pp_iiv rc.rc_dst_iiv

let pp_report fmt r =
  Format.fprintf fmt "race sanitizer: %d claim(s), %d accesses checked@."
    (List.length r.sr_claims) r.sr_accesses;
  List.iter
    (fun cs ->
      Format.fprintf fmt "  %s%s: %d instance(s), %d iteration(s), %d race(s), %d covered@."
        cs.cs_claim.cl_label
        (if cs.cs_claim.cl_certified then " [certified]" else "")
        cs.cs_instances cs.cs_iterations cs.cs_n_races cs.cs_covered;
      List.iter (fun rc -> Format.fprintf fmt "    %a@." pp_race rc) cs.cs_races;
      if cs.cs_n_races > List.length cs.cs_races then
        Format.fprintf fmt "    ... %d more@."
          (cs.cs_n_races - List.length cs.cs_races))
    r.sr_claims
