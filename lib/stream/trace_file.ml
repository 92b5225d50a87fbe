(* Whole-trace recording on top of the chunked codec. *)

type write_info = {
  wi_events : int;
  wi_chunks : int;
  wi_bytes : int;
  wi_stats : Vm.Interp.stats;
  wi_seconds : float;
}

let record_to_file ?max_steps ?args ?chunk_bytes ?elide prog path =
  Obs.Span.with_ ~cat:"stream" "stream.record_to_file" @@ fun () ->
  let t0 = Obs.Clock.monotonic () in
  let sink = Sink.create ?chunk_bytes path in
  let callbacks =
    let cb = Sink.callbacks sink in
    match elide with
    | None -> cb
    | Some pruned ->
        (* drop the address fields of statically-resolved accesses: the
           codec encodes the absence in the flags byte and the
           static-prune replay reconstructs the addresses from the plan *)
        { cb with
          Vm.Interp.on_exec =
            (fun e ->
              if
                (e.Vm.Event.addr_read <> None
                || e.Vm.Event.addr_written <> None)
                && pruned e.Vm.Event.sid
              then
                cb.Vm.Interp.on_exec
                  { e with Vm.Event.addr_read = None; addr_written = None }
              else cb.Vm.Interp.on_exec e) }
  in
  let stats =
    match Vm.Interp.run ?max_steps ?args ~callbacks prog with
    | stats -> stats
    | exception e ->
        (* do not leave a truncated file behind on a trapped run *)
        Sink.close sink;
        (try Sys.remove path with Sys_error _ -> ());
        raise e
  in
  Sink.close ~stats sink;
  { wi_events = Sink.n_events sink;
    wi_chunks = Sink.n_chunks sink;
    wi_bytes = Sink.bytes_written sink;
    wi_stats = stats;
    wi_seconds = Obs.Clock.monotonic () -. t0 }
