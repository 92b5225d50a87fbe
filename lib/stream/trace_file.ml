(* Whole-trace recording on top of the chunked codec. *)

type write_info = { wi_bytes : int }

let record_to_file ?chunk_bytes prog path =
  Obs.Span.with_ ~cat:"stream" "stream.record_to_file" @@ fun () ->
  let sink = Sink.create ?chunk_bytes path in
  let stats =
    match Vm.Interp.run ~callbacks:(Sink.callbacks sink) prog with
    | stats -> stats
    | exception e ->
        (* do not leave a truncated file behind on a trapped run *)
        Sink.close sink;
        (try Sys.remove path with Sys_error _ -> ());
        raise e
  in
  Sink.close ~stats sink;
  { wi_bytes = Sink.bytes_written sink }
