let env_var = "POLYPROF_TELEMETRY"

let env_enabled =
  match Sys.getenv_opt env_var with
  | None -> false
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "" | "0" | "false" | "no" | "off" -> false
      | _ -> true)

let state = ref env_enabled
let enabled () = !state
let enable () = state := true
let disable () = state := false

let with_enabled f =
  let before = !state in
  state := true;
  Fun.protect ~finally:(fun () -> state := before) f
