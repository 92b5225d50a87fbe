type t = { s_name : string; s_file : string; s_version : int }

let stream = 2
let staticdep = 1
let obs = 1
let autotune = 1
let overhead = 2
let parcheck = 1
let perfhist = 1

let all =
  [ { s_name = "autotune"; s_file = "BENCH_autotune.json"; s_version = autotune };
    { s_name = "obs"; s_file = "BENCH_obs.json"; s_version = obs };
    { s_name = "overhead"; s_file = "(stdout: polyprof overhead --json)";
      s_version = overhead };
    { s_name = "parcheck"; s_file = "BENCH_parcheck.json";
      s_version = parcheck };
    { s_name = "perfhist"; s_file = "bench/history/*.jsonl";
      s_version = perfhist };
    { s_name = "staticdep"; s_file = "BENCH_staticdep.json";
      s_version = staticdep };
    { s_name = "stream"; s_file = "BENCH_stream.json"; s_version = stream } ]
