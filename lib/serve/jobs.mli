(** The daemon's executor: resolve a {!Proto.spec} to a workload
    ({!Workloads.Runner.find}, the [polyprof list] namespace), compute
    its content address, and run the requested pipeline stage to a
    deterministic JSON report plus a per-job Chrome-trace artifact.

    Reports carry no timestamps — two executions of the same spec on the
    same binary produce byte-identical report strings (the property the
    concurrent-submission test pins down).  The one exception is
    [Autotune], whose report embeds measured candidate times; its cached
    bytes are still stable because the cache stores a single execution. *)

val job_key : Proto.spec -> (string, string) result
(** Content address of the job: SHA-256 over the job kind, the sorted
    parameters and the canonical source of the resolved workload
    ({!Polyprof.Prog_hash.job_key}).  [Error] for an unknown benchmark. *)

val execute : Proto.spec -> Engine.exec_result
(** Run the job on the calling (worker) domain.  Raises on unknown
    benchmarks, malformed parameters, and executor failures — the engine
    converts the exception into the job's failure message. *)
