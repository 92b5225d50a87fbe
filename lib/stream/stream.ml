(** Out-of-core binary trace codec and trace-file dependence
    profiling, kept only for the pipeline benchmark's [trace_replay]
    workload: every other profile instruments a live run.

    Wire format (version 1): a [PLYPROF1] magic + version byte header
    followed by self-contained chunks, each [kind | varint payload
    length | CRC-32 | payload].  Event payloads delta-encode program
    counters and addresses with zigzag varints; a trailer chunk carries
    the run's interpreter stats.  {!Sink}/{!Source} write and read
    traces chunk-at-a-time in bounded memory; {!Trace_file} records a
    run straight to a file; {!Par_profile} replays the dependence
    profiler sequentially from a trace file. *)

exception Error = Error.Error
(** Raised on malformed input: bad magic/version, truncation, CRC
    mismatch, varint overflow.  The payload is a diagnostic naming the
    file and defect. *)

module Crc32 = Crc32
module Varint = Varint
module Codec = Codec
module Sink = Sink
module Source = Source
module Trace_file = Trace_file
module Par_profile = Par_profile
