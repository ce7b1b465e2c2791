(** Transactional KV service report ([BENCH_kv.json]): throughput and
    p50/p99/p999 request latency for the six server-shaped traffic mixes
    of {!Kv.Service}, a 4/8/16/32-thread sweep per shape, plus the
    cross-seed determinism claims (witnesses and re-execution counts
    byte-identical on deterministic runtimes). *)

val run :
  ?runtime:Runtime.Run.runtime -> ?threads:int -> ?seeds:int list -> unit -> Fig_output.t
