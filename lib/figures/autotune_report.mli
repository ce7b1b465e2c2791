(** Auto-tuning report ([BENCH_autotune.json]): per-workload simulated
    wall time under the untuned default, the searched knob point and
    the best hand-tuned grid point, with the acceptance verdicts
    (searched within 5% of hand-best everywhere; strictly faster than
    the default on at least half the workloads; winners seed-stable and
    replay-checked) as PASS/FAIL notes. *)

val run :
  ?benchmarks:string list ->
  ?threads:int ->
  ?seed:int ->
  ?quick:bool ->
  unit ->
  Fig_output.t
(** Defaults: the full registry, 8 threads, seed 1, [quick] search
    (no exploration floor — bench-harness friendly; pass [~quick:false]
    for the full search). *)
