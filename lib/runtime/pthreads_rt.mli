(** The nondeterministic pthreads baseline.

    Threads share one flat memory image; loads and stores apply
    immediately at their simulated time, so data races resolve by
    arrival order — which depends on the jittered execution latencies
    and therefore on the seed.  Lock acquisition is first-come
    first-served on real arrival time.  This is the normalization
    baseline of every figure, and the foil for the determinism tests:
    its witnesses are {e expected} to vary across seeds for racy
    programs. *)

val run :
  ?costs:Cost_model.t ->
  ?seed:int ->
  ?nthreads:int ->
  ?observer:Rt_event.observer ->
  ?obs:Obs.Sink.t ->
  ?on_sync:(time:int -> tid:int -> string -> unit) ->
  Api.t ->
  Stats.Run_result.t
(** [obs] (default {!Obs.Sink.null}) receives lock / barrier / join wait
    spans and the {!Obs.Thread_state} interval stream (a strict subset
    of the deterministic runtimes' states: run, runtime bookkeeping,
    lock / barrier waits, fork — no token, chunks or commits).

    [observer] receives happens-before events in simulated wall-clock
    order: [Release]/[Acquire] edges for every sync operation, and
    word-granularity [Conflict] events whenever a write overwrites a
    word last written by another thread (the [version]/[loser_version]
    fields carry the two threads' release-epochs).  Attaching an
    observer allocates shadow state but charges no simulated cost: the
    run's timing and results are unchanged.

    [on_sync] receives each synchronization event as in {!Det_rt.run},
    in simulated wall-clock order. *)

val name : string
(** ["pthreads"]. *)
