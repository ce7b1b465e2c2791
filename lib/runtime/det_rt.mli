(** The deterministic multithreading runtime.

    One configurable engine implements DThreads, DWC, Consequence-RR and
    Consequence-IC (see {!Config}); a {!Config.t} preset selects the
    design point.  The runtime executes an {!Api.t} program on the
    simulated machine:

    - every thread runs in an isolated {!Vmem.Workspace} over one shared
      versioned segment;
    - all synchronization operations follow the paper's algorithms
      (Figs 7–9): pause the logical clock, wait for the global token
      (GMIC or round-robin order), perform the operation, commit and
      update memory, release;
    - local work advances the thread's retired-instruction counter, whose
      published value lags actual progress until a simulated
      counter-overflow interrupt or an end-of-chunk counter read;
    - the optimizations of section 3 (adaptive coarsening, adaptive
      overflow, user-space reads, fast-forward, parallel barrier commit,
      thread-pool reuse) are applied according to the configuration.

    The returned {!Stats.Run_result.t} carries both performance metrics
    and the determinism witnesses. *)

val run_exec :
  Config.t ->
  ex:Sim.Exec.t ->
  start:(unit -> unit) ->
  ?costs:Cost_model.t ->
  ?seed:int ->
  ?nthreads:int ->
  ?observer:Rt_event.observer ->
  ?obs:Obs.Sink.t ->
  ?on_sync:(time:int -> tid:int -> string -> unit) ->
  Api.t ->
  Stats.Run_result.t
(** Run the program on an arbitrary execution substrate ({!Sim.Exec.t}).
    [start] drives the substrate's scheduler to quiescence once the main
    green thread is registered.  All deterministic state — thread ids,
    token grants, commits, the witnesses — is computed by the same code
    on every substrate; substrates differ only in time (simulated vs
    wall) and physical placement (fibers vs domains).  This is what
    [Runtime.Domains_rt] builds on; ordinary callers use {!run}. *)

val run :
  Config.t ->
  ?costs:Cost_model.t ->
  ?seed:int ->
  ?nthreads:int ->
  ?observer:Rt_event.observer ->
  ?obs:Obs.Sink.t ->
  ?on_sync:(time:int -> tid:int -> string -> unit) ->
  Api.t ->
  Stats.Run_result.t
(** [run cfg program] executes the program to completion.  [seed]
    (default 1) perturbs modelled real-time nondeterminism only —
    deterministic configurations produce the same witnesses for every
    seed.  [nthreads] overrides the program's default worker count.
    [observer] receives happens-before instrumentation events in global
    order (used by the Fig 16 LRC study).  [obs] (default
    {!Obs.Sink.null}) receives timing spans — token holds, determ /
    lock / barrier waits, chunks, commits, updates, fork / join — keyed
    to the simulated clock, plus the exhaustive {!Obs.Thread_state}
    interval stream the determinism profiler ([lib/prof]) aggregates:
    every instant of every thread's lifetime classified into one of the
    eleven states, tiling the lifetime exactly (the conservation
    invariant), with completed waits stamped with the waking thread's
    tid.  Instrumentation is determinism-neutral: an instrumented run
    produces the same witnesses {e and} the same [wall_ns] as a bare
    run (enforced by the neutrality tests).  [on_sync] (default none)
    is called with each synchronization event (time, tid, op label) in
    global order, after it has been folded into [sync_order_hash]; it
    is how {!Run.schedule} collects the schedule.

    @raise Sim.Engine.Deadlock if the program deadlocks.
    @raise Sim.Engine.Stuck if the program exceeds the event budget,
    e.g. ad-hoc synchronization with no [chunk_limit] configured
    (section 2.7). *)
