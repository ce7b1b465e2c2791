(** The pthreads-like programming interface that workloads are written
    against.

    A {!program} is portable across every runtime in this repository —
    the nondeterministic [pthreads] baseline, [dthreads], [dwc], and the
    two Consequence variants — exactly as the paper's benchmarks are one
    binary linked against different threading libraries.  The runtime
    supplies a record of operations ({!ops}) to each thread body; all
    shared-memory access and synchronization must go through it.

    Memory is a single flat byte-addressed heap (the program declares its
    size in pages).  Synchronization objects are small integers, created
    on first use; barriers must be sized with [barrier_init] before
    waiting on them. *)

type mutex = int
type cond = int
type barrier = int
type thread = int

type ops = {
  tid : int;  (** this thread's id (main = 0) *)
  self_name : string;
  work : int -> unit;
      (** retire [n] user instructions of pure local computation *)
  read : addr:int -> len:int -> Bytes.t;
  read_into : addr:int -> Bytes.t -> unit;
      (** [read_into ~addr buf] fills all of [buf] with the
          [Bytes.length buf] bytes at [addr]: the same view as
          {!field-read} (under the versioned runtimes that includes the
          thread's own uncommitted writes), with no allocation.  It is
          charged exactly like [read ~addr ~len:(Bytes.length buf)] —
          same retired instructions, same runtime-lock release on real
          backends, same range check and exception — so swapping one
          for the other never moves a simulated result.  Lets a loop
          that rereads fixed-size regions reuse one scratch buffer. *)
  write : addr:int -> Bytes.t -> unit;
  read_int : addr:int -> int;
  write_int : addr:int -> int -> unit;
  fetch_add : addr:int -> int -> int;
      (** read-modify-write of an 8-byte integer with the runtime's
          {e native} semantics: truly atomic under pthreads, but a plain
          store-buffered RMW under the deterministic runtimes — which
          (deterministically) loses updates, reproducing the atomic-
          operations hazard of paper section 2.7.  Returns the value read. *)
  atomic_fetch_add : addr:int -> int -> int;
      (** the paper's proposed fix (section 2.7): acquire the global
          token, perform the RMW against the latest committed state, and
          commit — atomic and deterministic on every runtime. *)
  lock : mutex -> unit;
  unlock : mutex -> unit;
  cond_wait : cond -> mutex -> unit;
      (** caller must hold [mutex]; atomically releases it and blocks *)
  cond_signal : cond -> unit;
  cond_broadcast : cond -> unit;
  barrier_init : barrier -> int -> unit;
      (** set the participant count; must precede any wait *)
  barrier_wait : barrier -> unit;
  spawn : ?name:string -> (ops -> unit) -> thread;
  join : thread -> unit;
  log_output : string -> unit;
      (** emit an application-level output event; the stream of these is
          part of the determinism witness *)
  yield : unit -> unit;
      (** hint only; lets the nondeterministic baseline reschedule *)
  base_version : unit -> int;
      (** the committed memory version this thread's view is based on
          (the workspace base under the versioned runtimes; always 0
          under pthreads, whose flat heap has no version history).  The
          value is runtime- and schedule-dependent: use it only as a pin
          for {!field-snapshot_read}, never in program outputs. *)
  snapshot_read : version:int -> addr:int -> len:int -> Bytes.t;
      (** read the committed image pinned at [version] (a value obtained
          from {!field-base_version}): a consistent point-in-time view
          served from the segment's version histories with no fault, no
          copy-on-write, and no validation — the substrate for
          snapshot (read-only) transactions.  Under pthreads this reads
          current memory, which coincides whenever the program
          guarantees no concurrent writers to the range (as the kv
          round protocol does). *)
  now_ns : unit -> int;
      (** current simulated (DES) or real (domains) time.  Varies across
          runtimes and seeds: feed it only to metrics (latency
          histograms), never into control flow or outputs. *)
  metric_incr : string -> int -> unit;
      (** bump a named counter in the run's {!Obs.Metrics} registry *)
  metric_observe : string -> int -> unit;
      (** record a named histogram observation (e.g. a request latency) *)
  txn_validate : keys:int -> unit;
      (** charge the cost-model price of validating one software
          transaction whose intent lists total [keys] entries; accounted
          as the [Txn_validate] thread state *)
  txn_abort : seq:int -> retries:int -> unit;
      (** charge one transaction abort (plus [retries] deterministic
          backoff units) and emit an {!Rt_event.Txn_abort} event carrying
          [seq], so abort decisions are part of the recorded, replayable
          event stream; accounted as the [Txn_abort] thread state *)
}

type t = {
  name : string;
  description : string;
  default_threads : int;
  heap_pages : int;
  page_size : int;
  max_threads : int;
      (** most worker threads the program's memory layout has room for;
          [max_int] when it has no fixed limit *)
  main : nthreads:int -> ops -> unit;
      (** body of the main thread; receives the requested worker count
          and typically spawns [nthreads] workers and joins them *)
}

val make :
  name:string ->
  ?description:string ->
  ?default_threads:int ->
  ?heap_pages:int ->
  ?page_size:int ->
  ?max_threads:int ->
  (nthreads:int -> ops -> unit) ->
  t
(** Defaults: 8 threads, 256 pages of 256 bytes, no thread limit. *)

val check_threads : t -> int -> (unit, string) result
(** [Error msg] when [n] workers are fewer than 1 or exceed
    [max_threads]; [msg] names the program and the limit.  Runners check
    this before a run starts, so a program never runs with another
    thread count than the one asked for. *)
