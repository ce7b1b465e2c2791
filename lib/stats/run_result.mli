(** The complete record of one simulated execution.

    Contains the performance metrics that drive the figures (wall time,
    time breakdown, page traffic, peak memory) and the determinism
    witnesses that the tests compare across perturbed runs:

    - [sync_order_hash]: the order and identity of all synchronization
      events (untimed).  Deterministic runtimes must produce the same
      value for every seed.
    - [mem_hash]: digest of the final committed memory image.
    - [output_hash]: digest of the application's logged output events.

    Wall-clock quantities and [timed_hash]es legitimately differ across
    seeds even under deterministic runtimes — determinism fixes {e what}
    happens, not {e how fast} (paper section 3). *)

type thread_stat = {
  tid : int;
  thread_name : string;
  breakdown : Breakdown.t;
  instructions : int;  (** retired user instructions (logical clock at exit) *)
}

type t = {
  program : string;
  runtime : string;
  nthreads : int;
  seed : int;
  wall_ns : int;
  per_thread : thread_stat list;
  sync_ops : int;
  token_acquisitions : int;
  pages_propagated : int;
  pages_committed : int;
  pages_merged : int;
  bytes_merged : int;
  write_faults : int;
  commits : int;
  coarsened_chunks : int;
  overflow_interrupts : int;
  peak_mem_pages : int;
  versions : int;
  mem_hash : string;
  sync_order_hash : string;
  output_hash : string;
  trace_events : int;
      (** number of synchronization events; [Runtime.Run.schedule] returns
          the events themselves *)
  metrics : Obs.Metrics.snapshot;
      (** per-run counters and latency histograms (token hold, commit,
          determ wait, pages/commit, chunk length, ...); derived purely
          from simulated quantities, hence deterministic *)
}

val aggregate_breakdown : t -> Breakdown.t
(** Sum of all per-thread breakdowns. *)

val deterministic_witness : t -> string
(** Concatenation of the three content witnesses; two runs of a
    deterministic runtime must agree on this for any seeds. *)

val pp_summary : Format.formatter -> t -> unit
(** Headline metrics plus p50/p95/p99 lines for the key latency
    histograms present in [metrics]. *)

val to_json : t -> Obs.Json.t
(** Machine-readable dump of every field. *)
