(** Latency model for the simulated machine.

    All values are simulated nanoseconds (or ns per unit).  They are the
    only place where "hardware" enters the reproduction; every algorithm
    above consumes logical quantities.  Values are calibrated to the
    relative magnitudes reported for Conversion [23], DThreads [21] and
    Kendo [25]: a COW page fault costs microseconds, token bookkeeping
    tens of nanoseconds, a user-space counter read is ~20x cheaper than a
    syscall read, and mprotect-based isolation (DThreads) pays a
    multiplier over Conversion's kernel support (see {!Config}). *)

type t = {
  cpi_ns : float;  (** average ns per retired user instruction *)
  jitter_amplitude : float;
      (** multiplicative real-time noise per executed segment; models
          nondeterministic instruction latency and cache state (paper
          section 2.1).  Logical instruction counts are unaffected. *)
  page_fault_ns : int;  (** copy-on-write fault: trap + page copy + twin *)
  page_commit_ns : int;  (** per committed page: diff + install *)
  page_merge_ns : int;  (** additional cost when a byte-merge is needed *)
  page_refresh_ns : int;  (** refreshing a stale resident copy on update *)
  page_map_ns : int;  (** remapping one propagated page on update *)
  commit_base_ns : int;  (** fixed syscall cost of a commit *)
  update_base_ns : int;  (** fixed syscall cost of an update *)
  barrier_phase1_page_ns : int;
      (** serial part of Conversion's two-phase commit, per page *)
  commit_seal_page_ns : int;
      (** per-page cost of sealing a pipelined commit's write-set while
          holding the global (ordering + publishing the sealed set); the
          bulk install/merge is charged after the release *)
  token_ns : int;  (** token acquire/release bookkeeping *)
  counter_read_syscall_ns : int;  (** reading the perf counter via the kernel *)
  counter_read_user_ns : int;  (** user-space counter read (section 3.4) *)
  overflow_interrupt_ns : int;  (** one counter-overflow interrupt *)
  sync_op_base_ns : int;  (** fixed library overhead per sync operation *)
  wake_ns : int;  (** waking a blocked thread (futex-style) *)
  fork_base_ns : int;  (** process fork, fixed part *)
  fork_page_ns : int;  (** copying one populated page-table entry on fork *)
  pool_reuse_ns : int;  (** recycling a pooled thread (section 3.3) *)
  gc_pages_per_ms : int;  (** Conversion's single-threaded GC reclaim rate *)
  gc_step_pages : int;
      (** hard bound on pages scanned per incremental-GC step (the
          per-step work limit of the concurrent collector) *)
  pthread_lock_ns : int;
  pthread_unlock_ns : int;
  pthread_barrier_ns : int;
  pthread_cond_ns : int;
  pthread_spawn_ns : int;
  pthread_join_ns : int;
  mem_op_instr_per_8bytes : int;
      (** instructions charged per 8 bytes moved by read/write *)
  txn_validate_base_ns : int;
      (** fixed cost of validating one software transaction against the
          committed prefix of its round (ordered-TL2-style read-set
          check) *)
  txn_validate_key_ns : int;  (** per read/write intent entry scanned *)
  txn_abort_ns : int;
      (** discarding an aborted transaction's buffered write set *)
  txn_backoff_ns : int;
      (** deterministic retry backoff, charged per prior retry of the
          aborting transaction *)
}

val default : t

val work_ns : t -> Sim.Prng.t -> int -> int
(** Real time for [n] instructions including jitter drawn from the given
    stream; at least 1 ns for n >= 1.  Allocates nothing: the jitter is
    drawn with {!Sim.Prng.jittered}. *)
