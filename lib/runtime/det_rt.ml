module Lc = Detclock.Logical_clock
module Tok = Detclock.Token
module Ofp = Detclock.Overflow_policy
module Bd = Stats.Breakdown

(* An exponentially weighted moving average.  A float-only record is
   stored flat, so updating [v] boxes nothing (a float field of a mixed
   record would box a fresh float at every update).  0.0 = no sample. *)
type ewma = { mutable v : float }

type mutex_rec = {
  mutable held_by : int; (* tid of the holder, -1 = free *)
  lock_waitq : int Queue.t;
  cs_ewma : ewma; (* per-lock critical-section length estimate *)
  mutable cs_enter_instr : int;
}

type thread_state = {
  tid : int;
  name : string;
  clock : Lc.clock;
  ws : Vmem.Workspace.t;
  bd : Bd.t;
  prng : Sim.Prng.t;
  ofp : Ofp.t;
  mutable instr_retired : int; (* actual user instructions *)
  mutable unpublished : int; (* retired but not yet published to the clock *)
  mutable next_overflow_in : int; (* instructions until the next overflow; 0 = fetch new *)
  mutable chunk_start_instr : int;
  mutable since_commit : int; (* instructions since last commit (for chunk_limit) *)
  chunk_ewma : ewma; (* thread-local estimate of chunk length (section 3.1) *)
  (* Coarsening state *)
  mutable coarsen_holding : bool;
  mutable coarsen_ops : int;
  mutable coarsen_start_instr : int;
  mutable coarsen_max : int;
  (* Lifecycle *)
  mutable exited : bool;
  mutable parked : bool;
  mutable joiner : int option;
  mutable granted : bool;
      (* Deterministic wake condition of the current park (engine permits
         may be spurious; this is not).  A parked thread waits on exactly
         one lock, condition, barrier or join, so one flag serves all
         four: the parking thread clears it before it becomes grantable
         and its {!grant} sets it. *)
  mutable post_armed : bool;
  mutable post_site : int;
      (* When [post_armed]: the mutex id whose unlock opened the current
         chunk; its length is attributed to this thread's per-lock
         post-unlock estimate at the next sync op.  Thread-local (paper
         section 3.1: "a thread-local estimate is maintained for use with
         coarsening unlock operations"), refined per lock so producer and
         consumer roles on the same lock do not pollute each other. *)
  mutable post_site_instr : int;
  post_ewma : (int, ewma) Hashtbl.t;
  (* Observability bookkeeping (never read by the algorithms) *)
  mutable race_epoch : int;
      (* release count + 1: the thread's own vector-clock component as a
         race detector replaying our event stream tracks it.  Only
         maintained when an observer is attached. *)
  mutable chunk_epoch : int;
      (* [race_epoch] as of the start of the chunk currently being
         written: reset at every commit-and-update point (including
         clean ones, which emit no Commit event) and advanced past any
         release that precedes the chunk's first write.  Commits stamp
         their version with it so conflicts can be classified against
         the loser's *chunk*, not its commit instant. *)
  mutable token_t0 : int;  (** time the global was acquired; -1 = not held *)
  mutable chunk_open_ns : int;  (** time the current chunk opened *)
  mutable prof_chunk : int;
      (* Ordinal of the chunk currently charged to: bumped at every chunk
         (re)open, so the coordination work that closes a chunk is
         attributed to the chunk it closes.  Pure observability. *)
  mutable prof_waker : int;
      (* tid of the thread whose grant/serial-turn/fence release ended (or
         will end) this thread's current wait; -1 = none recorded.  Set by
         the waker, consumed by the wait-interval emission, and never read
         by the algorithms. *)
  mutable serial_sticky : bool;
      (* Synchronous mode: this thread finished a sync op and still holds
         its serial turn; consecutive sync ops with no intervening user
         work stay in the same serial phase (as real DThreads' serial
         phase processes a thread's back-to-back ops under one token
         hold). The turn is surrendered as soon as user work executes. *)
  mutable pipe_pending_ns : int;
      (* Pipelined commit: bulk install/merge cost sealed under the token
         but not yet charged.  Drained (as a Commit_pipe interval) at the
         next [release_global], i.e. right after the token is handed on,
         so it overlaps the next chunk's execution on other threads.
         Accumulates across a coarsened chunk's deferred commits. *)
  (* Wall-clock calibration accumulators (real backends only): measured
     ns spent in real spins, unlocked memory operations, and the actual
     Vmem commit/update work.  Flushed to wall:* metric counters at
     thread exit; never read by the algorithms, zero on the DES. *)
  mutable wall_run : int;
  mutable wall_mem : int;
  mutable wall_commit : int;
  mutable wall_update : int;
}

type cond_rec = { cond_waitq : int Queue.t }

type barrier_rec = {
  mutable parties : int;
  mutable arrived_tids : int list;
  mutable generation : int;
}

type t = {
  cfg : Config.t;
  costs : Cost_model.t;
  ex : Sim.Exec.t;
  seg : Vmem.Segment.t;
  clocks : Lc.t;
  token : Tok.t;
  sync_trace : Sim.Trace.t;
  on_sync : (time:int -> tid:int -> string -> unit) option;
      (* sees every sync op after [sync_trace] has folded it; only
         [Run.schedule] sets it *)
  out_trace : Sim.Trace.t;
  (* Dense thread table: tids are handed out 0, 1, 2, ... so a flat array
     indexed by tid replaces a hashtable; the accounting folds that run on
     every commit (min_base, resident pages) touch [next_tid] slots
     instead of walking hash buckets. *)
  mutable threads : thread_state option array;
  (* Small-id fast path for the mutex table: lock ids are caller-chosen,
     so the dense front only covers 0..63 and anything else falls back to
     the hashtable.  Every lock/unlock resolves its mutex record, so this
     is on the per-operation path. *)
  mutex_dense : mutex_rec option array;
  mutexes : (int, mutex_rec) Hashtbl.t;
  conds : (int, cond_rec) Hashtbl.t;
  barriers : (int, barrier_rec) Hashtbl.t;
  mutable next_tid : int;
  mutable sync_ops : int;
  mutable last_coord_entrant : int;
  mutable peak_mem : int;
  mutable last_gc_ns : int;
  mutable pool_size : int; (* threads available for reuse (section 3.3) *)
  mutable overflow_interrupts : int;
  mutable coarsened_chunks : int;
  (* DThreads-style synchronous-commit fence (Fig 3a).  Threads arriving
     at a sync op rendezvous here; when every runnable thread has
     arrived, the epoch's arrivals are processed serially in thread-id
     order through the serial queue.  The global token is not used in this
     mode — the serial queue *is* the round-robin order, computed over
     exactly the threads that reached the fence, which is what real
     DThreads' parallel-phase/serial-phase structure does.  (Using the
     free-running round-robin token here would deadlock: the token could
     wait on a thread that is itself waiting at the fence.) *)
  mutable fence_arrived : bool array; (* by tid, as long as [threads] *)
  mutable fence_count : int; (* threads at the fence *)
  mutable fence_generation : int;
  (* The serial queue: a ring of tids, [serial_len] of them from
     [serial_head] (capacity a power of two). *)
  mutable serial_ring : int array;
  mutable serial_head : int;
  mutable serial_len : int;
  mutable serial_acquisitions : int;
  observer : Rt_event.observer option;
  race_stamp : (int, int * int) Hashtbl.t;
      (* committed version -> (committer, committer's chunk-start
         release-epoch); lets conflict events carry the loser's chunk
         stamp.  Only populated when an observer is attached. *)
  obs : Obs.Sink.t;
  mutable prof_enabler : int;
      (* Last thread that released the global / published a clock
         increment / departed — the best available "waker" for a token
         wait that ends without a direct grant.  Observability only. *)
  metrics : Obs.Metrics.t;
  (* Interned metric handles: the hot paths record through these instead
     of string-keyed lookups (one hashtable probe per sync op adds up). *)
  mh : metric_handles;
  (* Per-shard commit histograms ([shard<i>_commit_ns]/[_pages]), interned
     once at [run] when the segment is sharded (empty otherwise), plus a
     reused scratch for per-shard footprint counts — the commit path stays
     allocation-free at any shard count. *)
  mh_shard_commit_ns : Obs.Metrics.histogram array;
  mh_shard_commit_pages : Obs.Metrics.histogram array;
  shard_scratch : int array;
}

and metric_handles = {
  mh_chunk_instr : Obs.Metrics.histogram;
  mh_determ_wait_ns : Obs.Metrics.histogram;
  mh_token_hold_ns : Obs.Metrics.histogram;
  mh_commit_ns : Obs.Metrics.histogram;
  mh_commit_pages : Obs.Metrics.histogram;
  mh_commit_pipe_ns : Obs.Metrics.histogram;
  mh_update_ns : Obs.Metrics.histogram;
  mh_lock_wait_ns : Obs.Metrics.histogram;
  mh_barrier_wait_ns : Obs.Metrics.histogram;
  mh_ops : Sync_label.counters;
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* Execution-substrate shorthands.  On the DES these hit the engine; on
   the domains backend they hit the work-stealing scheduler and the wall
   clock.  Every runtime algorithm below goes through these — nothing
   else may reach a scheduler directly. *)
let e_now rt = rt.ex.Sim.Exec.now ()
let e_advance rt ns = rt.ex.Sim.Exec.advance ns
let e_block rt ~reason = rt.ex.Sim.Exec.block ~reason
let e_wakeup rt tid = rt.ex.Sim.Exec.wakeup tid
let is_real rt = rt.ex.Sim.Exec.real

(* A tid can be allocated (next_tid bumped) slightly before its state is
   installed by [add_thread] — accounting folds that run in that window
   must see the slot as absent, so bound by the array too. *)
let thread_opt rt tid =
  if tid >= 0 && tid < rt.next_tid && tid < Array.length rt.threads then rt.threads.(tid)
  else None

let thread rt tid =
  match thread_opt rt tid with
  | Some th -> th
  | None -> invalid_arg (Printf.sprintf "unknown thread %d" tid)

let add_thread rt th =
  let cap = Array.length rt.threads in
  if th.tid >= cap then begin
    let grown = Array.make (cap * 2) None in
    Array.blit rt.threads 0 grown 0 cap;
    rt.threads <- grown;
    let arrived = Array.make (cap * 2) false in
    Array.blit rt.fence_arrived 0 arrived 0 cap;
    rt.fence_arrived <- arrived
  end;
  rt.threads.(th.tid) <- Some th

(* Fold [f] over every live thread state; replaces Hashtbl.fold on the
   accounting paths that run at each commit. *)
let fold_threads rt f init =
  let n = min rt.next_tid (Array.length rt.threads) in
  let acc = ref init in
  for tid = 0 to n - 1 do
    match rt.threads.(tid) with Some th -> acc := f th !acc | None -> ()
  done;
  !acc

(* [op] is the operation-family counter for the label ([ops.lock] for
   "lock:3"), passed as an interned handle so the hot path neither scans
   the label nor hashes a key string. *)
(* CONSEQ_DEBUG_SYNC=1 prints every sync record with its clock state —
   diff two backends' streams to localize a cross-backend divergence. *)
let debug_sync = Sys.getenv_opt "CONSEQ_DEBUG_SYNC" <> None

let record_sync rt th ~op label =
  rt.sync_ops <- rt.sync_ops + 1;
  if debug_sync then
    Printf.eprintf "SYNC t%d %s pub=%d ic=%d\n%!" th.tid label
      (Lc.published th.clock) th.instr_retired;
  Obs.Metrics.count op 1;
  let time = e_now rt in
  Sim.Trace.record rt.sync_trace ~time ~tid:th.tid ~label;
  match rt.on_sync with None -> () | Some f -> f ~time ~tid:th.tid label

(* [record_sync] of the label [prefix ^ string_of_int n]: the string is
   only built when the debug dump or an [on_sync] hook wants it. *)
let record_sync_int rt th ~op prefix n =
  if debug_sync || Option.is_some rt.on_sync then
    record_sync rt th ~op (prefix ^ string_of_int n)
  else begin
    rt.sync_ops <- rt.sync_ops + 1;
    Obs.Metrics.count op 1;
    Sim.Trace.record_int rt.sync_trace ~time:(e_now rt) ~tid:th.tid ~label:prefix n
  end

(* Observability helpers.  These read the simulated clock but never
   advance it, block, or touch algorithm state: instrumented and bare
   runs must stay cycle-identical (enforced by the neutrality tests). *)

let tracing rt = not (Obs.Sink.is_null rt.obs)

let span rt ~cat ~name ~tid ~t0 ?(args = []) () =
  if tracing rt then
    rt.obs.Obs.Sink.span
      { Obs.Span.name; cat; tid; t0; t1 = e_now rt; args }

(* Rt_event payloads allocate (records, label strings): construct them
   only when somebody is listening.  Call sites guard with [emitting]. *)
let emitting rt = rt.observer <> None || not (Obs.Sink.is_null rt.obs)

(* ------------------------------------------------------------------ *)
(* Thread-state accounting (the determinism profiler's input stream)   *)
(* ------------------------------------------------------------------ *)

module St = Obs.Thread_state

(* Every charge is labelled with a profiler state; the legacy Breakdown
   category is derived from it, so the per-thread breakdown totals are
   byte-identical to the pre-profiler accounting. *)
let bd_of_state = function
  | St.Run -> Bd.Chunk
  | St.Token_wait -> Bd.Determ_wait
  | St.Lock_wait -> Bd.Lock_wait
  | St.Barrier_wait -> Bd.Barrier_wait
  | St.Commit | St.Commit_pipe -> Bd.Commit
  | St.Update -> Bd.Update
  | St.Fault -> Bd.Page_fault
  | St.Overflow | St.Runtime | St.Gc | St.Txn_validate | St.Txn_abort -> Bd.Library
  | St.Fork -> Bd.Fork

(* Emit one closed state interval [t0, now).  Purely observational: the
   sink sees the interval after the time has already been spent. *)
let state_interval rt th ~state ~t0 ~waker =
  if tracing rt then begin
    let t1 = e_now rt in
    if t1 > t0 then
      rt.obs.Obs.Sink.state
        { Obs.Thread_state.stid = th.tid; state; t0; t1; chunk = th.prof_chunk; waker }
  end

(* Charge [ns] of simulated time to [th] in profiler state [st].  The
   simulated clock only ever moves inside a charge or while blocked in
   a measured wait loop, so each thread's intervals tile its lifetime
   exactly (the conservation invariant test_prof enforces). *)
let charge rt th st ns =
  if ns > 0 then begin
    Bd.add th.bd (bd_of_state st) ns;
    let t0 = e_now rt in
    e_advance rt ns;
    state_interval rt th ~state:st ~t0 ~waker:(-1)
  end

let emit rt ev =
  (match rt.observer with Some f -> f ev | None -> ());
  if tracing rt then begin
    let icat =
      match ev with Rt_event.Conflict _ -> Obs.Span.Race | _ -> Obs.Span.Sync
    in
    rt.obs.Obs.Sink.instant
      {
        Obs.Span.iname = Rt_event.label ev;
        icat;
        itid = Rt_event.tid ev;
        itime = e_now rt;
      }
  end

let new_mutex_rec () =
  { held_by = -1; lock_waitq = Queue.create (); cs_ewma = { v = 0.0 }; cs_enter_instr = 0 }

let mutex_of rt id =
  let id = match rt.cfg.lock_granularity with Config.Single_global -> 0 | Config.Per_lock -> id in
  if id >= 0 && id < Array.length rt.mutex_dense then
    match Array.unsafe_get rt.mutex_dense id with
    | Some m -> m
    | None ->
        let m = new_mutex_rec () in
        Array.unsafe_set rt.mutex_dense id (Some m);
        m
  else
    match Hashtbl.find_opt rt.mutexes id with
    | Some m -> m
    | None ->
        let m = new_mutex_rec () in
        Hashtbl.replace rt.mutexes id m;
        m

let cond_of rt id =
  match Hashtbl.find_opt rt.conds id with
  | Some c -> c
  | None ->
      let c = { cond_waitq = Queue.create () } in
      Hashtbl.replace rt.conds id c;
      c

let barrier_of rt id =
  match Hashtbl.find_opt rt.barriers id with
  | Some b -> b
  | None ->
      let b = { parties = 0; arrived_tids = []; generation = 0 } in
      Hashtbl.replace rt.barriers id b;
      b

(* Fold one sample into [e]; the first sample replaces the empty 0.0. *)
let ewma_add (e : ewma) alpha sample =
  let sample = float_of_int sample in
  e.v <- (if e.v = 0.0 then sample else (alpha *. sample) +. ((1.0 -. alpha) *. e.v))

(* At every sync-op boundary, attribute the chunk that just ended to the
   (thread, lock) pair whose unlock started it.  Purely thread-local
   state, so the fold order cannot depend on scheduling. *)
let settle_post_unlock rt th =
  if th.post_armed then begin
    let mid = th.post_site in
    let e =
      match Hashtbl.find th.post_ewma mid with
      | e -> e
      | exception Not_found ->
          let e = { v = 0.0 } in
          Hashtbl.add th.post_ewma mid e;
          e
    in
    ewma_add e rt.cfg.Config.ewma_alpha (th.instr_retired - th.post_site_instr);
    th.post_armed <- false
  end

(* ------------------------------------------------------------------ *)
(* Memory accounting and GC                                           *)
(* ------------------------------------------------------------------ *)

(* Oldest version any runnable workspace still reads.  Parked threads do
   not pin history: every wake path performs a commit+update before user
   code touches memory again, so their stale bases are never read. *)
let min_base rt =
  fold_threads rt
    (fun th acc ->
      if th.exited || th.parked then acc else min acc (Vmem.Workspace.base th.ws))
    (Vmem.Segment.current_version rt.seg)

let gc_and_sample rt =
  let now = e_now rt in
  (if is_real rt then
     (* Real-parallel backend: other domains read committed snapshots
        without the runtime lock, so history prefixes must never move
        (see the [hist] publication comment in Segment).  Versions are
        kept until the run ends — the DES remains the memory-footprint
        oracle, and [off] staying 0 is what the lock-free read path
        relies on. *)
     ()
   else if rt.cfg.incremental_gc then
     (* Incremental per-shard collection: one bounded step per commit
        point (plus one per pipelined-commit drain).  The hard page bound
        replaces the rate budget — steps are cheap enough to hide in
        commit slack, so no reclaim-rate ceiling applies. *)
     ignore
       (Vmem.Segment.gc_step rt.seg ~min_base:(min_base rt)
          ~max_pages:rt.costs.Cost_model.gc_step_pages)
   else if rt.cfg.gc_budgeted then begin
     (* Conversion's single-threaded collector reclaims at a bounded rate;
        allocation bursts outpace it (Fig 12). *)
     let elapsed = now - rt.last_gc_ns in
     let budget = elapsed * rt.costs.Cost_model.gc_pages_per_ms / 1_000_000 in
     if budget > 0 then begin
       rt.last_gc_ns <- now;
       ignore (Vmem.Segment.gc rt.seg ~min_base:(min_base rt) ~budget)
     end
   end
   else ignore (Vmem.Segment.gc rt.seg ~min_base:(min_base rt) ~budget:max_int));
  let resident =
    fold_threads rt
      (fun th acc ->
        if th.exited then acc
        else acc + Vmem.Workspace.resident_pages th.ws + Vmem.Workspace.dirty_count th.ws)
      0
  in
  (* Versioned-memory systems (Conversion) hold page snapshots until the
     GC catches up; an mprotect-based system (DThreads) holds only the
     single shared image plus per-thread copies and twins, so its
     footprint ignores version history. *)
  let mem =
    if rt.cfg.gc_budgeted then Vmem.Segment.live_snapshots rt.seg + resident
    else Vmem.Segment.touched_pages rt.seg + resident
  in
  if mem > rt.peak_mem then rt.peak_mem <- mem

(* ------------------------------------------------------------------ *)
(* Logical clock publication                                          *)
(* ------------------------------------------------------------------ *)

(* Perturb a published increment when modelling untrusted counters [30].
   ppm = 0 (the default) leaves counters exact, hence deterministic. *)
let jittered_increment rt th n =
  if rt.cfg.counter_jitter_ppm = 0 || n = 0 then n
  else begin
    let noise = (2.0 *. Sim.Prng.float th.prng) -. 1.0 in
    let delta =
      int_of_float (float_of_int n *. float_of_int rt.cfg.counter_jitter_ppm *. noise /. 1e6)
    in
    max 0 (n + delta)
  end

(* Every publication point is a chunk-boundary decision: replaying the
   overflow ones (lib/replay) pins the whole schedule, since chunk-end
   publications are placed by the program's own sync ops.  The event goes
   to the observer only — it is scheduling bookkeeping, not a sync edge,
   and would drown the trace timeline in instants. *)
let publish rt th ~overflow =
  if th.unpublished > 0 then begin
    (match rt.observer with
    | Some f -> f (Rt_event.Boundary { tid = th.tid; ic = th.instr_retired; overflow })
    | None -> ());
    Lc.tick th.clock (jittered_increment rt th th.unpublished);
    th.unpublished <- 0;
    Tok.poke rt.token;
    rt.prof_enabler <- th.tid
  end

(* Read the performance counter at the end of a chunk: a syscall, or a
   cheap user-space read during a coarsened chunk (section 3.4). *)
let counter_read rt th =
  let cost =
    if th.coarsen_holding && rt.cfg.userspace_reads then rt.costs.Cost_model.counter_read_user_ns
    else rt.costs.Cost_model.counter_read_syscall_ns
  in
  charge rt th St.Overflow cost;
  publish rt th ~overflow:false

(* ------------------------------------------------------------------ *)
(* Commit / update with cost charging                                 *)
(* ------------------------------------------------------------------ *)

(* Charge a commit: the install cost is paid while holding the global
   (Fig 9 places the commit inside the token hold).  Deferring it past
   the release was tried and rejected: eligibility for the token during
   the deferred window is a real-time race, which breaks determinism.
   The parallel-barrier commit (section 4.2) is the one sanctioned
   exception — see [barrier_wait]. *)
(* A Release bumps the thread's own clock component; a release that
   precedes the current chunk's first write (workspace still clean) also
   moves the chunk start past itself, since it cannot order writes that
   have not happened yet.  Coarsened fast-path releases over a dirty
   workspace leave the chunk start alone: the deferred commit's writes
   straddle them, and the chunk is classified as a whole.  The released
   object's name, [obj id], is only built when somebody is listening. *)
let emit_release rt th obj id =
  if emitting rt then begin
    emit rt (Rt_event.Release { tid = th.tid; obj = obj id });
    th.race_epoch <- th.race_epoch + 1;
    if not (Vmem.Workspace.is_dirty th.ws) then th.chunk_epoch <- th.race_epoch
  end

(* Conflicts precede their Commit in the stream so a consumer sees the
   merge resolution before the version becomes the newest committed
   state.  [loser_version] is translated from a segment version to the
   loser's chunk-start release-epoch — the same currency the pthreads
   runtime stamps conflicts with — so the detector's verdict is one
   component comparison.  [conflicts] is [] unless the workspace tracks
   them, which [new_thread_state] enables exactly when [emitting rt]. *)
let emit_conflicts rt th (ci : Vmem.Workspace.commit_info) =
  if emitting rt then
    List.iter
      (fun (c : Vmem.Workspace.conflict) ->
        let loser_tid, loser_epoch =
          (* Every version was stamped at its commit; an unknown one
             (impossible today) classifies as racy, which is the loud
             failure mode for a race detector. *)
          match Hashtbl.find_opt rt.race_stamp c.loser_version with
          | Some stamp -> stamp
          | None -> (c.loser_tid, max_int)
        in
        emit rt
          (Rt_event.Conflict
             {
               tid = th.tid;
               version = ci.version;
               page = c.cpage;
               first_byte = c.first_byte;
               last_byte = c.last_byte;
               loser_tid;
               loser_version = loser_epoch;
             }))
      ci.conflicts

(* Every commit-and-update point closes the thread's write chunk: stamp
   the published version with the closing chunk's start epoch and open a
   new chunk at the current epoch.  Clean commits emit no event but
   still reset the chunk — their sync op delimits writes all the same. *)
let stamp_commit rt th (ci : Vmem.Workspace.commit_info) =
  if emitting rt then begin
    if ci.pages_committed > 0 then
      Hashtbl.replace rt.race_stamp ci.version (th.tid, th.chunk_epoch);
    th.chunk_epoch <- th.race_epoch
  end

(* Digest the pages a commit just installed, read back at the committed
   version.  The replay divergence detector compares these step-by-step:
   a schedule that reproduces event order but corrupts data is caught at
   the first differing commit, not at the final workspace hash. *)
let commit_digest rt (ci : Vmem.Workspace.commit_info) =
  let h =
    Array.fold_left
      (fun h p -> Sim.Fnv.bytes (Sim.Fnv.int h p) (Vmem.Segment.read_page rt.seg ~version:ci.version p))
      Sim.Fnv.init ci.committed_pages
  in
  Sim.Fnv.to_hex h

let emit_commit_hash rt th (ci : Vmem.Workspace.commit_info) =
  if emitting rt then
    emit rt
      (Rt_event.Commit_hash { tid = th.tid; version = ci.version; hash = commit_digest rt ci })

(* Per-shard footprint of a commit (into the reused scratch, no
   allocation): records the per-shard histograms and returns the largest
   single-shard page count — the install critical path when the shards
   install concurrently.  Equals the total footprint when unsharded, so
   the sharded cost formula degenerates to the serial one at 1 shard. *)
let shard_footprint rt (ci : Vmem.Workspace.commit_info) =
  let nsh = Vmem.Segment.shards rt.seg in
  if nsh <= 1 || Array.length rt.mh_shard_commit_pages < nsh then ci.pages_committed
  else begin
    let scratch = rt.shard_scratch in
    Array.fill scratch 0 nsh 0;
    Array.iter
      (fun p ->
        let s = Vmem.Segment.shard_of_page rt.seg p in
        scratch.(s) <- scratch.(s) + 1)
      ci.committed_pages;
    let max_pages = ref 0 in
    for s = 0 to nsh - 1 do
      if scratch.(s) > 0 then begin
        Obs.Metrics.record rt.mh_shard_commit_pages.(s) scratch.(s);
        Obs.Metrics.record rt.mh_shard_commit_ns.(s)
          (int_of_float
             (float_of_int (scratch.(s) * rt.costs.Cost_model.page_commit_ns)
             *. rt.cfg.commit_cost_mult));
        if scratch.(s) > !max_pages then max_pages := scratch.(s)
      end
    done;
    !max_pages
  end

let charge_commit rt th (ci : Vmem.Workspace.commit_info) =
  if ci.pages_committed > 0 then begin
    let t0 = e_now rt in
    let c = rt.costs in
    (* With a sharded segment the per-page installs proceed one shard per
       worker, so the install term is the largest single-shard footprint;
       merges stay summed (the merge scan is the committer's own work). *)
    let install_pages = shard_footprint rt ci in
    (if rt.cfg.pipelined_commit then begin
       (* Phase 1, under the global: order the commit and seal/publish the
          write-set — only the cheap per-page sealing is serial.  The bulk
          install/merge cost is stashed and charged as a Commit_pipe
          interval right after the release (see [release_global]), so it
          overlaps the next chunk's execution elsewhere.  Only the cost
          moves: the data was installed above, inside the token hold, so
          version order, merges and digests are untouched. *)
       let seal_ns =
         c.Cost_model.commit_base_ns + (ci.pages_committed * c.Cost_model.commit_seal_page_ns)
       in
       charge rt th St.Commit (int_of_float (float_of_int seal_ns *. rt.cfg.commit_cost_mult));
       th.pipe_pending_ns <-
         th.pipe_pending_ns
         + (install_pages * c.Cost_model.page_commit_ns)
         + (ci.pages_merged * c.Cost_model.page_merge_ns)
     end
     else begin
       let ns =
         c.Cost_model.commit_base_ns
         + (install_pages * c.Cost_model.page_commit_ns)
         + (ci.pages_merged * c.Cost_model.page_merge_ns)
       in
       charge rt th St.Commit (int_of_float (float_of_int ns *. rt.cfg.commit_cost_mult))
     end);
    Obs.Metrics.record rt.mh.mh_commit_ns (e_now rt - t0);
    Obs.Metrics.record rt.mh.mh_commit_pages ci.pages_committed;
    if tracing rt then
      span rt ~cat:Obs.Span.Commit
        ~name:(Printf.sprintf "commit:v%d" ci.version)
        ~tid:th.tid ~t0
        ~args:[ ("pages", ci.pages_committed); ("merged", ci.pages_merged) ]
        ();
    record_sync_int rt th ~op:rt.mh.mh_ops.commit "commit:" ci.version;
    emit_conflicts rt th ci;
    if emitting rt then begin
      emit rt
        (Rt_event.Commit
           { tid = th.tid; version = ci.version; pages = Array.to_list ci.committed_pages });
      emit_commit_hash rt th ci
    end
  end

let charge_update rt th (ui : Vmem.Workspace.update_info) =
  if ui.to_version > ui.from_version then begin
    let t0 = e_now rt in
    let c = rt.costs in
    let ns =
      c.Cost_model.update_base_ns
      + (ui.pages_propagated * c.Cost_model.page_map_ns)
      + (ui.pages_refreshed * c.Cost_model.page_refresh_ns)
    in
    charge rt th St.Update ns;
    Obs.Metrics.record rt.mh.mh_update_ns (e_now rt - t0);
    if tracing rt then
      span rt ~cat:Obs.Span.Update
        ~name:(Printf.sprintf "update:v%d-v%d" ui.from_version ui.to_version)
        ~tid:th.tid ~t0
        ~args:[ ("pages", ui.pages_propagated); ("refreshed", ui.pages_refreshed) ]
        ()
  end

(* Real Vmem work, timed on real backends: these wrappers are the
   measurement points of the wall-vs-model calibration (the charge_*
   functions above account *modelled* ns; here the actual page installs
   and refreshes happen).  Both run with the token and runtime lock
   held, matching the DES execution points exactly. *)
let ws_commit rt th =
  if is_real rt then begin
    let w0 = e_now rt in
    let ci = Vmem.Workspace.commit th.ws in
    th.wall_commit <- th.wall_commit + (e_now rt - w0);
    ci
  end
  else Vmem.Workspace.commit th.ws

let ws_update rt th =
  if is_real rt then begin
    let w0 = e_now rt in
    let ui = Vmem.Workspace.update th.ws in
    th.wall_update <- th.wall_update + (e_now rt - w0);
    ui
  end
  else Vmem.Workspace.update th.ws

(* What [stamp_commit] does for a commit that publishes nothing. *)
let stamp_clean rt th = if emitting rt then th.chunk_epoch <- th.race_epoch

(* Commit and charge.  A clean workspace has nothing to publish, so the
   workspace is not called and no result is built; the race-chunk stamp
   resets all the same. *)
let commit_and_charge rt th =
  if Vmem.Workspace.is_dirty th.ws then begin
    let ci = ws_commit rt th in
    stamp_commit rt th ci;
    charge_commit rt th ci
  end
  else stamp_clean rt th

(* Update and charge; a workspace already at the newest version has
   nothing to map, so the workspace is not called. *)
let update_and_charge rt th =
  if Vmem.Workspace.base th.ws < Vmem.Segment.current_version rt.seg then
    charge_update rt th (ws_update rt th)

(* The paper's convCommitAndUpdateMem(). *)
let commit_and_update rt th =
  commit_and_charge rt th;
  update_and_charge rt th;
  th.since_commit <- 0;
  gc_and_sample rt

(* ------------------------------------------------------------------ *)
(* DThreads fence (synchronous commits, Fig 3a)                       *)
(* ------------------------------------------------------------------ *)

let fence_participant th = (not th.exited) && (not th.parked) && not th.coarsen_holding

(* Thread slot [tid] does not hold the fence back. *)
let fence_ready rt tid =
  match rt.threads.(tid) with
  | Some th -> (not (fence_participant th)) || rt.fence_arrived.(tid)
  | None -> true

let fence_complete rt =
  let n = min rt.next_tid (Array.length rt.threads) in
  let tid = ref 0 in
  while !tid < n && fence_ready rt !tid do
    incr tid
  done;
  !tid = n

(* Ring slot of the [k]th queued thread. *)
let serial_slot rt k = (rt.serial_head + k) land (Array.length rt.serial_ring - 1)

let serial_push rt tid =
  if rt.serial_len = Array.length rt.serial_ring then begin
    let grown = Array.make (2 * rt.serial_len) 0 in
    for k = 0 to rt.serial_len - 1 do
      grown.(k) <- rt.serial_ring.(serial_slot rt k)
    done;
    rt.serial_ring <- grown;
    rt.serial_head <- 0
  end;
  rt.serial_ring.(serial_slot rt rt.serial_len) <- tid;
  rt.serial_len <- rt.serial_len + 1

(* The thread at the head of the serial queue, or -1 when it is empty. *)
let serial_head rt = if rt.serial_len = 0 then -1 else rt.serial_ring.(rt.serial_head)

let fence_release rt ~waker =
  (* The epoch's serial phase processes arrivals in thread-id order. *)
  let first = rt.serial_len in
  for tid = 0 to Array.length rt.fence_arrived - 1 do
    if rt.fence_arrived.(tid) then begin
      rt.fence_arrived.(tid) <- false;
      serial_push rt tid
    end
  done;
  rt.fence_count <- 0;
  rt.fence_generation <- rt.fence_generation + 1;
  for k = first to rt.serial_len - 1 do
    let tid = rt.serial_ring.(serial_slot rt k) in
    if tid <> waker then (thread rt tid).prof_waker <- waker;
    e_wakeup rt tid
  done

(* Called whenever the participant set shrinks (park, exit): the fence may
   now be complete without a new arrival. *)
let fence_check rt ~waker =
  if rt.cfg.ordering = Config.Round_robin && rt.fence_count > 0 && fence_complete rt then
    fence_release rt ~waker

let fence_wait rt th =
  if not rt.fence_arrived.(th.tid) then begin
    rt.fence_arrived.(th.tid) <- true;
    rt.fence_count <- rt.fence_count + 1
  end;
  if fence_complete rt then fence_release rt ~waker:th.tid
  else begin
    let gen = rt.fence_generation in
    while rt.fence_generation = gen do
      e_block rt ~reason:"fence"
    done
  end

let serial_wait rt th =
  while serial_head rt <> th.tid do
    e_block rt ~reason:"serial-turn"
  done;
  rt.serial_acquisitions <- rt.serial_acquisitions + 1

let serial_done rt th =
  if serial_head rt <> th.tid then
    invalid_arg "Det_rt.serial_done: thread is not at the head of the serial queue";
  rt.serial_head <- serial_slot rt 1;
  rt.serial_len <- rt.serial_len - 1;
  let next = serial_head rt in
  if next >= 0 then begin
    (thread rt next).prof_waker <- th.tid;
    e_wakeup rt next
  end

(* Round-robin ordering is implemented with the epoch fence + serial
   queue; instruction-count ordering with the GMIC token. *)
let uses_fence rt = rt.cfg.Config.ordering = Config.Round_robin

(* Acquire the right to perform a deterministic event: the global token
   (asynchronous commits) or the epoch fence plus the serial turn
   (synchronous commits, DThreads). *)
let acquire_global rt th =
  let t0 = e_now rt in
  if uses_fence rt then begin
    if th.serial_sticky then
      (* Back-to-back sync op: still our serial turn, no new fence. *)
      th.serial_sticky <- false
    else begin
      fence_wait rt th;
      serial_wait rt th
    end
  end
  else Tok.wait rt.token ~tid:th.tid;
  let waited = e_now rt - t0 in
  Bd.add th.bd Bd.Determ_wait waited;
  Obs.Metrics.record rt.mh.mh_determ_wait_ns waited;
  if waited > 0 then begin
    span rt ~cat:Obs.Span.Determ_wait ~name:"determ-wait" ~tid:th.tid ~t0 ();
    (* A token wait has no explicit grant: credit the last recorded
       serial-turn/fence waker, falling back to the last thread that made
       the token grantable (released it or published a clock tick). *)
    let waker = if th.prof_waker >= 0 then th.prof_waker else rt.prof_enabler in
    state_interval rt th ~state:St.Token_wait ~t0 ~waker
  end;
  th.prof_waker <- -1;
  th.token_t0 <- e_now rt

(* Drain a pipelined commit's deferred bulk cost, as a Commit_pipe
   interval stamped right after the global moved on — this is the point
   where the install/merge of chunk N overlaps execution of chunk N+1.
   Safe to relocate: token eligibility is decided purely from published
   logical clocks (never from simulated time), so charging here cannot
   change the synchronization order — the same argument that sanctions
   the parallel barrier's phase 2.  TSO visibility holds because the
   data itself was installed under the token; only its cost lands here.
   The incremental collector also steps here: the drain IS the commit
   slack the collector is meant to hide in. *)
let drain_pipe rt th =
  if th.pipe_pending_ns > 0 then begin
    let ns = int_of_float (float_of_int th.pipe_pending_ns *. rt.cfg.commit_cost_mult) in
    th.pipe_pending_ns <- 0;
    let t0 = e_now rt in
    charge rt th St.Commit_pipe ns;
    Obs.Metrics.record rt.mh.mh_commit_pipe_ns (e_now rt - t0);
    span rt ~cat:Obs.Span.Commit ~name:"commit-pipe" ~tid:th.tid ~t0 ();
    if rt.cfg.incremental_gc && not (is_real rt) then
      ignore
        (Vmem.Segment.gc_step rt.seg ~min_base:(min_base rt)
           ~max_pages:rt.costs.Cost_model.gc_step_pages)
  end

let release_global rt th =
  if th.token_t0 >= 0 then begin
    Obs.Metrics.record rt.mh.mh_token_hold_ns (e_now rt - th.token_t0);
    span rt ~cat:Obs.Span.Token_hold ~name:"token" ~tid:th.tid ~t0:th.token_t0 ();
    th.token_t0 <- -1
  end;
  if uses_fence rt then th.serial_sticky <- true
  else begin
    Tok.release rt.token ~tid:th.tid;
    rt.prof_enabler <- th.tid
  end;
  drain_pipe rt th

(* Surrender a deferred serial turn (before running user work, parking,
   or exiting). *)
let flush_sticky rt th =
  if th.serial_sticky then begin
    th.serial_sticky <- false;
    serial_done rt th
  end

(* ------------------------------------------------------------------ *)
(* Global coordination (enter / leave)                                *)
(* ------------------------------------------------------------------ *)

(* End-of-chunk bookkeeping common to every coordination entry. *)
let observe_chunk rt th =
  let chunk_len = th.instr_retired - th.chunk_start_instr in
  Obs.Metrics.record rt.mh.mh_chunk_instr chunk_len;
  if chunk_len > 0 && tracing rt then
    (* Perfetto-visible distinction between live chunks and chunks whose
       boundaries were forced by a replayed schedule. *)
    let args =
      ("instr", chunk_len) :: (if Config.scripted rt.cfg then [ ("replayed", 1) ] else [])
    in
    span rt ~cat:Obs.Span.Chunk ~name:"chunk" ~tid:th.tid ~t0:th.chunk_open_ns ~args ()

let close_chunk rt th =
  let chunk_len = th.instr_retired - th.chunk_start_instr in
  ewma_add th.chunk_ewma rt.cfg.ewma_alpha chunk_len;
  observe_chunk rt th;
  counter_read rt th;
  Lc.pause th.clock

let open_chunk rt th =
  Lc.resume th.clock;
  th.chunk_start_instr <- th.instr_retired;
  th.chunk_open_ns <- e_now rt;
  th.prof_chunk <- th.prof_chunk + 1;
  Ofp.begin_chunk th.ofp;
  th.next_overflow_in <- 0

(* The paper's clockPause(); waitToken() prologue.  A thread inside a
   coarsened chunk already holds the global: its hold converts directly
   into this operation's coordination phase (no release/re-acquire, and
   the deferred commits ride along with this op's commit). *)
let enter_coordination rt th =
  if th.coarsen_holding then begin
    (* Already holding the global: the post-unlock sample folds in global
       order. *)
    settle_post_unlock rt th;
    close_chunk rt th;
    th.coarsen_holding <- false;
    fence_check rt ~waker:th.tid;
    charge rt th St.Runtime rt.costs.Cost_model.sync_op_base_ns;
    (* The coarsened chunk's coalesced commit must happen here: the
       deferred writes include critical sections whose locks were already
       released, and the operation we are converting into may block and
       surrender the global without committing (e.g. a contended lock).
       Publishing them now preserves the release semantics of the
       coarsened unlocks. *)
    commit_and_update rt th
  end
  else begin
    close_chunk rt th;
    charge rt th St.Runtime rt.costs.Cost_model.sync_op_base_ns;
    acquire_global rt th;
    (* Post-unlock chunk samples fold into the shared per-lock estimate
       only while holding the global, so the fold order — and with it
       every later coarsening decision — is deterministic. *)
    settle_post_unlock rt th;
    charge rt th St.Runtime rt.costs.Cost_model.token_ns
  end;
  (* Multiplicative increase / decrease of the coarsening budget: repeated
     coordination by the same thread doubles it, alternation halves it
     (section 3.1). *)
  (if rt.cfg.coarsening = Config.Adaptive then
     if rt.last_coord_entrant = th.tid then
       th.coarsen_max <- min rt.cfg.coarsen_max_cap (th.coarsen_max * 2)
     else th.coarsen_max <- max rt.cfg.coarsen_max_floor (th.coarsen_max / 2));
  rt.last_coord_entrant <- th.tid

let leave_coordination rt th =
  release_global rt th;
  charge rt th St.Runtime rt.costs.Cost_model.token_ns;
  open_chunk rt th

(* Begin a coarsened chunk: keep the token and defer commits. *)
let begin_coarsen rt th =
  th.coarsen_holding <- true;
  th.coarsen_ops <- 0;
  th.coarsen_start_instr <- th.instr_retired;
  rt.coarsened_chunks <- rt.coarsened_chunks + 1;
  fence_check rt ~waker:th.tid;
  open_chunk rt th

(* End a coarsened chunk: single coalesced commit, then release. *)
let end_coarsen rt th =
  assert th.coarsen_holding;
  th.coarsen_holding <- false;
  observe_chunk rt th;
  counter_read rt th;
  commit_and_update rt th;
  release_global rt th;
  charge rt th St.Runtime rt.costs.Cost_model.token_ns;
  th.chunk_start_instr <- th.instr_retired;
  th.chunk_open_ns <- e_now rt;
  th.prof_chunk <- th.prof_chunk + 1;
  Ofp.begin_chunk th.ofp;
  th.next_overflow_in <- 0

(* Should we coarsen past this coordination phase?  [estimate] is the
   expected length of the upcoming piece of local work, in whole
   instructions (an EWMA truncated by [int_of_float]). *)
let coarsen_decision rt th ~estimate =
  match rt.cfg.coarsening with
  | Config.No_coarsening -> false
  | Config.Static k -> th.coarsen_ops < k
  | Config.Adaptive ->
      let accumulated =
        if th.coarsen_holding then th.instr_retired - th.coarsen_start_instr else 0
      in
      accumulated + estimate <= th.coarsen_max

(* ------------------------------------------------------------------ *)
(* Local work execution (the chunk executor)                          *)
(* ------------------------------------------------------------------ *)

let rec consume rt th n =
  if n > 0 then begin
    flush_sticky rt th;
    (* A coarsened chunk that overruns its budget ends immediately: the
       coalesced commit happens mid-chunk (TSO permits committing early)
       and the token is released, bounding how long other threads can be
       blocked when the post-coarsening chunk turns out to be long
       (the net-loss case acknowledged in section 3.1). *)
    if th.coarsen_holding && th.instr_retired - th.coarsen_start_instr > th.coarsen_max then
      end_coarsen rt th;
    (if th.next_overflow_in <= 0 then
       (* Both queries are O(1) reads of the incremental clock indexes:
          no fold, no closure, no list. *)
       let gap =
         if Lc.is_gmic rt.clocks ~tid:th.tid && Tok.waiting_count rt.token > 0 then
           Lc.next_waiting_gap rt.clocks ~tid:th.tid
         else 0
       in
       th.next_overflow_in <- Ofp.next_interval ~ic:th.instr_retired th.ofp ~waiter_gap:gap);
    let step = min n th.next_overflow_in in
    if is_real rt then begin
      (* Execute the chunk's instructions for real, with the runtime
         lock released (the substrate's spin drops and retakes it) so
         other domains' chunks genuinely overlap.  Safe because chunk
         work touches only thread-private state, and safe for ordering
         because grant eligibility depends only on published sync-point
         counts, never on when this work physically runs. *)
      let w0 = e_now rt in
      rt.ex.Sim.Exec.spin step;
      th.wall_run <- th.wall_run + (e_now rt - w0)
    end;
    charge rt th St.Run (Cost_model.work_ns rt.costs th.prng step);
    th.instr_retired <- th.instr_retired + step;
    th.unpublished <- th.unpublished + step;
    th.next_overflow_in <- th.next_overflow_in - step;
    th.since_commit <- th.since_commit + step;
    if th.next_overflow_in = 0 then begin
      (* Counter overflow interrupt: publish and notify (section 3.2).
         The kernel module publishes directly from the interrupt handler,
         so no syscall cost is charged on top of the interrupt itself. *)
      rt.overflow_interrupts <- rt.overflow_interrupts + 1;
      charge rt th St.Overflow rt.costs.Cost_model.overflow_interrupt_ns;
      publish rt th ~overflow:true
    end;
    (* Ad-hoc synchronization support (section 2.7): bound the number of
       instructions a chunk may retire before a forced commit+update. *)
    (match rt.cfg.chunk_limit with
    | Some limit when th.since_commit >= limit && not th.coarsen_holding ->
        enter_coordination rt th;
        commit_and_update rt th;
        record_sync rt th ~op:rt.mh.mh_ops.forced_commit "forced-commit";
        leave_coordination rt th
    | Some _ | None -> ());
    consume rt th (n - step)
  end

let mem_instr rt len = max 1 (len / 8 * rt.costs.Cost_model.mem_op_instr_per_8bytes)

(* Run a workspace data operation.  On a real backend the runtime lock
   is released for the duration: reads/writes touch only the caller's
   private workspace plus immutable published segment snapshots (the
   lock-free read path Segment's [hist] publication order protects), so
   memory operations from different domains genuinely overlap.  The
   wrapper re-acquires the lock before re-raising, preserving the
   invariant that runtime code always unwinds with the lock held.  The
   operation is [f th.ws a b]: call sites pass closed functions and their
   arguments, so no closure is built per operation. *)
let unlocked_mem rt th f a b =
  if is_real rt then begin
    let w0 = e_now rt in
    rt.ex.Sim.Exec.unlock ();
    let r =
      try f th.ws a b
      with e ->
        rt.ex.Sim.Exec.lock ();
        raise e
    in
    rt.ex.Sim.Exec.lock ();
    th.wall_mem <- th.wall_mem + (e_now rt - w0);
    r
  end
  else f th.ws a b

let charge_new_faults rt th before_faults =
  let after = (Vmem.Workspace.stats th.ws).Vmem.Workspace.write_faults in
  let faults = after - before_faults in
  if faults > 0 then begin
    let ns =
      int_of_float
        (float_of_int (faults * rt.costs.Cost_model.page_fault_ns) *. rt.cfg.fault_cost_mult)
    in
    charge rt th St.Fault ns
  end

(* ------------------------------------------------------------------ *)
(* Parking (deterministic wait conditions)                            *)
(* ------------------------------------------------------------------ *)

(* Park the calling thread until its [granted] flag is set (the caller
   cleared it before becoming grantable).  The thread departs
   from GMIC consideration (clockDepart, Fig 7) and is excluded from the
   fence while parked.  The matching {!grant} — executed by the waker at
   a deterministic point — re-adds it to GMIC consideration and
   fast-forwards its clock; doing either on the wakee's side would make
   eligibility depend on the real-time wake latency and break
   determinism (the paper's wakeupThread() likewise "adds the thread
   back into consideration for the GMIC"). *)
let park rt th ~state ~reason =
  flush_sticky rt th;
  Lc.depart th.clock;
  th.parked <- true;
  Tok.poke rt.token;
  rt.prof_enabler <- th.tid;
  fence_check rt ~waker:th.tid;
  let t0 = e_now rt in
  while not th.granted do
    e_block rt ~reason
  done;
  let waited = e_now rt - t0 in
  Bd.add th.bd (bd_of_state state) waited;
  (let scat, hist =
     match state with
     | St.Barrier_wait -> (Obs.Span.Barrier_wait, rt.mh.mh_barrier_wait_ns)
     | _ -> (Obs.Span.Lock_wait, rt.mh.mh_lock_wait_ns)
   in
   Obs.Metrics.record hist waited;
   if waited > 0 then begin
     span rt ~cat:scat ~name:reason ~tid:th.tid ~t0 ();
     state_interval rt th ~state ~t0 ~waker:th.prof_waker
   end);
  th.prof_waker <- -1;
  (* Normally the granter already cleared these (and fast-forwarded our
     clock); when the grant landed before we even blocked — [granted]
     was set on entry — restore them ourselves.  No simulated time passes in
     that path, so the flicker is invisible to other threads. *)
  th.parked <- false;
  Lc.arrive th.clock;
  Tok.poke rt.token

(* The waker's half of a wake-up (the paper's wakeupThread()): set the
   wakee's deterministic wake condition, fast-forward its clock to the
   waker's (section 3.5), rejoin it to GMIC consideration, and schedule
   it. *)
let grant rt ~waker wakee =
  wakee.granted <- true;
  if rt.cfg.fast_forward then begin
    (* The wakee inherits the waker's true progress: publish any
       retired-but-unpublished instructions first, so the target is a
       pure function of the waker's program point.  Without this, a
       grant from inside a coarsened chunk (the one grant site that is
       not preceded by a chunk-closing counter read) fast-forwards to
       whatever the last overflow publication happened to be — and
       overflow timing is real-time dependent on the domains backend
       (Ofp's waiter_gap), which would leak wall-clock into the
       deterministic schedule. *)
    publish rt waker ~overflow:false;
    ignore (Lc.fast_forward wakee.clock ~to_count:(Lc.published waker.clock))
  end;
  wakee.parked <- false;
  wakee.prof_waker <- waker.tid;
  Lc.arrive wakee.clock;
  Tok.poke rt.token;
  e_wakeup rt wakee.tid

(* ------------------------------------------------------------------ *)
(* Synchronization operations                                         *)
(* ------------------------------------------------------------------ *)

let measure_cs_enter th (m : mutex_rec) = m.cs_enter_instr <- th.instr_retired

let rec mutex_lock rt th mid =
  let m = mutex_of rt mid in
  if th.coarsen_holding then begin
    settle_post_unlock rt th;
    if m.held_by < 0 then begin
      (* Coarsened fast path: we already hold the token; acquire without a
         coordination phase and defer the commit. *)
      m.held_by <- th.tid;
      measure_cs_enter th m;
      th.coarsen_ops <- th.coarsen_ops + 1;
      record_sync rt th ~op:rt.mh.mh_ops.lock (Sync_label.lock mid);
      if emitting rt then emit rt (Rt_event.Acquire { tid = th.tid; obj = Rt_event.obj_mutex mid });
      counter_read rt th
    end
    else
      (* Lock contention: fall back to the full algorithm; its
         coordination prologue converts our coarsened hold in place. *)
      mutex_lock_slow rt th mid
  end
  else mutex_lock_slow rt th mid

(* The mutexLock() of Fig 7. *)
and mutex_lock_slow rt th mid =
  let m = mutex_of rt mid in
  let acquired = ref false in
  while not !acquired do
    enter_coordination rt th;
    if m.held_by < 0 then begin
      m.held_by <- th.tid;
      commit_and_update rt th;
      record_sync rt th ~op:rt.mh.mh_ops.lock (Sync_label.lock mid);
      if emitting rt then emit rt (Rt_event.Acquire { tid = th.tid; obj = Rt_event.obj_mutex mid });
      measure_cs_enter th m;
      acquired := true;
      (* Coarsen across the critical section if its estimated length fits
         (section 3.1, per-lock estimate). *)
      if coarsen_decision rt th ~estimate:(int_of_float m.cs_ewma.v) then begin
        begin_coarsen rt th;
        th.coarsen_ops <- 1
      end
      else leave_coordination rt th
    end
    else begin
      match rt.cfg.polling_locks with
      | Some increment ->
          (* Kendo-style polling (section 4.1): stay in GMIC
             consideration, bump our clock past the competition and spin.
             Deterministic (the increment is a fixed constant) but needs
             program-specific tuning of [increment] — the weakness
             Consequence's blocking algorithm removes. *)
          release_global rt th;
          Lc.resume th.clock;
          Lc.tick th.clock increment;
          th.instr_retired <- th.instr_retired + increment;
          Lc.pause th.clock;
          Tok.poke rt.token;
          charge rt th St.Lock_wait rt.costs.Cost_model.token_ns
      | None ->
          (* Held: depart, queue, release the token, block (Fig 7 lines
             9-14) — the paper's first blocking deterministic mutex. *)
          th.granted <- false;
          Queue.push th.tid m.lock_waitq;
          release_global rt th;
          park rt th ~state:St.Lock_wait ~reason:(Sync_label.lock mid)
    end
  done

(* Release the mutex and grant the next waiter; shared by unlock and
   cond_wait.  Must run while holding the token. *)
let release_mutex rt ~waker (m : mutex_rec) =
  m.held_by <- -1;
  if not (Queue.is_empty m.lock_waitq) then grant rt ~waker (thread rt (Queue.pop m.lock_waitq))

let update_cs_ewma rt th (m : mutex_rec) =
  ewma_add m.cs_ewma rt.cfg.ewma_alpha (th.instr_retired - m.cs_enter_instr)

(* The mutexUnlock() of Fig 9. *)
let mutex_unlock rt th mid =
  let m = mutex_of rt mid in
  if m.held_by <> th.tid then
    invalid_arg (Printf.sprintf "unlock: thread %d does not hold mutex %d" th.tid mid);
  update_cs_ewma rt th m;
  (* Expected length of the chunk that follows this unlock: this thread's
     estimate for this lock, falling back to its generic chunk estimate. *)
  let post_estimate =
    match Hashtbl.find th.post_ewma mid with
    | e when e.v > 0.0 -> int_of_float e.v
    | _ | (exception Not_found) -> int_of_float th.chunk_ewma.v
  in
  if th.coarsen_holding then begin
    settle_post_unlock rt th;
    release_mutex rt ~waker:th m;
    record_sync rt th ~op:rt.mh.mh_ops.unlock (Sync_label.unlock mid);
    emit_release rt th Rt_event.obj_mutex mid;
    th.coarsen_ops <- th.coarsen_ops + 1;
    charge rt th St.Runtime rt.costs.Cost_model.sync_op_base_ns;
    (* Continue coarsening over the upcoming chunk if it is expected to
       fit (section 3.1). *)
    if not (coarsen_decision rt th ~estimate:post_estimate) then end_coarsen rt th
  end
  else begin
    enter_coordination rt th;
    release_mutex rt ~waker:th m;
    commit_and_update rt th;
    record_sync rt th ~op:rt.mh.mh_ops.unlock (Sync_label.unlock mid);
    emit_release rt th Rt_event.obj_mutex mid;
    if coarsen_decision rt th ~estimate:post_estimate then begin_coarsen rt th
    else leave_coordination rt th
  end;
  th.post_armed <- true;
  th.post_site <- mid;
  th.post_site_instr <- th.instr_retired

let cond_wait rt th cid mid =
  let m = mutex_of rt mid in
  if m.held_by <> th.tid then
    invalid_arg (Printf.sprintf "cond_wait: thread %d does not hold mutex %d" th.tid mid);
  let c = cond_of rt cid in
  enter_coordination rt th;
  update_cs_ewma rt th m;
  release_mutex rt ~waker:th m;
  commit_and_update rt th;
  record_sync_int rt th ~op:rt.mh.mh_ops.cond_wait "cond_wait:" cid;
  emit_release rt th Rt_event.obj_mutex mid;
  th.granted <- false;
  Queue.push th.tid c.cond_waitq;
  release_global rt th;
  charge rt th St.Runtime rt.costs.Cost_model.token_ns;
  park rt th ~state:St.Lock_wait ~reason:(Sync_label.cond_reason cid);
  if emitting rt then emit rt (Rt_event.Acquire { tid = th.tid; obj = Rt_event.obj_cond cid });
  open_chunk rt th;
  (* Re-acquire the mutex, competing deterministically with other lockers. *)
  mutex_lock rt th mid

let record_signal rt th cid ~broadcast =
  if broadcast then record_sync_int rt th ~op:rt.mh.mh_ops.broadcast "broadcast:" cid
  else record_sync_int rt th ~op:rt.mh.mh_ops.signal "signal:" cid

let rec cond_signal rt th cid ~broadcast =
  let c = cond_of rt cid in
  if th.coarsen_holding && Queue.is_empty c.cond_waitq then begin
    settle_post_unlock rt th;
    (* Signalling with no waiter is purely local: nothing to wake, and the
       accompanying commit may be coalesced like any other under TSO, so
       the op need not end the coarsened chunk. *)
    record_signal rt th cid ~broadcast;
    th.coarsen_ops <- th.coarsen_ops + 1;
    charge rt th St.Runtime rt.costs.Cost_model.sync_op_base_ns
  end
  else cond_signal_slow rt th cid ~broadcast

and cond_signal_slow rt th cid ~broadcast =
  let c = cond_of rt cid in
  enter_coordination rt th;
  let more = ref true in
  while !more && not (Queue.is_empty c.cond_waitq) do
    grant rt ~waker:th (thread rt (Queue.pop c.cond_waitq));
    charge rt th St.Runtime rt.costs.Cost_model.wake_ns;
    more := broadcast
  done;
  commit_and_update rt th;
  record_signal rt th cid ~broadcast;
  emit_release rt th Rt_event.obj_cond cid;
  leave_coordination rt th

let barrier_init rt th bid parties =
  if parties <= 0 then invalid_arg "barrier_init: parties must be > 0";
  let b = barrier_of rt bid in
  b.parties <- parties;
  ignore th

(* Deterministic barrier with Conversion's two-phase parallel commit
   (section 4.2). *)
let barrier_wait rt th bid =
  let b = barrier_of rt bid in
  if b.parties = 0 then invalid_arg (Printf.sprintf "barrier %d: not initialized" bid);
  enter_coordination rt th;
  let c = rt.costs in
  let phase2_pages = ref 0 in
  (if rt.cfg.parallel_barrier then begin
     (* Phase 1 (serial, token held): order the commit and install its
        content; charge only the cheap ordering work.  Phase 2 (the bulk
        merge) is charged after the token is released, so committers
        overlap. *)
     if not (Vmem.Workspace.is_dirty th.ws) then stamp_clean rt th
     else begin
       let ci = ws_commit rt th in
       stamp_commit rt th ci;
       let t0 = e_now rt in
       charge rt th St.Commit
         (c.Cost_model.commit_base_ns
         + (ci.Vmem.Workspace.pages_committed * c.Cost_model.barrier_phase1_page_ns));
       Obs.Metrics.record rt.mh.mh_commit_ns (e_now rt - t0);
       Obs.Metrics.record rt.mh.mh_commit_pages ci.Vmem.Workspace.pages_committed;
       if tracing rt then
         span rt ~cat:Obs.Span.Commit
           ~name:(Printf.sprintf "commit-phase1:v%d" ci.Vmem.Workspace.version)
           ~tid:th.tid ~t0
           ~args:[ ("pages", ci.Vmem.Workspace.pages_committed) ]
           ();
       record_sync_int rt th ~op:rt.mh.mh_ops.commit "commit:" ci.Vmem.Workspace.version;
       emit_conflicts rt th ci;
       if emitting rt then begin
         emit rt
           (Rt_event.Commit
              {
                tid = th.tid;
                version = ci.Vmem.Workspace.version;
                pages = Array.to_list ci.Vmem.Workspace.committed_pages;
              });
         emit_commit_hash rt th ci
       end;
       phase2_pages :=
         (ci.Vmem.Workspace.pages_committed * c.Cost_model.page_commit_ns)
         + (ci.Vmem.Workspace.pages_merged * c.Cost_model.page_merge_ns)
     end
   end
   else
     (* Serial barrier commit (DWC-style, paper section 5.2): the entire
        page volume is installed while holding the turn, so concurrent
        barrier committers serialize. *)
     commit_and_charge rt th);
  th.since_commit <- 0;
  record_sync rt th ~op:rt.mh.mh_ops.barrier (Sync_label.barrier bid);
  emit_release rt th Rt_event.obj_barrier bid;
  b.arrived_tids <- th.tid :: b.arrived_tids;
  let last = List.length b.arrived_tids = b.parties in
  th.granted <- false;
  release_global rt th;
  charge rt th St.Runtime rt.costs.Cost_model.token_ns;
  (* Waiters run phase 2 and the internal (non-deterministic) barrier
     outside the deterministic ordering: they depart, and re-arrive only
     through their grant — a deterministic point in the global order.
     The LAST arriver must stay visible (active) throughout its phase 2
     and the grants: if it departed, its re-arrival would happen at a
     real-time-delayed instant that tied-clock threads race, which is
     nondeterministic (found by the determinism fuzzer). *)
  if not last then begin
    Lc.depart th.clock;
    Tok.poke rt.token;
    rt.prof_enabler <- th.tid
  end;
  (let p2_t0 = e_now rt in
   charge rt th St.Commit (int_of_float (float_of_int !phase2_pages *. rt.cfg.commit_cost_mult));
   if !phase2_pages > 0 then begin
     Obs.Metrics.record rt.mh.mh_commit_ns (e_now rt - p2_t0);
     span rt ~cat:Obs.Span.Commit ~name:"commit-phase2" ~tid:th.tid ~t0:p2_t0 ()
   end);
  if last then begin
    let others = List.filter (fun tid -> tid <> th.tid) b.arrived_tids in
    b.arrived_tids <- [];
    b.generation <- b.generation + 1;
    List.iter (fun tid -> grant rt ~waker:th (thread rt tid)) others;
    charge rt th St.Runtime (List.length others * rt.costs.Cost_model.wake_ns)
  end
  else
    (* The wake condition must be the grant itself: a stale wakeup permit
       plus a generation test could let a waiter slip out of the park
       before its grant ran (leaving it departed forever). *)
    park rt th ~state:St.Barrier_wait ~reason:(Sync_label.barrier bid);
  if emitting rt then emit rt (Rt_event.Acquire { tid = th.tid; obj = Rt_event.obj_barrier bid });
  (* Everyone updates to the latest version after the internal barrier;
     these updates run concurrently. *)
  update_and_charge rt th;
  gc_and_sample rt;
  open_chunk rt th

(* ------------------------------------------------------------------ *)
(* Atomic read-modify-write (section 2.7)                             *)
(* ------------------------------------------------------------------ *)

(* Native RMW: a plain load+store through the isolated workspace.  Under
   deterministic isolation this silently loses concurrent increments —
   exactly the hazard the paper describes. *)
let plain_fetch_add rt th ~addr delta =
  consume rt th 10;
  let before = (Vmem.Workspace.stats th.ws).Vmem.Workspace.write_faults in
  let v = Vmem.Workspace.read_int th.ws ~addr in
  Vmem.Workspace.write_int th.ws ~addr (v + delta);
  charge_new_faults rt th before;
  v

(* The paper's proposed fix: token + fresh view + commit. *)
let atomic_fetch_add rt th ~addr delta =
  enter_coordination rt th;
  commit_and_update rt th;
  let before = (Vmem.Workspace.stats th.ws).Vmem.Workspace.write_faults in
  let v = Vmem.Workspace.read_int th.ws ~addr in
  Vmem.Workspace.write_int th.ws ~addr (v + delta);
  charge_new_faults rt th before;
  commit_and_charge rt th;
  update_and_charge rt th;
  record_sync_int rt th ~op:rt.mh.mh_ops.atomic "atomic:" addr;
  leave_coordination rt th;
  v

(* ------------------------------------------------------------------ *)
(* Thread lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let rec make_ops rt th : Api.ops =
  {
    Api.tid = th.tid;
    self_name = th.name;
    work = (fun n -> consume rt th n);
    read =
      (fun ~addr ~len ->
        consume rt th (mem_instr rt len);
        unlocked_mem rt th (fun ws addr len -> Vmem.Workspace.read ws ~addr ~len) addr len);
    read_into =
      (fun ~addr buf ->
        consume rt th (mem_instr rt (Bytes.length buf));
        unlocked_mem rt th (fun ws addr buf -> Vmem.Workspace.read_into ws ~addr buf) addr buf);
    write =
      (fun ~addr buf ->
        consume rt th (mem_instr rt (Bytes.length buf));
        let before = (Vmem.Workspace.stats th.ws).Vmem.Workspace.write_faults in
        unlocked_mem rt th (fun ws addr buf -> Vmem.Workspace.write ws ~addr buf) addr buf;
        charge_new_faults rt th before);
    read_int =
      (fun ~addr ->
        consume rt th 1;
        unlocked_mem rt th (fun ws addr () -> Vmem.Workspace.read_int ws ~addr) addr ());
    write_int =
      (fun ~addr v ->
        consume rt th 1;
        let before = (Vmem.Workspace.stats th.ws).Vmem.Workspace.write_faults in
        unlocked_mem rt th (fun ws addr v -> Vmem.Workspace.write_int ws ~addr v) addr v;
        charge_new_faults rt th before);
    fetch_add = (fun ~addr delta -> plain_fetch_add rt th ~addr delta);
    atomic_fetch_add = (fun ~addr delta -> atomic_fetch_add rt th ~addr delta);
    lock = (fun m -> mutex_lock rt th m);
    unlock = (fun m -> mutex_unlock rt th m);
    cond_wait = (fun c m -> cond_wait rt th c m);
    cond_signal = (fun c -> cond_signal rt th c ~broadcast:false);
    cond_broadcast = (fun c -> cond_signal rt th c ~broadcast:true);
    barrier_init = (fun b parties -> barrier_init rt th b parties);
    barrier_wait = (fun b -> barrier_wait rt th b);
    spawn = (fun ?name body -> spawn_thread rt th ?name body);
    join = (fun t -> join_thread rt th t);
    log_output =
      (fun msg -> Sim.Trace.record rt.out_trace ~time:(e_now rt) ~tid:th.tid ~label:msg);
    yield = (fun () -> ());
    base_version = (fun () -> Vmem.Workspace.base th.ws);
    snapshot_read =
      (fun ~version ~addr ~len ->
        (* Version-pinned read straight from the segment histories: no
           fault, no resident copy.  The pin is GC-safe because callers
           pin at-or-above their own workspace base (see Segment.read_bytes). *)
        consume rt th (mem_instr rt len);
        unlocked_mem rt th
          (fun ws (version, addr) len ->
            Vmem.Segment.read_bytes (Vmem.Workspace.segment ws) ~version ~addr ~len)
          (version, addr) len);
    now_ns = (fun () -> e_now rt);
    metric_incr = (fun key by -> Obs.Metrics.incr rt.metrics ~by key);
    metric_observe = (fun key v -> Obs.Metrics.observe rt.metrics key v);
    txn_validate =
      (fun ~keys ->
        charge rt th St.Txn_validate
          (rt.costs.Cost_model.txn_validate_base_ns
          + (keys * rt.costs.Cost_model.txn_validate_key_ns)));
    txn_abort =
      (fun ~seq ~retries ->
        charge rt th St.Txn_abort
          (rt.costs.Cost_model.txn_abort_ns + (retries * rt.costs.Cost_model.txn_backoff_ns));
        if emitting rt then emit rt (Rt_event.Txn_abort { tid = th.tid; seq; retries }));
  }

and new_thread_state rt ~tid ~name ~inherit_count =
  let clock = Lc.register rt.clocks ~tid in
  if inherit_count > 0 then ignore (Lc.fast_forward clock ~to_count:inherit_count);
  let ofp_kind =
    match rt.cfg.scheduling with
    | Config.Scripted bounds when tid < Array.length bounds -> Ofp.Scripted bounds.(tid)
    | Config.Scripted _ | Config.Emergent ->
        if rt.cfg.adaptive_overflow then
          Ofp.Adaptive { base = rt.cfg.overflow_base; cap = rt.cfg.overflow_cap }
        else Ofp.Fixed rt.cfg.overflow_base
  in
  let ws = Vmem.Workspace.create rt.seg ~tid in
  (* Conflict capture only feeds the event stream: pay the extra merge
     scan only when somebody is listening. *)
  if emitting rt then Vmem.Workspace.set_track_conflicts ws true;
  {
    tid;
    name;
    clock;
    ws;
    bd = Bd.create ();
    prng = Sim.Prng.split rt.ex.Sim.Exec.prng;
    ofp = Ofp.create ofp_kind;
    instr_retired = 0;
    unpublished = 0;
    next_overflow_in = 0;
    chunk_start_instr = 0;
    since_commit = 0;
    chunk_ewma = { v = 0.0 };
    coarsen_holding = false;
    coarsen_ops = 0;
    coarsen_start_instr = 0;
    coarsen_max = rt.cfg.coarsen_max_initial;
    exited = false;
    parked = false;
    joiner = None;
    granted = false;
    post_armed = false;
    post_site = 0;
    post_site_instr = 0;
    post_ewma = Hashtbl.create 8;
    token_t0 = -1;
    chunk_open_ns = e_now rt;
    prof_chunk = 0;
    prof_waker = -1;
    serial_sticky = false;
    pipe_pending_ns = 0;
    race_epoch = 1;
    chunk_epoch = 1;
    wall_run = 0;
    wall_mem = 0;
    wall_commit = 0;
    wall_update = 0;
  }

and thread_exit rt th =
  enter_coordination rt th;
  commit_and_update rt th;
  record_sync rt th ~op:rt.mh.mh_ops.exit "exit";
  emit_release rt th Rt_event.obj_exit th.tid;
  th.exited <- true;
  if rt.cfg.thread_pool then rt.pool_size <- rt.pool_size + 1;
  release_global rt th;
  Lc.finish th.clock;
  Tok.poke rt.token;
  rt.prof_enabler <- th.tid;
  fence_check rt ~waker:th.tid;
  (match th.joiner with
  | Some j -> grant rt ~waker:th (thread rt j)
  | None -> ());
  flush_sticky rt th;
  if is_real rt then begin
    (* Flush the wall-clock calibration accumulators.  Counter adds are
       commutative, so the (timing-dependent) exit order cannot affect
       the totals; the wall:* keys exist only on real backends and are
       never part of the witness.  Runs under the runtime lock, like
       every other metrics access. *)
    let flush name v =
      if v > 0 then Obs.Metrics.count (Obs.Metrics.counter rt.metrics name) v
    in
    flush "wall:run_ns" th.wall_run;
    flush "wall:mem_ns" th.wall_mem;
    flush "wall:commit_ns" th.wall_commit;
    flush "wall:update_ns" th.wall_update
  end

and spawn_thread rt th ?name body =
  let fork_t0 = e_now rt in
  enter_coordination rt th;
  commit_and_update rt th;
  let child_tid = rt.next_tid in
  rt.next_tid <- child_tid + 1;
  let name = match name with Some n -> n | None -> Sync_label.thread_name child_tid in
  (* Thread-pool reuse (section 3.3) versus a full fork that copies every
     populated page-table entry of the Conversion segment. *)
  (if rt.cfg.thread_pool && rt.pool_size > 0 then begin
     rt.pool_size <- rt.pool_size - 1;
     charge rt th St.Fork rt.costs.Cost_model.pool_reuse_ns
   end
   else begin
     let populated = Vmem.Segment.touched_pages rt.seg in
     charge rt th St.Fork
       (rt.costs.Cost_model.fork_base_ns + (populated * rt.costs.Cost_model.fork_page_ns))
   end);
  let child = new_thread_state rt ~tid:child_tid ~name ~inherit_count:(Lc.published th.clock) in
  add_thread rt child;
  emit_release rt th Rt_event.obj_thread child_tid;
  let fiber_id =
    rt.ex.Sim.Exec.spawn ~name (fun () ->
        (* A recycled thread must refresh its view of memory. *)
        if emitting rt then emit rt (Rt_event.Acquire { tid = child_tid; obj = Rt_event.obj_thread child_tid });
        update_and_charge rt child;
        body (make_ops rt child);
        thread_exit rt child)
  in
  assert (fiber_id = child_tid);
  record_sync_int rt th ~op:rt.mh.mh_ops.spawn "spawn:" child_tid;
  if tracing rt then
    span rt ~cat:Obs.Span.Fork
      ~name:(Printf.sprintf "spawn:%d" child_tid)
      ~tid:th.tid ~t0:fork_t0
      ~args:[ ("child", child_tid) ]
      ();
  Tok.poke rt.token;
  leave_coordination rt th;
  child_tid

and join_thread rt th target_tid =
  let join_t0 = e_now rt in
  (* Parking while holding a coarsened global would deadlock the system;
     end the hold before waiting for the child. *)
  if th.coarsen_holding then end_coarsen rt th;
  let target =
    match thread_opt rt target_tid with
    | Some target -> target
    | None -> invalid_arg (Printf.sprintf "join: unknown thread %d" target_tid)
  in
  if target.joiner <> None then invalid_arg (Printf.sprintf "join: thread %d already joined" target_tid);
  if not target.exited then begin
    target.joiner <- Some th.tid;
    th.granted <- false;
    close_chunk rt th;
    park rt th ~state:St.Lock_wait ~reason:(Sync_label.join target_tid);
    Lc.resume th.clock;
    th.chunk_start_instr <- th.instr_retired
  end;
  (* Joining is a deterministic event: token + update to observe the
     child's final commits. *)
  enter_coordination rt th;
  commit_and_update rt th;
  record_sync rt th ~op:rt.mh.mh_ops.join (Sync_label.join target_tid);
  if emitting rt then emit rt (Rt_event.Acquire { tid = th.tid; obj = Rt_event.obj_exit target_tid });
  if tracing rt then
    span rt ~cat:Obs.Span.Join
      ~name:(Printf.sprintf "join:%d" target_tid)
      ~tid:th.tid ~t0:join_t0 ();
  leave_coordination rt th

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

(* Run [program] on an arbitrary execution substrate.  [start] drives
   the substrate's scheduler to quiescence after the main green thread
   has been registered (the DES calls [Sim.Engine.run]; the domains
   backend calls [Sim.Sched.run]).  Everything deterministic — thread
   ids, token grants, commits, witnesses — is computed by the same code
   on every substrate; only time and physical placement differ. *)
let run_exec cfg ~ex ~start ?(costs = Cost_model.default) ?(seed = 1) ?nthreads ?observer
    ?(obs = Obs.Sink.null) ?on_sync (program : Api.t) =
  let nthreads = match nthreads with Some n -> n | None -> program.Api.default_threads in
  (match Api.check_threads program nthreads with Ok () -> () | Error msg -> invalid_arg msg);
  let seg =
    Vmem.Segment.create ~name:program.Api.name ~pages:program.Api.heap_pages
      ~page_size:program.Api.page_size ()
  in
  if cfg.Config.commit_shards > 1 then Vmem.Segment.set_shards seg cfg.Config.commit_shards;
  let nshards = Vmem.Segment.shards seg in
  let clocks = Lc.create () in
  let ordering =
    match cfg.Config.ordering with
    | Config.Round_robin -> Tok.Round_robin
    | Config.Instruction_count -> Tok.Instruction_count
  in
  let token = Tok.create ex clocks ordering in
  let metrics = Obs.Metrics.create () in
  let rt =
    {
      cfg;
      costs;
      ex;
      seg;
      clocks;
      token;
      sync_trace = Sim.Trace.create ();
      on_sync;
      out_trace = Sim.Trace.create ();
      threads = Array.make 8 None;
      mutex_dense = Array.make 64 None;
      mutexes = Hashtbl.create 16;
      conds = Hashtbl.create 16;
      barriers = Hashtbl.create 16;
      next_tid = 1;
      sync_ops = 0;
      last_coord_entrant = -1;
      peak_mem = 0;
      last_gc_ns = 0;
      pool_size = 0;
      overflow_interrupts = 0;
      coarsened_chunks = 0;
      fence_arrived = Array.make 8 false;
      fence_count = 0;
      fence_generation = 0;
      serial_ring = Array.make 8 0;
      serial_head = 0;
      serial_len = 0;
      serial_acquisitions = 0;
      observer;
      race_stamp = Hashtbl.create 256;
      obs;
      prof_enabler = -1;
      metrics;
      mh =
        {
          mh_chunk_instr = Obs.Metrics.histogram metrics "chunk_instr";
          mh_determ_wait_ns = Obs.Metrics.histogram metrics "determ_wait_ns";
          mh_token_hold_ns = Obs.Metrics.histogram metrics "token_hold_ns";
          mh_commit_ns = Obs.Metrics.histogram metrics "commit_ns";
          mh_commit_pages = Obs.Metrics.histogram metrics "commit_pages";
          mh_commit_pipe_ns = Obs.Metrics.histogram metrics "commit_pipe_ns";
          mh_update_ns = Obs.Metrics.histogram metrics "update_ns";
          mh_lock_wait_ns = Obs.Metrics.histogram metrics "lock_wait_ns";
          mh_barrier_wait_ns = Obs.Metrics.histogram metrics "barrier_wait_ns";
          mh_ops = Sync_label.counters metrics;
        };
      mh_shard_commit_ns =
        (if nshards <= 1 then [||]
         else
           Array.init nshards (fun s ->
               Obs.Metrics.histogram metrics (Printf.sprintf "shard%d_commit_ns" s)));
      mh_shard_commit_pages =
        (if nshards <= 1 then [||]
         else
           Array.init nshards (fun s ->
               Obs.Metrics.histogram metrics (Printf.sprintf "shard%d_commit_pages" s)));
      shard_scratch = Array.make nshards 0;
    }
  in
  let main_state = new_thread_state rt ~tid:0 ~name:"main" ~inherit_count:0 in
  add_thread rt main_state;
  let fiber_id =
    rt.ex.Sim.Exec.spawn ~name:"main" (fun () ->
        program.Api.main ~nthreads (make_ops rt main_state);
        thread_exit rt main_state)
  in
  assert (fiber_id = 0);
  start ();
  let per_thread =
    fold_threads rt
      (fun th acc ->
        {
          Stats.Run_result.tid = th.tid;
          thread_name = th.name;
          breakdown = th.bd;
          instructions = th.instr_retired;
        }
        :: acc)
      []
    |> List.rev
  in
  let sum f = fold_threads rt (fun th acc -> acc + f th) 0 in
  let ws_stat f = sum (fun th -> f (Vmem.Workspace.stats th.ws)) in
  {
    Stats.Run_result.program = program.Api.name;
    runtime = cfg.Config.name;
    nthreads;
    seed;
    wall_ns = e_now rt;
    per_thread;
    sync_ops = rt.sync_ops;
    token_acquisitions = Tok.acquisitions token + rt.serial_acquisitions;
    pages_propagated = ws_stat (fun s -> s.Vmem.Workspace.pages_propagated);
    pages_committed = ws_stat (fun s -> s.Vmem.Workspace.pages_committed);
    pages_merged = ws_stat (fun s -> s.Vmem.Workspace.pages_merged);
    bytes_merged = ws_stat (fun s -> s.Vmem.Workspace.bytes_merged);
    write_faults = ws_stat (fun s -> s.Vmem.Workspace.write_faults);
    commits = ws_stat (fun s -> s.Vmem.Workspace.commits);
    coarsened_chunks = rt.coarsened_chunks;
    overflow_interrupts = rt.overflow_interrupts;
    peak_mem_pages = rt.peak_mem;
    versions = Vmem.Segment.versions_created seg;
    mem_hash = Vmem.Segment.hash seg;
    sync_order_hash = Sim.Trace.hash rt.sync_trace;
    output_hash = Sim.Trace.hash rt.out_trace;
    trace_events = Sim.Trace.length rt.sync_trace;
    metrics = Obs.Metrics.snapshot rt.metrics;
  }

(* The discrete-event entry point every existing caller uses: wrap the
   DES engine as the execution substrate and drive it to quiescence. *)
let run cfg ?costs ?seed ?nthreads ?observer ?obs ?on_sync (program : Api.t) =
  let eng = Sim.Engine.create ~seed:(Option.value seed ~default:1) () in
  run_exec cfg
    ~ex:(Sim.Exec.of_engine eng)
    ~start:(fun () -> Sim.Engine.run eng)
    ?costs ?seed ?nthreads ?observer ?obs ?on_sync program
