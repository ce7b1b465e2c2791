type ordering = Round_robin | Instruction_count
type commit_style = Synchronous | Asynchronous
type lock_granularity = Single_global | Per_lock
type coarsening = No_coarsening | Static of int | Adaptive
type scheduling = Emergent | Scripted of int array array

type t = {
  name : string;
  ordering : ordering;
  commit_style : commit_style;
  lock_granularity : lock_granularity;
  fault_cost_mult : float;
  commit_cost_mult : float;
  coarsening : coarsening;
  adaptive_overflow : bool;
  overflow_base : int;
  overflow_cap : int;
  userspace_reads : bool;
  fast_forward : bool;
  parallel_barrier : bool;
  thread_pool : bool;
  chunk_limit : int option;
  polling_locks : int option;
  counter_jitter_ppm : int;
  gc_budgeted : bool;
  pipelined_commit : bool;
  commit_shards : int;
  incremental_gc : bool;
  coarsen_max_initial : int;
  coarsen_max_floor : int;
  coarsen_max_cap : int;
  ewma_alpha : float;
  scheduling : scheduling;
}

let base =
  {
    name = "base";
    ordering = Instruction_count;
    commit_style = Asynchronous;
    lock_granularity = Per_lock;
    fault_cost_mult = 1.0;
    commit_cost_mult = 1.0;
    coarsening = Adaptive;
    adaptive_overflow = true;
    overflow_base = Detclock.Overflow_policy.default_base;
    overflow_cap = Detclock.Overflow_policy.default_cap;
    userspace_reads = true;
    fast_forward = true;
    parallel_barrier = true;
    thread_pool = true;
    chunk_limit = None;
    polling_locks = None;
    counter_jitter_ppm = 0;
    gc_budgeted = true;
    pipelined_commit = false;
    commit_shards = 1;
    incremental_gc = false;
    coarsen_max_initial = 300_000;
    coarsen_max_floor = 10_000;
    coarsen_max_cap = 2_000_000;
    ewma_alpha = 0.3;
    scheduling = Emergent;
  }

let consequence_ic = { base with name = "consequence-ic" }
let consequence_rr = { base with name = "consequence-rr"; ordering = Round_robin }

let dwc =
  {
    base with
    name = "dwc";
    ordering = Round_robin;
    commit_style = Asynchronous;
    lock_granularity = Single_global;
    coarsening = No_coarsening;
    adaptive_overflow = false;
    userspace_reads = false;
    fast_forward = false;
    parallel_barrier = false;
    thread_pool = false;
  }

let dthreads =
  {
    dwc with
    name = "dthreads";
    commit_style = Synchronous;
    (* mprotect-based isolation: pricier faults and commits than
       Conversion's kernel support (paper section 2.5 / [23]). *)
    fault_cost_mult = 3.0;
    commit_cost_mult = 4.5;
    gc_budgeted = false;
  }

(* The scaled commit path of this repro's parallel-commit work: sealed
   write-sets published under the token with the install/merge charged
   after the release, page-range-sharded installs, and the incremental
   per-shard collector.  Witness-identical to consequence_ic (only cost
   placement moves); kept out of {!presets} so the four-library figure
   sweeps are unchanged. *)
let consequence_pipe =
  {
    base with
    name = "consequence-pipe";
    pipelined_commit = true;
    commit_shards = 8;
    incremental_gc = true;
  }

let presets = [ dthreads; dwc; consequence_rr; consequence_ic ]

let with_name t name = { t with name }
let without_coarsening t = { t with name = t.name ^ "-nocoarsen"; coarsening = No_coarsening }

let with_static_coarsening t k =
  { t with name = Printf.sprintf "%s-static%d" t.name k; coarsening = Static k }

let without_adaptive_overflow t =
  { t with name = t.name ^ "-nooverflow"; adaptive_overflow = false }

let without_userspace_reads t = { t with name = t.name ^ "-nouserread"; userspace_reads = false }
let without_fast_forward t = { t with name = t.name ^ "-noff"; fast_forward = false }

let without_parallel_barrier t =
  { t with name = t.name ^ "-nopbarrier"; parallel_barrier = false }

let without_thread_pool t = { t with name = t.name ^ "-nopool"; thread_pool = false }
let with_chunk_limit t n = { t with name = Printf.sprintf "%s-climit%d" t.name n; chunk_limit = Some n }

let with_polling_locks t ~increment =
  { t with name = Printf.sprintf "%s-poll%d" t.name increment; polling_locks = Some increment }
let with_counter_jitter t ~ppm = { t with name = t.name ^ "-cjitter"; counter_jitter_ppm = ppm }

let with_pipelined_commit t = { t with name = t.name ^ "-pipe"; pipelined_commit = true }

let with_commit_shards t n =
  if n < 1 then invalid_arg "Config.with_commit_shards: shards must be >= 1";
  { t with name = Printf.sprintf "%s-shard%d" t.name n; commit_shards = n }

let with_incremental_gc t = { t with name = t.name ^ "-incgc"; incremental_gc = true }

let with_scripted_schedule t ~boundaries =
  { t with name = t.name ^ "-replay"; scheduling = Scripted boundaries }

let scripted t = match t.scheduling with Scripted _ -> true | Emergent -> false
