let n_interned = 64
let interned prefix = Array.init n_interned (fun i -> prefix ^ string_of_int i)
let interned_lock = interned "lock:"
let interned_unlock = interned "unlock:"
let interned_tname = interned "t"
let interned_cond = interned "cond:"
let interned_barrier = interned "barrier:"
let interned_join = interned "join:"

let label table prefix i =
  if i >= 0 && i < n_interned then table.(i) else prefix ^ string_of_int i

let lock mid = label interned_lock "lock:" mid
let unlock mid = label interned_unlock "unlock:" mid
let thread_name tid = label interned_tname "t" tid
let cond_reason cid = label interned_cond "cond:" cid
let barrier bid = label interned_barrier "barrier:" bid
let join tid = label interned_join "join:" tid

type counters = {
  lock : Obs.Metrics.counter;
  unlock : Obs.Metrics.counter;
  commit : Obs.Metrics.counter;
  forced_commit : Obs.Metrics.counter;
  spawn : Obs.Metrics.counter;
  join : Obs.Metrics.counter;
  exit : Obs.Metrics.counter;
  cond_wait : Obs.Metrics.counter;
  signal : Obs.Metrics.counter;
  broadcast : Obs.Metrics.counter;
  barrier : Obs.Metrics.counter;
  atomic : Obs.Metrics.counter;
}

let counters metrics =
  let c family = Obs.Metrics.counter metrics ("op:" ^ family) in
  {
    lock = c "lock";
    unlock = c "unlock";
    commit = c "commit";
    forced_commit = c "forced-commit";
    spawn = c "spawn";
    join = c "join";
    exit = c "exit";
    cond_wait = c "cond_wait";
    signal = c "signal";
    broadcast = c "broadcast";
    barrier = c "barrier";
    atomic = c "atomic";
  }
