(** Sync-op labels and per-family op counters shared by the runtimes.

    Every sync op is recorded twice: as a label (["lock:3"]) in the sync
    trace, whose hash is the schedule witness, and as a bump of its
    family's ["op:<family>"] counter.  Labels for ids below 64 are
    interned, so the common case allocates nothing; every label equals
    the string the dynamic path would build, so trace hashes do not
    depend on which path made it. *)

val lock : int -> string
(** ["lock:<mid>"] *)

val unlock : int -> string
(** ["unlock:<mid>"] *)

val thread_name : int -> string
(** ["t<tid>"], the default name of a spawned thread. *)

val cond_reason : int -> string
(** ["cond:<cid>"], the block reason of a condition wait. *)

val barrier : int -> string
(** ["barrier:<bid>"], a barrier's sync label and block reason. *)

val join : int -> string
(** ["join:<tid>"], a join's sync label and block reason. *)

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
(** Interned handles for the ["op:<family>"] counters.  Registration is
    lazy, so a family that never runs adds no key to the snapshot. *)

val counters : Obs.Metrics.t -> counters
