(** Deterministic ordered arbitration with same-round re-execution.

    The commit order of a round is (priority, batch index), with the
    priority rotating per round, so the equivalent serial order of the
    whole run is (round, priority, batch index).  Every update commits in
    the round it was submitted: a transaction whose read or write set
    touches a key written earlier in the round's order is re-executed
    once, at its place in that order, from its published intent (its
    read sum corrected by the round's writes so far, its new values
    recomputed with {!Txn.new_value}).  The result is a pure function of
    the intents every thread published at the round barrier — no
    schedule state, no clocks, no store reads — so all threads compute
    it identically, on every runtime and seed. *)

val priority_of : round:int -> nthreads:int -> int -> int
val tid_of_priority : round:int -> nthreads:int -> int -> int

(** {1 Streaming fold} *)

type overlay
(** A worker's private view of the round's writes so far: per key, the
    value after the round's writes in commit order, the round-start
    value, the number of writes, and the last writer. *)

val overlay : unit -> overlay
(** A fresh overlay with no key written; allocated once per worker. *)

val reset : overlay -> unit
(** Forget the round's writes (start of phase B). *)

val fold_region : overlay -> tid:int -> sums:int array -> Bytes.t -> int
(** [fold_region o ~tid ~sums region] executes, in batch order, every
    transaction of thread [tid]'s encoded region ({!Intent.encode}'s
    wire format, possibly followed by stale words, which are ignored)
    at its place after everything already folded into [o], and records
    its writes in [o].  [sums.(bi)] receives batch entry [bi]'s read sum
    at that place.  Returns the re-executions as a bitmask: bit [bi] is
    set iff entry [bi] read or wrote a key already written in [o].
    Folding every thread's region in priority order ({!tid_of_priority})
    into a freshly {!reset} overlay is the round's serial execution.
    Allocates nothing.  Raises [Invalid_argument] if the region claims
    more transactions than [sums] has slots or an int has bits. *)

val writes : overlay -> int -> int
(** Writes to key [k] folded since the last {!reset}. *)

val value : overlay -> int -> int
(** Key [k]'s value after the folded writes (meaningful iff
    [writes o k > 0]). *)

val is_last_writer : overlay -> int -> tid:int -> batch:int -> bool
(** Whether batch entry [batch] of thread [tid] wrote key [k] last. *)

(** {1 Reference} *)

type key_state = {
  final : int;  (** value after the round *)
  start : int;  (** round-start value *)
  nwrites : int;
  last_tid : int;
  last_batch : int;
}

val state : overlay -> int -> key_state option
(** Key [k]'s state in a folded overlay, [None] if no fold wrote it. *)

type serial = {
  sums : int list array;  (** per thread, batch order *)
  reexecs : bool list array;  (** per thread, batch order *)
  keys : (int * key_state) list;  (** every key written in the round, ascending *)
}

val serial : round:int -> nthreads:int -> Intent.txn_intent list array -> serial
(** The list-based reference of the streaming fold: [intents.(tid)] is
    thread [tid]'s round (batch order), executed serially in
    (priority, batch) order. *)
