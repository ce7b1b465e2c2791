(** Deterministic ordered-OCC arbitration.

    The verdict for a round is a pure function of the intents every
    thread published at the round barrier — no schedule state, no
    clocks — so all threads compute identical verdicts locally, and the
    outcome (including abort counts) is byte-identical across every
    runtime and seed.  Commit order is (priority, batch index) with the
    priority rotating per round: the equivalent serial order of the
    whole run is (round, priority, batch index), and rotation bounds
    starvation — a retried transaction commits unconditionally once its
    thread reaches priority 0. *)

val priority_of : round:int -> nthreads:int -> int -> int
val tid_of_priority : round:int -> nthreads:int -> int -> int

val fold : round:int -> nthreads:int -> Intent.txn_intent list array -> bool array array
(** [fold ~round ~nthreads intents] maps [intents.(tid)] (batch order)
    to per-transaction verdicts, [true] = commit.  A transaction aborts
    iff its read or write set intersects an earlier-ordered committed
    transaction's write set.  The list-based reference implementation;
    the service runs {!fold_region}. *)

val fold_region : written:bool array -> Bytes.t -> int
(** [fold_region ~written region] is one step of {!fold} taken directly
    on an encoded intent region ({!Intent.encode}'s wire format, possibly
    followed by stale words, which are ignored): each transaction commits
    iff none of its read ranges or write keys is marked in [written]
    (indexed by key), and a committed transaction marks its write keys.
    Returns the region's verdicts as a bitmask, bit [bi] set iff batch
    entry [bi] commits.  Folding every thread's region in priority order
    ({!tid_of_priority}) over a [written] array that starts all-[false]
    yields exactly {!fold}'s verdicts.  Allocates nothing.  Raises
    [Invalid_argument] if the region claims more than [Sys.int_size]
    transactions (the bitmask would not fit). *)
