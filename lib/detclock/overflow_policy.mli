(** Performance-counter overflow scheduling (paper section 3.2).

    A thread's published logical clock advances only when its performance
    counter is read — at chunk ends and at counter {e overflow} interrupts.
    The overflow interval trades sequential overhead (interrupt handling)
    against notification latency for threads waiting to become GMIC.
    Crucially it has {b no effect on determinism}, only on real time, which
    is why the runtime may adapt it freely.

    The adaptive policy implements the paper's three rules:
    + at the start of each chunk the interval resets to a conservative
      base ({!default_base} unless configured);
    + if some thread is waiting to become GMIC and we are ahead of
      nothing — i.e. we are the thread everyone waits for — the next
      overflow is placed exactly where our clock passes the next-lowest
      waiter's clock;
    + otherwise the interval doubles, up to a cap.

    A [Fixed] policy is provided for the Fig 13 ablation (adaptive
    overflows disabled).  A policy's kind and its base and cap are fixed
    at {!create}; the runtime takes them from its configuration (the
    paper's defaults, or a tuned profile's static point). *)

type kind =
  | Adaptive of { base : int; cap : int }
      (** doubling backoff is bounded by [cap]: the longest a waiter can
          go unnotified is one capped interval *)
  | Fixed of int
  | Scripted of int array
      (** forced boundaries for schedule replay (lib/replay): the
          ascending retired-instruction counts at which this thread's
          counter must overflow, exactly as a recorded run published
          them.  Boundaries already passed (a chunk-end counter read
          published at or beyond them) are skipped; once the script is
          exhausted the thread publishes only at sync ops.  Like the
          adaptive rules this affects real time only, never determinism —
          which is also why a {e perturbed} script is a legal schedule to
          explore.  Must be strictly ascending and positive. *)

type t

val default_base : int
(** 5,000 retired instructions, the paper's conservative base value. *)

val default_cap : int
(** 60,000 retired instructions: bounds rule-3 doubling so a thread
    waiting to become GMIC is notified within one capped interval, while
    keeping interrupt overhead negligible for compute-dominated chunks. *)

val create : kind -> t
val kind : t -> kind

val begin_chunk : t -> unit
(** Reset per-chunk state (rule 1). *)

val next_interval : ic:int -> t -> waiter_gap:int -> int
(** Instructions until the next overflow should fire.  [waiter_gap] is
    the distance to the next-lowest waiting thread's clock (from
    {!Logical_clock.next_waiting_gap}), when we are the GMIC and somebody
    waits on us: rule 2 targets the overflow exactly there.  A
    non-positive gap (0 = nobody relevant is waiting) applies rule 3
    (doubling).  [ic] is the calling thread's current retired-instruction
    count; only [Scripted] policies read it, to place the next overflow at
    the next recorded boundary.  (It is not optional: an optional argument
    would box it at every call.)  Always returns a value >= 1. *)

val overflows_scheduled : t -> int
(** Total intervals handed out; a proxy for interrupt overhead. *)
