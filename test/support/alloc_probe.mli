(** Allocation probes for the zero-allocation tests.

    Each probe runs its function once and reads [Gc.minor_words] around
    it.  Warm the function up first (first calls may grow tables), and
    compare against {!words_beyond_probe} so the probe's own boxed
    float does not count. *)

val minor_words_during : (unit -> unit) -> float
(** Minor-heap words allocated while [f ()] ran, including the probe's
    own reading of the counter. *)

val words_beyond_probe : (unit -> unit) -> float
(** [minor_words_during f] less [minor_words_during ignore]: the words
    [f] itself allocated. *)
