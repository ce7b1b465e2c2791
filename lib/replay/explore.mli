(** Bounded schedule exploration (DPOR-lite) over a recorded log.

    The paper's central claim is that chunk-boundary placement — where
    performance-counter overflows publish a thread's logical clock — is
    a pure {e real-time} decision: any placement yields the same
    deterministic execution, because token order derives from the
    program's own sync ops, and publication timing only changes how long
    waiters wait.  That makes every perturbation of a recorded boundary
    schedule a {e legal} schedule, and the space of perturbations an
    exploration space with a strong expected invariant.

    The explorer perturbs a recorded log's per-thread boundary arrays —
    splitting a boundary gap in two, merging a boundary away, shifting
    one within its gap — replays each variant scripted, and cross-checks:

    - the final witnesses ([mem|sync|out] hashes) must be {b identical}
      across the whole neighborhood: a variant that disagrees is a
      determinism bug localized to a specific boundary edit;
    - the {!Race} detector's conflict verdicts must be stable: merge
      conflicts and their racy/sync-ordered classification derive from
      commit content, not boundary placement;
    - the simulated wall times and interrupt counts {e should} differ —
      the evidence that the variants genuinely ran different schedules
      rather than collapsing back to the recording. *)

type variant = {
  description : string;  (** the boundary edit, e.g. ["t2: shift boundary 3 ..."] *)
  wall_ns : int;
  overflow_interrupts : int;
  witness : string;  (** [mem:..|sync:..|out:..] of the variant run *)
  racy : int;  (** racy conflict verdicts from the race detector *)
  sync_ordered : int;
}

type report = {
  base : variant;  (** the unperturbed scripted replay *)
  variants : variant list;
  distinct_timings : int;
      (** distinct [(wall_ns, overflow_interrupts)] pairs including the
          base: > 1 proves the explorer exercised genuinely different
          schedules *)
  distinct_witnesses : int;  (** including the base; 1 iff deterministic *)
  conflicts_stable : bool;  (** racy/sync-ordered counts equal across all runs *)
  deterministic : bool;  (** [distinct_witnesses = 1] *)
}

val explore :
  ?costs:Runtime.Cost_model.t ->
  ?config:Runtime.Config.t ->
  ?variants:int ->
  ?seed:int ->
  Schedule.t ->
  Api.t ->
  report
(** Generate up to [variants] (default 12) perturbed schedules with a
    PRNG seeded by [seed] (default 7; exploration itself is
    deterministic), replay each, and cross-check.  [config] overrides
    the preset lookup on the log's runtime name — the hook the offline
    auto-tuner ([Tune.Search]) uses to explore logs recorded at a
    tuned knob point, which keeps its preset's name.  Raises
    [Invalid_argument] for a [pthreads] log — its schedule is pinned by
    the seed alone and has no boundaries to perturb. *)

val to_json : report -> Obs.Json.t
val pp_report : Format.formatter -> report -> unit
