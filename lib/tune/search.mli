(** Offline replay-driven auto-tuner.

    For one registry workload, evaluate static knob points
    ({!Profiles.params}) by their {e simulated} wall time — runs on the
    DES runtimes are pure functions of (program, config, seed), so every
    evaluation is exact and repeatable — and select the best of:

    - the untuned default (the identity point);
    - a hand grid of static points;
    - a deterministic steepest descent from the best grid point.  Each
      step evaluates six neighbours (the overflow base, the overflow cap
      and the coarsening setpoint, each doubled and halved) and moves to
      the fastest one if it is strictly faster than the current point.
      It stops when no neighbour improves, or after a constant bound of
      16 steps.

    The hand grid is a subset of the candidate set and its default point
    ties the untuned config exactly, so [wall_searched_ns <=
    wall_hand_best_ns <= wall_default_ns] holds by construction.

    The winner is then cross-checked: witness stability across seeds, a
    scripted record/replay checked event by event, and (full mode) a
    boundary-perturbation floor from {!Replay.Explore} showing how much
    of the win chunk placement alone could account for. *)

type t = {
  workload : string;
  base_runtime : string;  (** config name the search ran against *)
  nthreads : int;
  seed : int;
  wall_default_ns : int;
  hand_best_name : string;
  wall_hand_best_ns : int;
  wall_searched_ns : int;
  searched : Profiles.params;  (** the winning knob point *)
  searched_from : string;
      (** the hand-grid point the winner is, or ["descent"] when the
          descent moved *)
  evaluations : int;  (** simulated runs performed (memoized by params) *)
  boundary_floor_ns : int option;
      (** min wall over an {!Replay.Explore} neighborhood of the winner;
          [None] in quick mode or with checks disabled *)
  seed_stable : bool;  (** winner's witness identical at seeds 1 and 7 *)
  replay_checked : bool;
  replay_ok : bool;  (** scripted replay matched event-by-event *)
}

val hand_grid : (string * Profiles.params) list
(** The named static grid; its ["hand-default"] point is every preset's
    knob point, so it reproduces the untuned configuration bit-for-bit. *)

val search :
  ?cfg:Runtime.Config.t ->
  ?costs:Runtime.Cost_model.t ->
  ?nthreads:int ->
  ?seed:int ->
  ?quick:bool ->
  ?check:bool ->
  string ->
  t
(** [search name] tunes registry workload [name] against [cfg] (default
    {!Runtime.Config.consequence_ic}), [nthreads] (default 8), [seed]
    (default 1).  [quick] (default false) skips the exploration floor —
    the CI smoke setting; the search itself is the same.  [check]
    (default true) controls the winner cross-checks.
    Raises [Not_found] for an unknown workload. *)

val to_profile : t -> Profiles.t
(** The durable artifact for [tune/profiles/]. *)

val pp : Format.formatter -> t -> unit
