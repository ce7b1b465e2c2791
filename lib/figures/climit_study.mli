(** Ad-hoc synchronization study (paper section 2.7).

    With commits only at synchronization operations, a thread spinning on
    a flag written by another thread never observes the store and
    livelocks.  Consequence's mitigation is a per-chunk instruction
    limit: a forced commit+update once a chunk exceeds it.  The paper
    notes that the limit is application-specific — some programs needed
    limits of a billion instructions to avoid slowdown — and runs the
    evaluation with the mechanism disabled.

    This study reproduces that trade-off: a flag-spinning program under a
    sweep of chunk limits (latency of observing the flag vs. forced-commit
    overhead), plus the overhead the limit imposes on a compute-bound
    program that never needed it. *)

type row = {
  limit : int option;
  spin_wall_ns : int option;  (** None = livelock detected *)
  forced_commits : int;
  compute_wall_ns : int;  (** the innocent bystander's wall time *)
}

val flag_spin : Api.t
(** The paper's T0/T1 example: a spinner reads a flag that a setter
    writes without synchronization.  Livelocks unless a chunk limit
    forces commits. *)

val limits : int option list
val measure : ?seed:int -> unit -> row list
val run : ?seed:int -> unit -> Fig_output.t
