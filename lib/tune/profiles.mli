(** Per-workload tuned profiles: the auto-tuner's durable output.

    A profile pins one static knob point ({!params}) that the offline
    search selected for one workload, together with enough provenance
    (base runtime, thread count, seed, search source, before/after
    simulated wall time) to judge whether it still applies and to
    reproduce it exactly.  Profiles serialize to standalone JSON files
    (conventionally [tune/profiles/<workload>.tune.json]) and are loaded
    back by the CLI ([run --profile], [tune show]). *)

type params = {
  overflow_base : int;  (** [Runtime.Config.overflow_base] *)
  overflow_cap : int;  (** [Runtime.Config.overflow_cap] *)
  coarsen_initial : int;  (** [Runtime.Config.coarsen_max_initial] *)
  coarsen_floor : int;  (** [Runtime.Config.coarsen_max_floor] *)
  coarsen_cap : int;  (** [Runtime.Config.coarsen_max_cap] *)
}
(** The five numeric knobs of the adaptive overflow and coarsening
    policies, applied before the run starts. *)

val with_params : params -> Runtime.Config.t -> Runtime.Config.t
(** Set the five knobs; name and every other field are unchanged. *)

val validate : params -> (params, string) result
(** [Ok] iff [0 < overflow_base <= overflow_cap] and
    [0 < coarsen_floor <= coarsen_initial <= coarsen_cap]. *)

val pp_params : Format.formatter -> params -> unit

type t = {
  workload : string;
  runtime : string;  (** base config name the search tuned against *)
  nthreads : int;
  seed : int;
  source : string;  (** winning candidate, e.g. ["descent"], ["hand-default"] *)
  params : params;
  wall_default_ns : int;  (** untuned simulated wall time at search time *)
  wall_tuned_ns : int;  (** tuned simulated wall time at search time *)
}

val apply : t -> Runtime.Config.t -> Runtime.Config.t
(** {!with_params} with the profile's knobs, and ["-tuned"] appended to
    the config name. *)

val filename : t -> string
(** Conventional basename: [<workload>.tune.json]. *)

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> (t, string) result
(** Inverse of {!to_json}.  Besides the field types it checks the
    values: {!validate} on the knobs, [nthreads >= 1], [seed >= 1] and
    positive wall times.  Never raises. *)

val save : t -> string -> unit

val load : string -> (t, string) result
(** Read and {!of_json} a file; I/O and parse errors are [Error]. *)

val load_for : workload:string -> string -> (t, string) result
(** {!load}, and [Error] naming both workloads when the profile was
    tuned for a workload other than [workload]. *)

val pp : Format.formatter -> t -> unit
