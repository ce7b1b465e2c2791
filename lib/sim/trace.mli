(** Append-only event trace, kept as streaming hashes.

    Runtimes record their externally observable events here (sync-operation
    order, logged output).  A trace retains only a count and two FNV-1a
    digests, so it is O(1) in memory and [record] allocates nothing; a
    caller that wants the events themselves collects them as they are
    recorded (see [Runtime.Run.schedule]). *)

type t

val create : unit -> t

val record : t -> time:int -> tid:int -> label:string -> unit
(** Folds [tid] then [label] into {!hash}, and [time], [tid], [label] into
    {!timed_hash} (each int as its 8 little-endian bytes, as {!Fnv.int}).
    Allocates nothing. *)

val record_int : t -> time:int -> tid:int -> label:string -> int -> unit
(** [record_int t ~time ~tid ~label n] is
    [record t ~time ~tid ~label:(label ^ string_of_int n)], digest for
    digest, without building the string.  Allocates nothing. *)

val length : t -> int
(** Number of events recorded. *)

val hash : t -> string
(** Hex digest over (tid, label) pairs in order.  Timestamps are excluded:
    determinism concerns the order and content of events, not wall-clock
    performance, which legitimately varies (paper section 3). *)

val timed_hash : t -> string
(** Hex digest that also folds timestamps in; equal [timed_hash]es mean two
    runs were cycle-identical, which is expected only for equal seeds. *)
