(** FNV-1a 64-bit hashing.

    Used to build compact determinism witnesses: two executions are judged
    equal by comparing incremental hashes of their observable event streams
    and final memory images.  FNV-1a is stable across runs and platforms
    (unlike [Hashtbl.hash] on boxed values), which is what a witness
    requires. *)

type t = int64
(** Hash accumulator state. *)

val init : t
(** The FNV-1a offset basis. *)

val prime : t
(** The FNV-1a 64-bit prime: {!byte} is xor-then-multiply by it. *)

val byte : t -> int -> t
(** Fold one byte (low 8 bits of the int) into the state. *)

val bytes : t -> Bytes.t -> t
val string : t -> string -> t
val int : t -> int -> t
(** Folds the 8 little-endian bytes of the int. *)

val to_hex : t -> string
