(** Wire format of the per-thread, per-round intent records that the
    validation fold consumes: the published read ranges (with their TL2
    read-set version stamps) and write keys of every update transaction
    attempted this round. *)

type read_entry = { key : int; len : int; ver : int }
type txn_intent = { seq : int; reads : read_entry list; writes : int list }

val words_for : txn_intent list -> int
val encode : txn_intent list -> Bytes.t
val decode : Bytes.t -> txn_intent list
(** [decode] parses a full intent region image; counts drive parsing, so
    bytes beyond the encoded round are ignored. *)

(** {2 In-place cursor}

    For walking an encoded region without decoding it; {!decode} walks
    it the same way, so the wire layout lives only in this module.  A
    transaction is addressed by the word index of its header: the first
    is at [first_txn], its read entries occupy words
    [[reads_at txn, writes_at buf txn)], its write keys
    [[writes_at buf txn, next_txn buf txn)], and the next transaction
    starts at [next_txn buf txn]. *)

val word : Bytes.t -> int -> int
(** [word buf i] is the [i]-th 8-byte word of a region image. *)

val txn_count : Bytes.t -> int
(** Number of transactions encoded in a region image. *)

val first_txn : int
val reads_at : int -> int
val writes_at : Bytes.t -> int -> int
val next_txn : Bytes.t -> int -> int

val read_key : int -> int
(** First key of a read entry word's range. *)

val read_len : int -> int
(** Length of a read entry word's key range. *)
