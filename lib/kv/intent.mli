(** Wire format of the per-thread, per-round intent records that the
    phase-B fold consumes: for every update transaction a thread
    executed this round, its read sum over the round-start snapshot, its
    read ranges, and the round-start value and version of each key it
    writes — everything the fold needs to re-execute it at its place in
    the round's commit order without reading the store. *)

type write_entry = {
  key : int;
  start : int;  (** the key's round-start value *)
  start_ver : int;  (** the key's round-start version word *)
}

type txn_intent = {
  seq : int;
  read_sum : int;  (** sum over the read set, against the round-start snapshot *)
  reads : (int * int) list;  (** (first_key, length) ranges *)
  writes : write_entry list;
}

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
    [[reads_at txn, writes_at buf txn)], its write entries (each
    [write_words] words: key, round-start value, round-start version)
    [[writes_at buf txn, next_txn buf txn)], and the next transaction
    starts at [next_txn buf txn]. *)

val word : Bytes.t -> int -> int
(** [word buf i] is the [i]-th 8-byte word of a region image. *)

val txn_count : Bytes.t -> int
(** Number of transactions encoded in a region image. *)

val first_txn : int
val seq : Bytes.t -> int -> int
val read_sum : Bytes.t -> int -> int
val reads_at : int -> int
val writes_at : Bytes.t -> int -> int
val next_txn : Bytes.t -> int -> int

val write_words : int
(** Words per write entry: the write entry at word [w] has its key at
    [w], its round-start value at [w + 1] and its round-start version at
    [w + 2]. *)

val read_key : int -> int
(** First key of a read entry word's range. *)

val read_len : int -> int
(** Length of a read entry word's key range. *)
