(* Wire format of a thread's published round intents (its region from
   {!Layout.intent_addr}), one 8-byte little-endian word per entry:

     word 0            ntxns in this round
     per transaction:  header  = seq*2^16 + nreads*2^8 + nwrites
                       read i  = ver*2^16 + key*2^8 + len   (ver mod 2^16)
                       write i = key

   Counts drive parsing, so stale words from earlier (longer) rounds are
   ignored.  The recorded read versions are the TL2 read-set stamps; the
   validation fold never needs to re-read them from memory because a
   version word can only have been bumped this round by an
   earlier-ordered committed write — which is exactly the write-set
   marking {!Validate.fold_region} performs. *)

type read_entry = { key : int; len : int; ver : int }
type txn_intent = { seq : int; reads : read_entry list; writes : int list }

let words_for txns =
  1 + List.fold_left (fun acc (t : txn_intent) -> acc + 1 + List.length t.reads + List.length t.writes) 0 txns

let encode txns =
  let nwords = words_for txns in
  let buf = Bytes.create (nwords * 8) in
  let pos = ref 0 in
  let put v =
    Bytes.set_int64_le buf (!pos * 8) (Int64.of_int v);
    incr pos
  in
  put (List.length txns);
  List.iter
    (fun t ->
      let nr = List.length t.reads and nw = List.length t.writes in
      put ((t.seq * 65536) + (nr * 256) + nw);
      List.iter (fun r -> put (((r.ver land 0xFFFF) * 65536) + (r.key * 256) + r.len)) t.reads;
      List.iter put t.writes)
    txns;
  buf

let word buf i = Int64.to_int (Bytes.get_int64_le buf (i * 8))
let txn_count buf = word buf 0
let first_txn = 1
let reads_at txn = txn + 1
let writes_at buf txn = reads_at txn + (word buf txn / 256 mod 256)
let next_txn buf txn = writes_at buf txn + (word buf txn mod 256)
let read_key e = e / 256 mod 256
let read_len e = e mod 256

let decode buf =
  let txn = ref first_txn in
  List.init (txn_count buf) (fun _ ->
      let t = !txn in
      let reads = reads_at t and writes = writes_at buf t in
      txn := next_txn buf t;
      { seq = word buf t / 65536;
        reads =
          List.init (writes - reads) (fun i ->
              let e = word buf (reads + i) in
              { ver = e / 65536; key = read_key e; len = read_len e });
        writes = List.init (!txn - writes) (fun i -> word buf (writes + i)) })
