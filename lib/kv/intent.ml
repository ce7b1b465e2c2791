(* Wire format of a thread's published round intents (its region from
   {!Layout.intent_addr}), one 8-byte little-endian word per entry:

     word 0            ntxns in this round
     per transaction:  header   = seq*2^16 + nreads*2^8 + nwrites
                       read_sum   (over the round-start snapshot)
                       read i   = key*2^16 + len
                       write i  = key, round-start value, round-start version

   Counts drive parsing, so stale words from earlier (longer) rounds are
   ignored.  A region carries everything phase B needs to re-execute
   its transactions at their place in the round's commit order: the
   read sum is corrected by the round's earlier writes to the read
   ranges, and the new values follow from {!Txn.new_value} — so phase B
   never reads a store word. *)

type write_entry = { key : int; start : int; start_ver : int }
type txn_intent = { seq : int; read_sum : int; reads : (int * int) list; writes : write_entry list }

let write_words = 3

let words_for txns =
  1
  + List.fold_left
      (fun acc (t : txn_intent) ->
        acc + 2 + List.length t.reads + (write_words * List.length t.writes))
      0 txns

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
      put t.read_sum;
      List.iter (fun (key, len) -> put ((key * 65536) + len)) t.reads;
      List.iter
        (fun w ->
          put w.key;
          put w.start;
          put w.start_ver)
        t.writes)
    txns;
  buf

let word buf i = Int64.to_int (Bytes.get_int64_le buf (i * 8))
let txn_count buf = word buf 0
let first_txn = 1
let seq buf txn = word buf txn / 65536
let read_sum buf txn = word buf (txn + 1)
let reads_at txn = txn + 2
let writes_at buf txn = reads_at txn + (word buf txn / 256 mod 256)
let next_txn buf txn = writes_at buf txn + (write_words * (word buf txn mod 256))
let read_key e = e / 65536
let read_len e = e mod 65536

let decode buf =
  let txn = ref first_txn in
  List.init (txn_count buf) (fun _ ->
      let t = !txn in
      let reads = reads_at t and writes = writes_at buf t in
      txn := next_txn buf t;
      {
        seq = seq buf t;
        read_sum = read_sum buf t;
        reads =
          List.init (writes - reads) (fun i ->
              let e = word buf (reads + i) in
              (read_key e, read_len e));
        writes =
          List.init
            ((!txn - writes) / write_words)
            (fun i ->
              let w = writes + (write_words * i) in
              { key = word buf w; start = word buf (w + 1); start_ver = word buf (w + 2) });
      })
