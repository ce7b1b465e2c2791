(* The ordered arbitration every thread runs in phase B: given the
   intents all threads published for a round, execute the round's
   update transactions serially in its commit order.

   Commit order within a round is (priority, batch index), where a
   thread's priority rotates with the round number, so no thread is
   structurally favoured.  Phase A executed every transaction against
   the round-start snapshot; one whose read or write set touches a key
   written earlier in the commit order is re-executed here, at its
   place: the read sum is corrected by the overlay-minus-round-start
   delta of each touched read key, and the new values are recomputed
   from the overlay with [Txn.new_value].  One re-execution is always
   enough, because a transaction's key sets are declared up front and
   its written values depend only on what it reads.  Nothing aborts, so
   the concurrent execution equals the serial execution in commit order
   (strict serializability), and the result is a pure function of the
   published intents — the same on every runtime, schedule, and seed. *)

let priority_of ~round ~nthreads tid = (tid + round) mod nthreads

let tid_of_priority ~round ~nthreads p =
  let t = (p - round) mod nthreads in
  if t < 0 then t + nthreads else t

(* Per key, indexed by key: only [nwrites] is reset between rounds; the
   other arrays are (re)initialised by a key's first write of a round. *)
type overlay = {
  value : int array;
  start : int array;
  nwrites : int array;
  last_tid : int array;
  last_batch : int array;
}

let overlay () =
  let keys () = Array.make Layout.n_keys 0 in
  { value = keys (); start = keys (); nwrites = keys (); last_tid = keys (); last_batch = keys () }

let reset o = Array.fill o.nwrites 0 Layout.n_keys 0

(* Straight off one encoded region with [Intent]'s cursor — no decode,
   no allocation — so a worker can fold each peer's region as soon as it
   has read it into its single scratch buffer.  Counts drive the walk,
   so stale tail words from a longer earlier round are never looked at. *)
let fold_region o ~tid ~sums region =
  let ntxns = Intent.txn_count region in
  if ntxns > Array.length sums || ntxns > Sys.int_size then
    invalid_arg "Validate.fold_region: too many transactions";
  let txn = ref Intent.first_txn and reexecs = ref 0 in
  for bi = 0 to ntxns - 1 do
    let t = !txn in
    let reads = Intent.reads_at t and writes = Intent.writes_at region t in
    let stop = Intent.next_txn region t in
    txn := stop;
    let sum = ref (Intent.read_sum region t) and touched = ref false in
    for i = reads to writes - 1 do
      let e = Intent.word region i in
      let key = Intent.read_key e in
      for k = key to key + Intent.read_len e - 1 do
        if o.nwrites.(k) > 0 then begin
          touched := true;
          sum := !sum + o.value.(k) - o.start.(k)
        end
      done
    done;
    let seq = Intent.seq region t in
    let nth = ref 0 and w = ref writes in
    while !w < stop do
      let k = Intent.word region !w in
      let old =
        if o.nwrites.(k) > 0 then begin
          touched := true;
          o.value.(k)
        end
        else begin
          let start = Intent.word region (!w + 1) in
          o.start.(k) <- start;
          start
        end
      in
      o.value.(k) <- Txn.new_value ~old ~read_sum:!sum ~seq ~nth:!nth;
      o.nwrites.(k) <- o.nwrites.(k) + 1;
      o.last_tid.(k) <- tid;
      o.last_batch.(k) <- bi;
      incr nth;
      w := !w + Intent.write_words
    done;
    sums.(bi) <- !sum;
    if !touched then reexecs := !reexecs lor (1 lsl bi)
  done;
  !reexecs

let writes o k = o.nwrites.(k)
let value o k = o.value.(k)
let is_last_writer o k ~tid ~batch = o.last_tid.(k) = tid && o.last_batch.(k) = batch

type key_state = { final : int; start : int; nwrites : int; last_tid : int; last_batch : int }

let state (o : overlay) k =
  if o.nwrites.(k) = 0 then None
  else
    Some
      {
        final = o.value.(k);
        start = o.start.(k);
        nwrites = o.nwrites.(k);
        last_tid = o.last_tid.(k);
        last_batch = o.last_batch.(k);
      }

type serial = {
  sums : int list array;
  reexecs : bool list array;
  keys : (int * key_state) list;
}

module Keys = Map.Make (Int)

(* The reference: the same serial execution over decoded lists and an
   immutable map of the round's written keys. *)
let serial ~round ~nthreads (intents : Intent.txn_intent list array) =
  let keys = ref Keys.empty in
  let sums = Array.make (Array.length intents) [] in
  let reexecs = Array.make (Array.length intents) [] in
  for p = 0 to nthreads - 1 do
    let tid = tid_of_priority ~round ~nthreads p in
    let results =
      List.mapi
        (fun bi (t : Intent.txn_intent) ->
          let read_keys = List.concat_map (fun (k, len) -> List.init len (( + ) k)) t.reads in
          let written k = Keys.mem k !keys in
          let sum =
            List.fold_left
              (fun acc k ->
                match Keys.find_opt k !keys with Some s -> acc + s.final - s.start | None -> acc)
              t.read_sum read_keys
          in
          let reexec =
            List.exists written read_keys
            || List.exists (fun (w : Intent.write_entry) -> written w.key) t.writes
          in
          List.iteri
            (fun nth (w : Intent.write_entry) ->
              let old, start, nwrites =
                match Keys.find_opt w.key !keys with
                | Some s -> (s.final, s.start, s.nwrites)
                | None -> (w.start, w.start, 0)
              in
              keys :=
                Keys.add w.key
                  {
                    final = Txn.new_value ~old ~read_sum:sum ~seq:t.seq ~nth;
                    start;
                    nwrites = nwrites + 1;
                    last_tid = tid;
                    last_batch = bi;
                  }
                  !keys)
            t.writes;
          (sum, reexec))
        intents.(tid)
    in
    sums.(tid) <- List.map fst results;
    reexecs.(tid) <- List.map snd results
  done;
  { sums; reexecs; keys = Keys.bindings !keys }
