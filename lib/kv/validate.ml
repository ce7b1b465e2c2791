(* The ordered-OCC arbitration every thread runs in phase B: given the
   intents all threads published for a round, decide commit/abort for
   every transaction.

   Commit order within a round is (priority, batch index), where a
   thread's priority rotates with the round number — so no thread is
   structurally favoured, and a starving request commits unconditionally
   as soon as its thread reaches priority 0 (its first transaction then
   has an empty committed prefix).  A transaction aborts iff its read or
   write set intersects the write set of an earlier-ordered committed
   transaction of the round: committed transactions therefore read only
   round-start state, which makes the concurrent execution equivalent to
   the serial execution in commit order (strict serializability), and
   makes the verdict a pure function of the published intents — the same
   on every runtime, schedule, and seed. *)

let priority_of ~round ~nthreads tid = (tid + round) mod nthreads

let tid_of_priority ~round ~nthreads p =
  let t = (p - round) mod nthreads in
  if t < 0 then t + nthreads else t

(* [fold ~round ~nthreads intents] where [intents.(tid)] is that
   thread's decoded round intents; returns [verdicts.(tid)] as a bool
   array per thread, batch order, [true] = commit. *)
let fold ~round ~nthreads (intents : Intent.txn_intent list array) =
  let written = Array.make Layout.n_keys false in
  let verdicts = Array.map (fun l -> Array.make (List.length l) false) intents in
  for p = 0 to nthreads - 1 do
    let tid = tid_of_priority ~round ~nthreads p in
    List.iteri
      (fun bi (t : Intent.txn_intent) ->
        let conflict =
          List.exists
            (fun (r : Intent.read_entry) ->
              let hit = ref false in
              for k = r.key to r.key + r.len - 1 do
                if written.(k) then hit := true
              done;
              !hit)
            t.reads
          || List.exists (fun k -> written.(k)) t.writes
        in
        if not conflict then begin
          List.iter (fun k -> written.(k) <- true) t.writes;
          verdicts.(tid).(bi) <- true
        end)
      intents.(tid)
  done;
  verdicts

(* The streaming form of [fold] that the service runs: the same marking,
   but straight off one encoded region with no decode and no allocation,
   so a worker can fold each peer's region as soon as it has read it
   into its single scratch buffer.  It walks the region with [Intent]'s
   cursor, as [Intent.decode] does; counts drive the walk, so stale tail
   words from a longer earlier round are never looked at. *)
let fold_region ~written region =
  let ntxns = Intent.txn_count region in
  if ntxns > Sys.int_size then invalid_arg "Validate.fold_region: too many transactions";
  let txn = ref Intent.first_txn and verdicts = ref 0 in
  for bi = 0 to ntxns - 1 do
    let reads = Intent.reads_at !txn and writes = Intent.writes_at region !txn in
    let stop = Intent.next_txn region !txn in
    txn := stop;
    let conflict = ref false in
    for i = reads to writes - 1 do
      let e = Intent.word region i in
      let key = Intent.read_key e in
      for k = key to key + Intent.read_len e - 1 do
        if written.(k) then conflict := true
      done
    done;
    for i = writes to stop - 1 do
      if written.(Intent.word region i) then conflict := true
    done;
    if not !conflict then begin
      for i = writes to stop - 1 do
        written.(Intent.word region i) <- true
      done;
      verdicts := !verdicts lor (1 lsl bi)
    end
  done;
  !verdicts
