(* The deterministic transactional KV service: per-thread request
   batching over a round-structured ordered protocol in which every
   update commits in the round it was submitted.

   Each round has two phases separated by barriers:

   - Phase A (concurrent, isolated): every server thread executes its
     batch against the round-start snapshot.  Update transactions read
     their read set and the round-start value and version of every key
     they write, and buffer nothing in shared memory; snapshot
     transactions pin the thread's base version and are served
     copy-free from the segment's version histories, completing within
     phase A.  The thread then publishes, per update, its read sum, read
     ranges and the round-start value and version of each written key
     into its own page-aligned intent region ({!Intent}), writing only
     the words the round uses.

   - Phase B (after the intent barrier): every thread executes the
     round's updates serially in (priority, batch) order — the commit
     order fixed by the round structure of the deterministic logical
     clock.  It streams the regions in priority order: each peer's
     region is read into the worker's one scratch buffer
     ({!Api.ops.read_into}, charged like a full-region read) and folded
     at once into the worker's overlay of the round's writes
     ({!Validate.fold_region}); its own region is folded from the bytes
     it just published.  A transaction that touches a key written
     earlier in the order is re-executed there instead of aborting, so
     every update commits this round.  Phase B reads no store word (on
     pthreads, peers' phase-B writes are visible at once) and allocates
     nothing in the fold.  Each thread then completes its own updates,
     charging validation for each and a phase-A execution's work for
     each re-execution, and writes the final value and version (round
     start + writes this round) of every key whose last writer in the
     round is one of its own transactions — exactly one thread writes
     each key, so the runtimes' byte-merge never has to order writes.

   Because the fold is a pure function of the published intents,
   transaction outcomes and re-execution counts are byte-identical on
   every runtime — the four deterministic libraries, the pipelined
   commit variant, real OCaml 5 domains, and even the nondeterministic
   pthreads baseline — and across seeds.  Only wall_ns and the latency
   histograms move with the schedule. *)

module A = Api

let b1 : A.barrier = 1
let b2 : A.barrier = 2
let batch = 4
let default_requests = 24
let checksum_mask = (1 lsl 61) - 1
let mix chk v seq = ((chk * 131) + v + seq) land checksum_mask

(* Completion records for the serializability oracle (tests only; the
   registry workloads use a no-op recorder and share no mutable state). *)
type record_ = {
  rc_tid : int;
  rc_txn : Txn.t;
  rc_round : int;
  rc_batch : int;
  rc_retries : int;
  rc_read_sum : int;
}

type recorder = record_ -> unit

type outcome = {
  oc_nthreads : int;
  oc_requests : int;
  oc_final : int array;
  oc_vers : int array;
  oc_checksums : int array;
  oc_commits : int array;
  oc_reexecs : int array;
  oc_records : record_ list;
}

let split_batch n l =
  let rec go acc n l =
    match (n, l) with 0, _ | _, [] -> (List.rev acc, l) | n, x :: rest -> go (x :: acc) (n - 1) rest
  in
  go [] n l

let no_txn = { Txn.seq = 0; kind = Txn.Update; reads = []; writes = [] }

let worker ~shape ~nthreads ~requests ~(record : recorder) id (ops : A.ops) =
  let queue = ref (Traffic.gen shape ~tid:id ~requests) in
  let checksum = ref 0 and commits = ref 0 and reexecs = ref 0 and remaining = ref requests in
  (* Phase-B state, private to this worker and allocated once: the
     overlay of the round's writes, the one buffer every peer region is
     read into, and per intent slot the update, its submission time and
     its read sum at its place in the commit order. *)
  let overlay = Validate.overlay () in
  let scratch = Bytes.create Layout.intent_bytes in
  let updates = Array.make batch no_txn and submitted = Array.make batch 0 in
  let sums = Array.make batch 0 and peer_sums = Array.make batch 0 in
  let read_val k = ops.A.read_int ~addr:(Layout.value_addr k) in
  let read_ver k = ops.A.read_int ~addr:(Layout.ver_addr k) in
  let all_done () =
    let rem = ref 0 in
    for t = 0 to nthreads - 1 do
      rem := !rem + ops.A.read_int ~addr:(Layout.remaining_addr t)
    done;
    !rem = 0
  in
  let complete ~txn ~round ~batch_idx ~read_sum ~submit_ns =
    checksum := mix !checksum read_sum txn.Txn.seq;
    decr remaining;
    ops.A.metric_observe "kv:req_ns" (max 0 (ops.A.now_ns () - submit_ns));
    record
      {
        rc_tid = id;
        rc_txn = txn;
        rc_round = round;
        rc_batch = batch_idx;
        rc_retries = 0;
        rc_read_sum = read_sum;
      }
  in
  let rec round_loop round =
    if not (all_done ()) then begin
      (* ---- phase A ---- *)
      let this_batch, rest = split_batch batch !queue in
      queue := rest;
      let intents = ref [] and nupdates = ref 0 in
      List.iteri
        (fun pos t ->
          let submit_ns = ops.A.now_ns () in
          ops.A.work (20 + (5 * Txn.entries t));
          match t.Txn.kind with
          | Txn.Snapshot ->
              let pin = ops.A.base_version () in
              let sum = ref 0 in
              List.iter
                (fun (k, len) ->
                  let b =
                    ops.A.snapshot_read ~version:pin ~addr:(Layout.value_addr k)
                      ~len:(len * Layout.key_bytes)
                  in
                  for i = 0 to len - 1 do
                    sum := !sum + Int64.to_int (Bytes.get_int64_le b (i * Layout.key_bytes))
                  done)
                t.Txn.reads;
              ops.A.metric_incr "kv:snapshots" 1;
              complete ~txn:t ~round ~batch_idx:pos ~read_sum:!sum ~submit_ns
          | Txn.Update ->
              let sum = ref 0 in
              List.iter
                (fun (k, len) ->
                  for i = k to k + len - 1 do
                    sum := !sum + read_val i
                  done)
                t.Txn.reads;
              let writes =
                List.map
                  (fun k ->
                    let start = read_val k in
                    { Intent.key = k; start; start_ver = read_ver k })
                  t.Txn.writes
              in
              intents :=
                { Intent.seq = t.Txn.seq; read_sum = !sum; reads = t.Txn.reads; writes }
                :: !intents;
              updates.(!nupdates) <- t;
              submitted.(!nupdates) <- submit_ns;
              incr nupdates)
        this_batch;
      let published = Intent.encode (List.rev !intents) in
      ops.A.write ~addr:(Layout.intent_addr id) published;
      ops.A.barrier_wait b1;
      (* ---- phase B ---- *)
      Validate.reset overlay;
      let reexec_mask = ref 0 in
      for p = 0 to nthreads - 1 do
        let t = Validate.tid_of_priority ~round ~nthreads p in
        if t = id then reexec_mask := Validate.fold_region overlay ~tid:id ~sums published
        else begin
          ops.A.read_into ~addr:(Layout.intent_addr t) scratch;
          ignore (Validate.fold_region overlay ~tid:t ~sums:peer_sums scratch)
        end
      done;
      let txn = ref Intent.first_txn in
      for bi = 0 to !nupdates - 1 do
        let t = updates.(bi) in
        ops.A.txn_validate ~keys:(Txn.entries t);
        if !reexec_mask land (1 lsl bi) <> 0 then begin
          ops.A.work (20 + (5 * Txn.entries t));
          incr reexecs;
          ops.A.metric_incr "kv:reexecs" 1
        end;
        let stop = Intent.next_txn published !txn in
        let w = ref (Intent.writes_at published !txn) in
        while !w < stop do
          let k = Intent.word published !w in
          if Validate.is_last_writer overlay k ~tid:id ~batch:bi then begin
            ops.A.write_int ~addr:(Layout.value_addr k) (Validate.value overlay k);
            ops.A.write_int ~addr:(Layout.ver_addr k)
              (Intent.word published (!w + 2) + Validate.writes overlay k)
          end;
          w := !w + Intent.write_words
        done;
        txn := stop;
        incr commits;
        ops.A.metric_incr "kv:commits" 1;
        complete ~txn:t ~round ~batch_idx:bi ~read_sum:sums.(bi) ~submit_ns:submitted.(bi)
      done;
      ops.A.write_int ~addr:(Layout.remaining_addr id) !remaining;
      ops.A.write_int ~addr:(Layout.checksum_addr id) !checksum;
      ops.A.write_int ~addr:(Layout.commits_addr id) !commits;
      ops.A.write_int ~addr:(Layout.reexecs_addr id) !reexecs;
      ops.A.barrier_wait b2;
      round_loop (round + 1)
    end
  in
  round_loop 0

(* Digest of the full key space (values and version words); logged by
   main after the join, so it is part of the output witness. *)
let store_digest (ops : A.ops) =
  let h = ref 0 in
  for k = 0 to Layout.n_keys - 1 do
    h := mix !h (ops.A.read_int ~addr:(Layout.value_addr k)) 0;
    h := mix !h (ops.A.read_int ~addr:(Layout.ver_addr k)) 0
  done;
  !h

let main ~shape ~requests ~(record : recorder) ~(finish : A.ops -> int -> unit) ~nthreads
    (ops : A.ops) =
  (* The status and intent regions have [Layout.max_threads] slots; the
     programs below declare that limit, so runners refuse a larger count
     before the run starts. *)
  if nthreads < 1 || nthreads > Layout.max_threads then
    invalid_arg
      (Printf.sprintf "Kv.Service.main: %d threads outside 1..Layout.max_threads (%d)" nthreads
         Layout.max_threads);
  for k = 0 to Layout.n_keys - 1 do
    ops.A.write_int ~addr:(Layout.value_addr k) (Layout.initial_value k)
  done;
  for t = 0 to nthreads - 1 do
    ops.A.write_int ~addr:(Layout.remaining_addr t) requests
  done;
  ops.A.barrier_init b1 nthreads;
  ops.A.barrier_init b2 nthreads;
  let workers =
    List.init nthreads (fun id ->
        ops.A.spawn
          ~name:(Printf.sprintf "kv%d" id)
          (fun wops -> worker ~shape ~nthreads ~requests ~record id wops))
  in
  List.iter ops.A.join workers;
  (* Deterministic service summary: store digest, then per-thread
     checksums and commit/re-execution counts in thread order, then
     totals.  All of it flows into the output-trace witness, so the
     re-execution counts themselves are witness-checked. *)
  ops.A.log_output (Printf.sprintf "kv:%s store=%d" (Traffic.name shape) (store_digest ops));
  let tc = ref 0 and tr = ref 0 in
  for t = 0 to nthreads - 1 do
    let c = ops.A.read_int ~addr:(Layout.commits_addr t)
    and r = ops.A.read_int ~addr:(Layout.reexecs_addr t)
    and chk = ops.A.read_int ~addr:(Layout.checksum_addr t) in
    tc := !tc + c;
    tr := !tr + r;
    ops.A.log_output (Printf.sprintf "kv:t%d chk=%d commits=%d reexecs=%d" t chk c r)
  done;
  ops.A.log_output (Printf.sprintf "kv:total commits=%d reexecs=%d" !tc !tr);
  finish ops nthreads

let no_record : recorder = fun _ -> ()
let no_finish _ _ = ()

let workload ?(requests = default_requests) shape =
  Api.make ~name:(Traffic.name shape)
    ~description:("transactional KV service, " ^ Traffic.description shape)
    ~default_threads:4 ~heap_pages:Layout.heap_pages ~page_size:Layout.page_size
    ~max_threads:Layout.max_threads
    (fun ~nthreads ops -> main ~shape ~requests ~record:no_record ~finish:no_finish ~nthreads ops)

(* A capturing variant for the test suite: same protocol, plus an
   in-process recorder whose state is reset at the start of every run
   (so the returned program may be re-run) and an outcome snapshot taken
   by the main thread after the join.  Workers write disjoint slots and
   are joined before the slots are read, so the capture is well ordered
   on every backend, including real domains. *)
let probe ?(requests = default_requests) shape =
  let slots = Array.make Layout.max_threads [] in
  let last = ref None in
  let record r = slots.(r.rc_tid) <- r :: slots.(r.rc_tid) in
  let finish (ops : A.ops) nthreads =
    let final = Array.init Layout.n_keys (fun k -> ops.A.read_int ~addr:(Layout.value_addr k)) in
    let vers = Array.init Layout.n_keys (fun k -> ops.A.read_int ~addr:(Layout.ver_addr k)) in
    let per addr = Array.init nthreads (fun t -> ops.A.read_int ~addr:(addr t)) in
    last :=
      Some
        {
          oc_nthreads = nthreads;
          oc_requests = requests;
          oc_final = final;
          oc_vers = vers;
          oc_checksums = per Layout.checksum_addr;
          oc_commits = per Layout.commits_addr;
          oc_reexecs = per Layout.reexecs_addr;
          oc_records = List.concat_map (fun t -> List.rev slots.(t)) (List.init nthreads Fun.id);
        }
  in
  let program =
    Api.make
      ~name:(Traffic.name shape ^ "_probe")
      ~description:"capturing kv service probe" ~default_threads:4 ~heap_pages:Layout.heap_pages
      ~page_size:Layout.page_size ~max_threads:Layout.max_threads
      (fun ~nthreads ops ->
        Array.fill slots 0 (Array.length slots) [];
        last := None;
        main ~shape ~requests ~record ~finish ~nthreads ops)
  in
  let outcome () =
    match !last with
    | Some o -> o
    | None -> invalid_arg "Kv.Service.probe: program has not completed a run"
  in
  (program, outcome)
