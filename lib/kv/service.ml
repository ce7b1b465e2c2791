(* The deterministic transactional KV service: per-thread request
   batching over a round-structured ordered-OCC protocol.

   Each round has two phases separated by barriers:

   - Phase A (concurrent, isolated): every server thread executes its
     batch — retries first — against the round-start snapshot.  Update
     transactions read values and version stamps through the workspace
     and buffer their writes locally (nothing uncommitted ever reaches
     shared memory); snapshot transactions pin the thread's base version
     and are served copy-free from the segment's version histories —
     they complete within phase A and can never abort.  The thread then
     publishes its read/write intents into its own page-aligned intent
     region.

   - Phase B (after the intent barrier): every thread runs the same pure
     arbitration over all published intents in (priority, batch) order —
     the commit order fixed by the round structure of the deterministic
     logical clock.  It streams the regions in priority order: each
     peer's region is read into the worker's one scratch buffer
     ({!Api.ops.read_into}, charged like a full-region read) and folded
     at once into the worker's written-key marks
     ({!Validate.fold_region}); its own region is folded from the bytes
     it just published.  Only its own verdicts are kept, as a bitmask
     over batch index, so a round allocates nothing per peer.  The
     thread then applies its own committed write sets (bumping each
     key's version word) and charges validate/abort costs through the
     cost model.  Aborted transactions back off deterministically and
     retry at the front of the next round's batch.

   Because the verdicts are a pure function of the published intents,
   transaction outcomes and abort/retry counts are byte-identical on
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

type pending = { txn : Txn.t; mutable retries : int; mutable submit_ns : int }

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
  oc_aborts : int array;
  oc_records : record_ list;
}

let split_batch n l =
  let rec go acc n l =
    match (n, l) with 0, _ | _, [] -> (List.rev acc, l) | n, x :: rest -> go (x :: acc) (n - 1) rest
  in
  go [] n l

let worker ~shape ~nthreads ~requests ~(record : recorder) id (ops : A.ops) =
  let queue =
    ref
      (List.map
         (fun t -> { txn = t; retries = 0; submit_ns = -1 })
         (Traffic.gen shape ~tid:id ~requests))
  in
  let checksum = ref 0 and commits = ref 0 and aborts = ref 0 and remaining = ref requests in
  (* Phase-B arbitration state, private to this worker: the key marks of
     the streaming fold and the one buffer every peer region is read
     into. *)
  let written = Array.make Layout.n_keys false in
  let scratch = Bytes.create Layout.intent_bytes in
  let read_val k = ops.A.read_int ~addr:(Layout.value_addr k) in
  let read_ver k = ops.A.read_int ~addr:(Layout.ver_addr k) in
  let all_done () =
    let rem = ref 0 in
    for t = 0 to nthreads - 1 do
      rem := !rem + ops.A.read_int ~addr:(Layout.remaining_addr t)
    done;
    !rem = 0
  in
  let complete ~txn ~round ~batch_idx ~retries ~read_sum ~submit_ns =
    checksum := mix !checksum read_sum txn.Txn.seq;
    decr remaining;
    ops.A.metric_observe "kv:req_ns" (max 0 (ops.A.now_ns () - submit_ns));
    record
      {
        rc_tid = id;
        rc_txn = txn;
        rc_round = round;
        rc_batch = batch_idx;
        rc_retries = retries;
        rc_read_sum = read_sum;
      }
  in
  let rec round_loop round =
    if not (all_done ()) then begin
      (* ---- phase A ---- *)
      let this_batch, rest = split_batch batch !queue in
      queue := rest;
      let attempts = ref [] in
      List.iteri
        (fun pos p ->
          if p.submit_ns < 0 then p.submit_ns <- ops.A.now_ns ();
          let t = p.txn in
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
              complete ~txn:t ~round ~batch_idx:pos ~retries:p.retries ~read_sum:!sum
                ~submit_ns:p.submit_ns
          | Txn.Update ->
              let sum = ref 0 in
              let reads =
                List.map
                  (fun (k, len) ->
                    let ver = read_ver k in
                    for i = k to k + len - 1 do
                      sum := !sum + read_val i
                    done;
                    { Intent.key = k; len; ver })
                  t.Txn.reads
              in
              let read_sum = !sum in
              let wvals =
                List.mapi
                  (fun nth k ->
                    (k, Txn.new_value ~old:(read_val k) ~read_sum ~seq:t.Txn.seq ~nth, read_ver k))
                  t.Txn.writes
              in
              attempts := (p, reads, wvals, read_sum) :: !attempts)
        this_batch;
      let attempts = List.rev !attempts in
      let intents =
        List.map
          (fun (p, reads, _, _) -> { Intent.seq = p.txn.Txn.seq; reads; writes = p.txn.Txn.writes })
          attempts
      in
      let published = Intent.encode intents in
      ops.A.write ~addr:(Layout.intent_addr id) published;
      ops.A.barrier_wait b1;
      (* ---- phase B ---- *)
      Array.fill written 0 Layout.n_keys false;
      let verdicts = ref 0 in
      for p = 0 to nthreads - 1 do
        let t = Validate.tid_of_priority ~round ~nthreads p in
        if t = id then verdicts := Validate.fold_region ~written published
        else begin
          ops.A.read_into ~addr:(Layout.intent_addr t) scratch;
          ignore (Validate.fold_region ~written scratch)
        end
      done;
      let retry_rev = ref [] in
      List.iteri
        (fun bi (p, _, wvals, read_sum) ->
          let t = p.txn in
          ops.A.txn_validate ~keys:(Txn.entries t);
          if !verdicts land (1 lsl bi) <> 0 then begin
            List.iter
              (fun (k, v, ver) ->
                ops.A.write_int ~addr:(Layout.value_addr k) v;
                ops.A.write_int ~addr:(Layout.ver_addr k) (ver + 1))
              wvals;
            incr commits;
            ops.A.metric_incr "kv:commits" 1;
            complete ~txn:t ~round ~batch_idx:bi ~retries:p.retries ~read_sum
              ~submit_ns:p.submit_ns
          end
          else begin
            ops.A.txn_abort ~seq:t.Txn.seq ~retries:p.retries;
            p.retries <- p.retries + 1;
            incr aborts;
            ops.A.metric_incr "kv:aborts" 1;
            retry_rev := p :: !retry_rev
          end)
        attempts;
      queue := List.rev_append !retry_rev !queue;
      ops.A.write_int ~addr:(Layout.remaining_addr id) !remaining;
      ops.A.write_int ~addr:(Layout.checksum_addr id) !checksum;
      ops.A.write_int ~addr:(Layout.commits_addr id) !commits;
      ops.A.write_int ~addr:(Layout.aborts_addr id) !aborts;
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
  let nthreads = max 1 (min nthreads Layout.max_threads) in
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
     checksums and commit/abort counts in thread order, then totals.
     All of it flows into the output-trace witness, so the abort counts
     themselves are witness-checked. *)
  ops.A.log_output (Printf.sprintf "kv:%s store=%d" (Traffic.name shape) (store_digest ops));
  let tc = ref 0 and ta = ref 0 in
  for t = 0 to nthreads - 1 do
    let c = ops.A.read_int ~addr:(Layout.commits_addr t)
    and a = ops.A.read_int ~addr:(Layout.aborts_addr t)
    and chk = ops.A.read_int ~addr:(Layout.checksum_addr t) in
    tc := !tc + c;
    ta := !ta + a;
    ops.A.log_output (Printf.sprintf "kv:t%d chk=%d commits=%d aborts=%d" t chk c a)
  done;
  ops.A.log_output (Printf.sprintf "kv:total commits=%d aborts=%d" !tc !ta);
  finish ops nthreads

let no_record : recorder = fun _ -> ()
let no_finish _ _ = ()

let workload ?(requests = default_requests) shape =
  Api.make ~name:(Traffic.name shape)
    ~description:("transactional KV service, " ^ Traffic.description shape)
    ~default_threads:4 ~heap_pages:Layout.heap_pages ~page_size:Layout.page_size
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
          oc_aborts = per Layout.aborts_addr;
          oc_records = List.concat_map (fun t -> List.rev slots.(t)) (List.init nthreads Fun.id);
        }
  in
  let program =
    Api.make
      ~name:(Traffic.name shape ^ "_probe")
      ~description:"capturing kv service probe" ~default_threads:4 ~heap_pages:Layout.heap_pages
      ~page_size:Layout.page_size
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
