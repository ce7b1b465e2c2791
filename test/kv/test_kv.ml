(* Tests for the deterministic transactional KV service (lib/kv):
   intent codec and arbitration unit tests (the streaming fold against
   its list-based reference and a naive serial execution), the
   strict-serializability oracle (deterministic sweep + qcheck
   sampling), the every-update-commits-in-its-round sweep, cross-runtime
   byte-identity of outcomes and commit/re-execution counts, golden
   witnesses, and the latency accounting. *)

module R = Runtime.Run
module Res = Stats.Run_result

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let shapes = Kv.Traffic.all

(* ------------------------------------------------------------------ *)
(* Layout and codec                                                   *)
(* ------------------------------------------------------------------ *)

let test_layout_regions_disjoint () =
  (* Key space, status pages and per-thread intent regions must tile
     distinct page ranges of the heap. *)
  let last_key = Kv.Layout.ver_addr (Kv.Layout.n_keys - 1) + 8 in
  check_bool "keys below status" true (last_key <= Kv.Layout.remaining_addr 0);
  let last_status = Kv.Layout.reexecs_addr (Kv.Layout.max_threads - 1) + 8 in
  check_bool "status below intents" true (last_status <= Kv.Layout.intent_addr 0);
  let last_intent = Kv.Layout.intent_addr (Kv.Layout.max_threads - 1) + Kv.Layout.intent_bytes in
  check_bool "intents inside heap" true
    (last_intent <= Kv.Layout.heap_pages * Kv.Layout.page_size);
  check_int "intent regions page-aligned" 0 (Kv.Layout.intent_addr 3 mod Kv.Layout.page_size)

let gen_intents =
  let open QCheck.Gen in
  let key = int_bound (Kv.Layout.n_keys - 1) in
  let value = map (fun v -> v - (1 lsl 40)) (int_bound (1 lsl 41)) in
  let write_entry =
    map3 (fun key start start_ver -> { Kv.Intent.key; start; start_ver }) key value (int_bound 1000)
  in
  list_size (int_bound 6)
    (map3
       (fun (seq, read_sum) reads writes -> { Kv.Intent.seq; read_sum; reads; writes })
       (pair (int_bound 0xFF) value)
       (list_size (int_bound 3) (pair key (int_range 1 8)))
       (list_size (int_bound 3) write_entry))

let prop_intent_roundtrip =
  QCheck.Test.make ~name:"intent codec round-trips" ~count:300
    (QCheck.make gen_intents)
    (fun intents ->
      QCheck.assume (Kv.Intent.words_for intents * 8 <= Kv.Layout.intent_bytes);
      let buf = Bytes.make Kv.Layout.intent_bytes '\255' in
      Bytes.blit (Kv.Intent.encode intents) 0 buf 0 (Kv.Intent.words_for intents * 8);
      Kv.Intent.decode buf = intents)

let test_intent_capacity () =
  (* A full batch of worst-case transactions must fit in the region:
     4 x (header + read sum + 8 ranges + 3 words per each of 8 writes)
     + the count word = 137 words of the region's 256. *)
  let worst =
    List.init Kv.Service.batch (fun seq ->
        {
          Kv.Intent.seq;
          read_sum = 0;
          reads = List.init Kv.Txn.max_reads (fun i -> (i, 8));
          writes =
            List.init Kv.Txn.max_writes (fun key -> { Kv.Intent.key; start = 0; start_ver = 0 });
        })
  in
  check_int "worst-case words" 137 (Kv.Intent.words_for worst);
  check_bool "worst-case batch fits" true
    (Kv.Intent.words_for worst * 8 <= Kv.Layout.intent_bytes)

(* ------------------------------------------------------------------ *)
(* Arbitration                                                        *)
(* ------------------------------------------------------------------ *)

let test_priority_rotation_bijective () =
  List.iter
    (fun nthreads ->
      List.iter
        (fun round ->
          let seen = Array.make nthreads false in
          for tid = 0 to nthreads - 1 do
            let p = Kv.Validate.priority_of ~round ~nthreads tid in
            check_bool "in range" true (p >= 0 && p < nthreads);
            check_bool "no collision" false seen.(p);
            seen.(p) <- true;
            check_int "inverse" tid (Kv.Validate.tid_of_priority ~round ~nthreads p)
          done)
        [ 0; 1; 7; 12 ])
    [ 1; 2; 4; 5 ]

let region_over ~stale intents =
  let buf = Bytes.make Kv.Layout.intent_bytes '\000' in
  let put l =
    let b = Kv.Intent.encode l in
    Bytes.blit b 0 buf 0 (Bytes.length b)
  in
  put stale;
  put intents;
  buf

(* The service's phase-B loop: every thread's region folded in priority
   order into one fresh overlay.  Returns the overlay, each thread's
   read sums and its re-execution bitmask. *)
let stream ~round regions =
  let nthreads = Array.length regions in
  let o = Kv.Validate.overlay () in
  let sums = Array.map (fun _ -> Array.make Kv.Service.batch 0) regions in
  let masks = Array.make nthreads 0 in
  for p = 0 to nthreads - 1 do
    let t = Kv.Validate.tid_of_priority ~round ~nthreads p in
    masks.(t) <- Kv.Validate.fold_region o ~tid:t ~sums:sums.(t) regions.(t)
  done;
  (o, sums, masks)

let stream_intents ~round intents = stream ~round (Array.map (region_over ~stale:[]) intents)
let nv ~old ~read_sum ~seq = Kv.Txn.new_value ~old ~read_sum ~seq ~nth:0

let check_key o k ~final ~nwrites ~last_tid =
  match Kv.Validate.state o k with
  | None -> Alcotest.failf "key %d not written" k
  | Some st ->
      check_int (Printf.sprintf "key %d final" k) final st.Kv.Validate.final;
      check_int (Printf.sprintf "key %d writes" k) nwrites st.Kv.Validate.nwrites;
      check_int (Printf.sprintf "key %d last writer" k) last_tid st.Kv.Validate.last_tid

let test_fold_conflict_semantics () =
  (* Two threads, same round; key 5 starts at 50.  At round 0 priority
     order is t0 < t1: t1's first txn writes key 5 after t0 did (w-w:
     re-executed on t0's value), its second touches nothing written
     (phase-A result stands), its third reads key 5 (r-w: re-executed,
     read sum corrected to t1's own earlier write). *)
  let r k = (k, 1) and w key = { Kv.Intent.key; start = key * 10; start_ver = 3 } in
  let intents =
    [|
      [ { Kv.Intent.seq = 0; read_sum = 10; reads = [ r 1 ]; writes = [ w 5 ] } ];
      [
        { Kv.Intent.seq = 10; read_sum = 20; reads = [ r 2 ]; writes = [ w 5 ] };
        { Kv.Intent.seq = 11; read_sum = 90; reads = [ r 9 ]; writes = [ w 7 ] };
        { Kv.Intent.seq = 12; read_sum = 50; reads = [ r 5 ]; writes = [] };
      ];
    |]
  in
  let o, sums, masks = stream_intents ~round:0 intents in
  let t0 = nv ~old:50 ~read_sum:10 ~seq:0 in
  let t1 = nv ~old:t0 ~read_sum:20 ~seq:10 in
  check_int "t0 runs as executed" 0 masks.(0);
  check_int "t1 w-w and r-w txns re-executed" 0b101 masks.(1);
  check_int "t0 read sum" 10 sums.(0).(0);
  check_int "disjoint read sum kept" 90 sums.(1).(1);
  check_int "r-w read sum corrected" t1 sums.(1).(2);
  check_key o 5 ~final:t1 ~nwrites:2 ~last_tid:1;
  check_key o 7 ~final:(nv ~old:70 ~read_sum:90 ~seq:11) ~nwrites:1 ~last_tid:1;
  check_bool "unwritten key" true (Kv.Validate.state o 1 = None);
  (* Round 1 rotates priority: t1 goes first and t0 writes key 5 last. *)
  let o, sums, masks = stream_intents ~round:1 intents in
  let t1 = nv ~old:50 ~read_sum:20 ~seq:10 in
  check_int "rotated: t1 only r-w" 0b100 masks.(1);
  check_int "rotated: t0 re-executed" 0b1 masks.(0);
  check_int "rotated: r-w read sum" t1 sums.(1).(2);
  check_key o 5 ~final:(nv ~old:t1 ~read_sum:10 ~seq:0) ~nwrites:2 ~last_tid:0;
  check_bool "rotated: t0 owns key 5" true (Kv.Validate.is_last_writer o 5 ~tid:0 ~batch:0)

let test_hot_key_round () =
  (* Three threads each read and rewrite hot key 7 (round-start value 70,
     version 4) in one round.  All three commit: each sees exactly the
     value its predecessor in the commit order wrote, the last writer
     owns the key, and its version advances by three. *)
  let txn seq =
    [
      {
        Kv.Intent.seq;
        read_sum = 70;
        reads = [ (7, 1) ];
        writes = [ { Kv.Intent.key = 7; start = 70; start_ver = 4 } ];
      };
    ]
  in
  let o, sums, masks = stream_intents ~round:0 [| txn 0; txn 1; txn 2 |] in
  let v0 = nv ~old:70 ~read_sum:70 ~seq:0 in
  let v1 = nv ~old:v0 ~read_sum:v0 ~seq:1 in
  let v2 = nv ~old:v1 ~read_sum:v1 ~seq:2 in
  Alcotest.(check (list int)) "serial read sums" [ 70; v0; v1 ]
    (List.map (fun t -> sums.(t).(0)) [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "t1 and t2 re-executed" [ 0; 1; 1 ] (Array.to_list masks);
  check_key o 7 ~final:v2 ~nwrites:3 ~last_tid:2;
  check_bool "t2 owns the key" true (Kv.Validate.is_last_writer o 7 ~tid:2 ~batch:0);
  check_bool "t0 does not" false (Kv.Validate.is_last_writer o 7 ~tid:0 ~batch:0)

(* The streaming fold the service runs must agree with the list-based
   reference, and both with a naive serial execution on a full store:
   random rounds of up to [max_threads] threads with 0-4 transactions
   each on 16 hot keys, so read ranges overlap and write keys collide.
   Each thread's intents are what phase A publishes against a random
   round-start store, and every region is encoded over the image of a
   longer earlier round, so stale tail words sit behind the counts. *)
type phase_a_txn = { seq : int; ranges : (int * int) list; wkeys : int list }

let gen_round =
  let open QCheck.Gen in
  let hot_key = int_bound 15 in
  let txn =
    map3
      (fun seq ranges wkeys -> { seq; ranges; wkeys = List.sort_uniq compare wkeys })
      (int_bound 0xFF)
      (list_size (int_bound 3) (pair hot_key (int_range 1 8)))
      (list_size (int_bound 3) hot_key)
  in
  let thread = pair (list_size (int_bound 4) txn) (list_size (return 4) txn) in
  int_range 1 Kv.Layout.max_threads >>= fun nthreads ->
  map3
    (fun round vals threads -> (round, Array.of_list vals, Array.of_list threads))
    (int_bound 64)
    (list_repeat 16 (int_bound 1_000_000))
    (list_size (return nthreads) thread)

let phase_a store t =
  let sum = ref 0 in
  List.iter
    (fun (k, len) ->
      for i = k to k + len - 1 do
        sum := !sum + store.(i)
      done)
    t.ranges;
  {
    Kv.Intent.seq = t.seq;
    read_sum = !sum;
    reads = t.ranges;
    writes =
      List.map (fun key -> { Kv.Intent.key; start = store.(key); start_ver = key mod 5 }) t.wkeys;
  }

let naive_serial ~round store threads =
  let nthreads = Array.length threads in
  let st = Array.copy store and sums = Array.make nthreads [] in
  for p = 0 to nthreads - 1 do
    let tid = Kv.Validate.tid_of_priority ~round ~nthreads p in
    sums.(tid) <-
      List.map
        (fun t ->
          let sum = (phase_a st t).Kv.Intent.read_sum in
          List.iteri
            (fun nth k -> st.(k) <- Kv.Txn.new_value ~old:st.(k) ~read_sum:sum ~seq:t.seq ~nth)
            t.wkeys;
          sum)
        threads.(tid)
  done;
  (sums, st)

let bitmask flags =
  List.fold_left (fun m (bi, f) -> if f then m lor (1 lsl bi) else m) 0
    (List.mapi (fun bi f -> (bi, f)) flags)

let prop_fold_region_matches_serial =
  QCheck.Test.make ~name:"fold_region matches serial" ~count:300
    (QCheck.make gen_round)
    (fun (round, vals, threads) ->
      let nthreads = Array.length threads in
      let store = Array.init Kv.Layout.n_keys (fun k -> (vals.(k mod 16) * 7) + k) in
      let publish l = List.map (phase_a store) l in
      let intents = Array.map (fun (cur, _) -> publish cur) threads in
      let regions =
        Array.map (fun (cur, stale) -> region_over ~stale:(publish stale) (publish cur)) threads
      in
      let o, sums, masks = stream ~round regions in
      let reference = Kv.Validate.serial ~round ~nthreads intents in
      let naive_sums, naive_store = naive_serial ~round store (Array.map fst threads) in
      let streamed t = List.init (List.length intents.(t)) (fun bi -> sums.(t).(bi)) in
      List.for_all
        (fun t ->
          streamed t = reference.Kv.Validate.sums.(t)
          && reference.Kv.Validate.sums.(t) = naive_sums.(t)
          && masks.(t) = bitmask reference.Kv.Validate.reexecs.(t))
        (List.init nthreads Fun.id)
      && List.for_all
           (fun k ->
             let st = List.assoc_opt k reference.Kv.Validate.keys in
             Kv.Validate.state o k = st
             &&
             match st with
             | Some s -> s.Kv.Validate.final = naive_store.(k) && s.Kv.Validate.start = store.(k)
             | None -> naive_store.(k) = store.(k))
           (List.init Kv.Layout.n_keys Fun.id))

let test_fold_region_allocates_nothing () =
  let w key = { Kv.Intent.key; start = key; start_ver = 1 } in
  let region =
    region_over ~stale:[]
      [
        { Kv.Intent.seq = 1; read_sum = 5; reads = [ (0, 3); (4, 3) ]; writes = [ w 1; w 9 ] };
        { Kv.Intent.seq = 2; read_sum = 6; reads = [ (8, 3) ]; writes = [ w 2 ] };
        { Kv.Intent.seq = 3; read_sum = 7; reads = [ (20, 3) ]; writes = [ w 30 ] };
      ]
  in
  let o = Kv.Validate.overlay () and sums = Array.make Kv.Service.batch 0 in
  let fold () =
    Kv.Validate.reset o;
    check_int "re-executions" 0b010 (Kv.Validate.fold_region o ~tid:0 ~sums region)
  in
  fold ();
  let step () =
    Kv.Validate.reset o;
    ignore (Kv.Validate.fold_region o ~tid:0 ~sums region)
  in
  Alcotest.(check (float 0.0))
    "minor words of a warmed call"
    (Alloc_probe.minor_words_during ignore)
    (Alloc_probe.minor_words_during step)

let test_fold_region_rejects_oversized_batch () =
  (* The re-executions are an int bitmask and the read sums go to the
     caller's slots, so a region may claim neither more transactions than
     an int has bits nor more than there are slots. *)
  let claiming n =
    let region = Bytes.make Kv.Layout.intent_bytes '\000' in
    Bytes.set_int64_le region 0 (Int64.of_int n);
    region
  in
  let rejects ~slots n =
    Alcotest.check_raises "too many transactions"
      (Invalid_argument "Validate.fold_region: too many transactions") (fun () ->
        ignore
          (Kv.Validate.fold_region (Kv.Validate.overlay ()) ~tid:0 ~sums:(Array.make slots 0)
             (claiming n)))
  in
  rejects ~slots:(Sys.int_size + 1) (Sys.int_size + 1);
  rejects ~slots:Kv.Service.batch (Kv.Service.batch + 1)

(* ------------------------------------------------------------------ *)
(* Strict serializability (oracle)                                    *)
(* ------------------------------------------------------------------ *)

let probe_outcome ?(runtime = R.consequence_ic) ?(seed = 1) ?(nthreads = 4) ?requests shape =
  let program, outcome = Kv.Service.probe ?requests shape in
  ignore (R.run runtime ~seed ~nthreads program);
  outcome ()

let test_oracle_all_shapes () =
  List.iter
    (fun shape ->
      let o = probe_outcome shape in
      check_int
        (Kv.Traffic.name shape ^ " all requests completed")
        (o.Kv.Service.oc_nthreads * o.Kv.Service.oc_requests)
        (Kv.Oracle.completed o);
      (match Kv.Oracle.check o with
      | Ok () -> ()
      | Error m ->
          Alcotest.failf "%s not serializable: %s" (Kv.Traffic.name shape) m.Kv.Oracle.what);
      check_bool
        (Kv.Traffic.name shape ^ " snapshots never abort")
        false (Kv.Oracle.snapshot_aborts o))
    shapes

let test_oracle_detects_lost_update () =
  (* The oracle itself must not be vacuous: corrupt one completed
     update's observed read sum and it must object. *)
  let o = probe_outcome Kv.Traffic.Zipf in
  let corrupted =
    let bumped = ref false in
    List.map
      (fun (r : Kv.Service.record_) ->
        if (not !bumped) && r.Kv.Service.rc_txn.Kv.Txn.kind = Kv.Txn.Update then begin
          bumped := true;
          { r with Kv.Service.rc_read_sum = r.Kv.Service.rc_read_sum + 1 }
        end
        else r)
      o.Kv.Service.oc_records
  in
  check_bool "oracle rejects corrupted history" true
    (match Kv.Oracle.check { o with Kv.Service.oc_records = corrupted } with
    | Error _ -> true
    | Ok () -> false)

let prop_serializable =
  (* Sampled sweep: shape x thread count x request count x runtime
     (ic / rr alternate), all strictly serializable with no snapshot
     aborts. *)
  let gen =
    QCheck.Gen.(
      map3
        (fun shape nthreads (requests, rr) -> (shape, 1 + nthreads, 4 + requests, rr))
        (oneofl shapes) (int_bound 5)
        (pair (int_bound 20) bool))
  in
  let print (shape, nthreads, requests, rr) =
    Printf.sprintf "%s t=%d req=%d rt=%s" (Kv.Traffic.name shape) nthreads requests
      (if rr then "rr" else "ic")
  in
  QCheck.Test.make ~name:"every sampled run is strictly serializable" ~count:25
    (QCheck.make ~print gen)
    (fun (shape, nthreads, requests, rr) ->
      let runtime = if rr then R.consequence_rr else R.consequence_ic in
      let o = probe_outcome ~runtime ~nthreads ~requests shape in
      Kv.Oracle.completed o = nthreads * requests
      && Kv.Oracle.check o = Ok ()
      && not (Kv.Oracle.snapshot_aborts o))

let all_runtimes =
  [ R.pthreads; R.dthreads; R.dwc; R.consequence_rr; R.consequence_ic;
    R.Det Runtime.Config.consequence_pipe; R.domains ]

let test_every_update_commits_in_its_round () =
  (* Nothing aborts on any preset at any width: every request completes
     in the round that took it from the queue (request [seq] is taken in
     round [seq / batch]), with no retry, and the run is strictly
     serializable. *)
  List.iter
    (fun shape ->
      List.iter
        (fun runtime ->
          List.iter
            (fun nthreads ->
              let ctx =
                Printf.sprintf "%s/%s t=%d" (Kv.Traffic.name shape) (R.name runtime) nthreads
              in
              let program, outcome = Kv.Service.probe shape in
              let r = R.run runtime ~seed:1 ~nthreads program in
              let o = outcome () in
              check_int (ctx ^ " kv:aborts") 0
                (Obs.Metrics.counter_value r.Res.metrics "kv:aborts");
              check_int (ctx ^ " completed") (nthreads * o.Kv.Service.oc_requests)
                (Kv.Oracle.completed o);
              List.iter
                (fun (rc : Kv.Service.record_) ->
                  check_int (ctx ^ " no retry") 0 rc.Kv.Service.rc_retries;
                  check_int (ctx ^ " submission round")
                    (rc.Kv.Service.rc_txn.Kv.Txn.seq / Kv.Service.batch)
                    rc.Kv.Service.rc_round)
                o.Kv.Service.oc_records;
              match Kv.Oracle.check o with
              | Ok () -> ()
              | Error m -> Alcotest.failf "%s not serializable: %s" ctx m.Kv.Oracle.what)
            [ 1; 4; 32 ])
        all_runtimes)
    shapes

(* ------------------------------------------------------------------ *)
(* Cross-runtime identity                                             *)
(* ------------------------------------------------------------------ *)

let seeds = [ 1; 7 ]

let run_one runtime ~seed shape =
  R.run runtime ~seed ~nthreads:4 ((Workload.Registry.find (Kv.Traffic.name shape)).program)

let aborts r = Obs.Metrics.counter_value r.Res.metrics "kv:aborts"
let reexecs r = Obs.Metrics.counter_value r.Res.metrics "kv:reexecs"
let commits r = Obs.Metrics.counter_value r.Res.metrics "kv:commits"

let test_outcomes_identical_across_all_runtimes () =
  (* Memory image, output trace and commit/abort/re-execution counts must be
     byte-identical across every runtime — even the nondeterministic
     pthreads baseline — and every seed.  Only sync-order hashes (and
     timings) may differ between runtimes. *)
  List.iter
    (fun shape ->
      let reference = run_one R.consequence_ic ~seed:1 shape in
      List.iter
        (fun runtime ->
          List.iter
            (fun seed ->
              let r = run_one runtime ~seed shape in
              let ctx =
                Printf.sprintf "%s/%s seed=%d" (Kv.Traffic.name shape) (R.name runtime) seed
              in
              check_string (ctx ^ " mem") reference.Res.mem_hash r.Res.mem_hash;
              check_string (ctx ^ " out") reference.Res.output_hash r.Res.output_hash;
              check_int (ctx ^ " aborts") (aborts reference) (aborts r);
              check_int (ctx ^ " reexecs") (reexecs reference) (reexecs r);
              check_int (ctx ^ " commits") (commits reference) (commits r))
            seeds)
        all_runtimes)
    shapes

let test_full_witness_identity_ic_pipe_domains () =
  (* The instruction-count family shares one deterministic schedule, so
     the complete witness (including sync order) is identical across the
     serial DES, the pipelined-commit DES and real multicore domains. *)
  List.iter
    (fun shape ->
      List.iter
        (fun seed ->
          let base = Res.deterministic_witness (run_one R.consequence_ic ~seed shape) in
          List.iter
            (fun runtime ->
              check_string
                (Printf.sprintf "%s/%s seed=%d" (Kv.Traffic.name shape) (R.name runtime)
                   seed)
                base
                (Res.deterministic_witness (run_one runtime ~seed shape)))
            [ R.Det Runtime.Config.consequence_pipe; R.domains ])
        seeds)
    shapes

let test_witness_seed_invariant_per_runtime () =
  List.iter
    (fun shape ->
      List.iter
        (fun runtime ->
          let w = List.map (fun seed -> Res.deterministic_witness (run_one runtime ~seed shape)) seeds in
          check_int
            (Printf.sprintf "%s/%s one witness across seeds" (Kv.Traffic.name shape)
               (R.name runtime))
            1
            (List.length (List.sort_uniq compare w)))
        [ R.dthreads; R.dwc; R.consequence_rr; R.consequence_ic ])
    shapes

(* Golden witnesses: 4 threads, seed 1.  The ic strings also pin pipe and
   domains (full-witness identity above); rr pins the round-robin token
   order.  Regenerate with:
     dune exec bin/consequence_cli.exe -- run <shape> -r {ic,rr} -t 4 -s 1 *)
let golden =
  [
    ("kv_uniform", "mem:dfc10eb7b1b26e09|sync:5665e00cbeed2565|out:eafafcb8df2cc355",
     "mem:dfc10eb7b1b26e09|sync:a5bd1f7307317cd1|out:eafafcb8df2cc355");
    ("kv_zipf", "mem:620f3b37078bac31|sync:fbff4b9a8409b825|out:a7a1701b5370a9c4",
     "mem:620f3b37078bac31|sync:a5bd1f7307317cd1|out:a7a1701b5370a9c4");
    ("kv_hot", "mem:0e4d0c0fbff051d1|sync:09cdcec0c6ee9c21|out:91833638598f6c55",
     "mem:0e4d0c0fbff051d1|sync:a5bd1f7307317cd1|out:91833638598f6c55");
    ("kv_read", "mem:8457ae5cd7fdb73f|sync:465da9c8d7f12d99|out:7366a14bc557ac88",
     "mem:8457ae5cd7fdb73f|sync:a5bd1f7307317cd1|out:7366a14bc557ac88");
    ("kv_write", "mem:428c8784f17666df|sync:5877b4a78f51d559|out:40cd57ef0711feda",
     "mem:428c8784f17666df|sync:a5bd1f7307317cd1|out:40cd57ef0711feda");
    ("kv_scan", "mem:125092cdc0f457ea|sync:90c1096c1df56ead|out:d235d1ce6eb91002",
     "mem:125092cdc0f457ea|sync:a5bd1f7307317cd1|out:d235d1ce6eb91002");
  ]

let test_golden_witnesses () =
  List.iter
    (fun (name, ic_expected, rr_expected) ->
      let shape = List.find (fun s -> Kv.Traffic.name s = name) shapes in
      List.iter
        (fun (runtime, expected) ->
          List.iter
            (fun seed ->
              check_string
                (Printf.sprintf "%s/%s seed=%d" name (R.name runtime) seed)
                expected
                (Res.deterministic_witness (run_one runtime ~seed shape)))
            seeds)
        [
          (R.consequence_ic, ic_expected);
          (R.consequence_rr, rr_expected);
          (R.Det Runtime.Config.consequence_pipe, ic_expected);
          (R.domains, ic_expected);
        ])
    golden

(* ------------------------------------------------------------------ *)
(* Latency accounting                                                 *)
(* ------------------------------------------------------------------ *)

let test_latency_histogram_counts_requests () =
  List.iter
    (fun shape ->
      let r = run_one R.consequence_ic ~seed:1 shape in
      let m = r.Res.metrics in
      let completed =
        Obs.Metrics.counter_value m "kv:commits" + Obs.Metrics.counter_value m "kv:snapshots"
      in
      check_int
        (Kv.Traffic.name shape ^ " every request completed")
        (4 * Kv.Service.default_requests)
        completed;
      match Obs.Metrics.find_hist m "kv:req_ns" with
      | None -> Alcotest.fail "kv:req_ns histogram missing"
      | Some h ->
          check_int (Kv.Traffic.name shape ^ " one latency sample per request") completed
            h.Obs.Metrics.count)
    shapes

let test_traffic_generation_deterministic () =
  (* Traffic depends only on (shape, tid): same list on every call, and
     every generated transaction passes the shape-independent checks. *)
  List.iter
    (fun shape ->
      List.iter
        (fun tid ->
          let a = Kv.Traffic.gen shape ~tid ~requests:40 in
          let b = Kv.Traffic.gen shape ~tid ~requests:40 in
          check_bool "same traffic" true (a = b);
          List.iter Kv.Txn.check a)
        [ 0; 3 ])
    shapes

(* The status and intent regions hold [Layout.max_threads] slots.  A
   larger thread count is refused before the run starts, on every
   runtime, with a message naming the limit; it is never clamped. *)
let test_refuses_more_threads_than_layout () =
  let limit = Kv.Layout.max_threads in
  let program = Kv.Service.workload Kv.Traffic.Zipf in
  check_int "declared limit" limit program.Api.max_threads;
  let expected =
    Printf.sprintf "kv_zipf supports at most %d threads; %d requested" limit (limit + 1)
  in
  (match Api.check_threads program (limit + 1) with
  | Error msg -> check_string "check_threads" expected msg
  | Ok () -> Alcotest.fail "check_threads accepted too many threads");
  check_bool "limit accepted" true (Api.check_threads program limit = Ok ());
  check_bool "zero refused" true (Result.is_error (Api.check_threads program 0));
  List.iter
    (fun rt ->
      Alcotest.check_raises (R.name rt) (Invalid_argument expected) (fun () ->
          ignore (R.run rt ~nthreads:(limit + 1) program)))
    [ R.pthreads; R.dthreads; R.consequence_ic ]

let () =
  Alcotest.run "kv"
    [
      ( "layout+codec",
        [
          Alcotest.test_case "regions disjoint" `Quick test_layout_regions_disjoint;
          Alcotest.test_case "worst-case batch fits" `Quick test_intent_capacity;
          QCheck_alcotest.to_alcotest prop_intent_roundtrip;
        ] );
      ( "arbitration",
        [
          Alcotest.test_case "priority rotation bijective" `Quick
            test_priority_rotation_bijective;
          Alcotest.test_case "conflict semantics" `Quick test_fold_conflict_semantics;
          Alcotest.test_case "hot key: three writers commit in one round" `Quick
            test_hot_key_round;
          QCheck_alcotest.to_alcotest prop_fold_region_matches_serial;
          Alcotest.test_case "fold_region allocates nothing" `Quick
            test_fold_region_allocates_nothing;
          Alcotest.test_case "fold_region bitmask bound" `Quick
            test_fold_region_rejects_oversized_batch;
        ] );
      ( "serializability",
        [
          Alcotest.test_case "oracle passes every shape" `Quick test_oracle_all_shapes;
          Alcotest.test_case "oracle detects lost updates" `Quick
            test_oracle_detects_lost_update;
          QCheck_alcotest.to_alcotest prop_serializable;
          Alcotest.test_case "every update commits in its submission round" `Quick
            test_every_update_commits_in_its_round;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "outcomes identical across all runtimes" `Quick
            test_outcomes_identical_across_all_runtimes;
          Alcotest.test_case "full witness identity ic/pipe/domains" `Quick
            test_full_witness_identity_ic_pipe_domains;
          Alcotest.test_case "witness seed-invariant per runtime" `Quick
            test_witness_seed_invariant_per_runtime;
          Alcotest.test_case "golden witnesses" `Quick test_golden_witnesses;
        ] );
      ( "service",
        [
          Alcotest.test_case "latency histogram counts requests" `Quick
            test_latency_histogram_counts_requests;
          Alcotest.test_case "traffic generation deterministic" `Quick
            test_traffic_generation_deterministic;
          Alcotest.test_case "refuses too many threads" `Quick
            test_refuses_more_threads_than_layout;
        ] );
    ]
