(* Tests for the deterministic transactional KV service (lib/kv):
   intent codec and arbitration unit tests, the strict-serializability
   oracle (deterministic sweep + qcheck sampling), the
   snapshot-reads-never-abort property, cross-runtime byte-identity of
   outcomes and abort counts, golden witnesses, and the latency
   accounting. *)

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
  let last_status = Kv.Layout.aborts_addr (Kv.Layout.max_threads - 1) + 8 in
  check_bool "status below intents" true (last_status <= Kv.Layout.intent_addr 0);
  let last_intent = Kv.Layout.intent_addr (Kv.Layout.max_threads - 1) + Kv.Layout.intent_bytes in
  check_bool "intents inside heap" true
    (last_intent <= Kv.Layout.heap_pages * Kv.Layout.page_size);
  check_int "intent regions page-aligned" 0 (Kv.Layout.intent_addr 3 mod Kv.Layout.page_size)

let gen_intents =
  let open QCheck.Gen in
  let key = int_bound (Kv.Layout.n_keys - 1) in
  let read_entry =
    map3
      (fun key len ver -> { Kv.Intent.key; len = 1 + (len mod 8); ver })
      key (int_bound 7) (int_bound 0xFFFF)
  in
  list_size (int_bound 6)
    (map3
       (fun seq reads writes -> { Kv.Intent.seq; reads; writes })
       (int_bound 0xFF)
       (list_size (int_bound 3) read_entry)
       (list_size (int_bound 3) key))

let prop_intent_roundtrip =
  QCheck.Test.make ~name:"intent codec round-trips" ~count:300
    (QCheck.make gen_intents)
    (fun intents ->
      QCheck.assume (Kv.Intent.words_for intents * 8 <= Kv.Layout.intent_bytes);
      let buf = Bytes.make Kv.Layout.intent_bytes '\255' in
      Bytes.blit (Kv.Intent.encode intents) 0 buf 0 (Kv.Intent.words_for intents * 8);
      Kv.Intent.decode buf = intents)

let test_intent_capacity () =
  (* A full batch of worst-case transactions must fit in the region. *)
  let worst =
    List.init Kv.Service.batch (fun seq ->
        {
          Kv.Intent.seq;
          reads = List.init Kv.Txn.max_reads (fun i -> { Kv.Intent.key = i; len = 8; ver = 0 });
          writes = List.init Kv.Txn.max_writes Fun.id;
        })
  in
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

let test_fold_conflict_semantics () =
  (* Two threads, same round.  At round 0 priority order is t0 < t1:
     t1's first txn writes key 5 which t0's committed txn also writes
     (abort), t1's second reads key 9 written by nobody (commit). *)
  let r k = { Kv.Intent.key = k; len = 1; ver = 0 } in
  let intents =
    [|
      [ { Kv.Intent.seq = 0; reads = [ r 1 ]; writes = [ 5 ] } ];
      [
        { Kv.Intent.seq = 10; reads = [ r 2 ]; writes = [ 5 ] };
        { Kv.Intent.seq = 11; reads = [ r 9 ]; writes = [ 7 ] };
        (* Reading a key an earlier-committed txn wrote also aborts. *)
        { Kv.Intent.seq = 12; reads = [ r 5 ]; writes = [] };
      ];
    |]
  in
  let v0 = Kv.Validate.fold ~round:0 ~nthreads:2 intents in
  check_bool "t0 commits" true v0.(0).(0);
  check_bool "t1 w-w conflict aborts" false v0.(1).(0);
  check_bool "t1 disjoint commits" true v0.(1).(1);
  check_bool "t1 r-w conflict aborts" false v0.(1).(2);
  (* Round 1 rotates priority: t1 goes first and wins the w-w race. *)
  let v1 = Kv.Validate.fold ~round:1 ~nthreads:2 intents in
  check_bool "rotated: t1 commits" true v1.(1).(0);
  check_bool "rotated: t0 aborts" false v1.(0).(0)

(* The streaming fold the service runs must agree with the list-based
   reference: random rounds of up to [max_threads] threads with 0-4
   transactions each, drawn from a small key range so read ranges
   overlap and write keys collide, every region encoded over the image
   of a longer earlier round so stale tail words sit behind the counts. *)
let gen_round =
  let open QCheck.Gen in
  let hot_key = int_bound 15 in
  let read_entry =
    map3
      (fun key len ver -> { Kv.Intent.key; len = 1 + len; ver })
      hot_key (int_bound 7) (int_bound 0xFFFF)
  in
  let txn =
    map3
      (fun seq reads writes -> { Kv.Intent.seq; reads; writes })
      (int_bound 0xFF)
      (list_size (int_bound 3) read_entry)
      (list_size (int_bound 3) hot_key)
  in
  let thread = pair (list_size (int_bound 4) txn) (list_size (return 4) txn) in
  int_range 1 Kv.Layout.max_threads >>= fun nthreads ->
  map2 (fun round threads -> (round, Array.of_list threads)) (int_bound 64)
    (list_size (return nthreads) thread)

let bitmask verdicts =
  let m = ref 0 in
  Array.iteri (fun bi commit -> if commit then m := !m lor (1 lsl bi)) verdicts;
  !m

let region_over ~stale intents =
  let buf = Bytes.make Kv.Layout.intent_bytes '\000' in
  let put l =
    let b = Kv.Intent.encode l in
    Bytes.blit b 0 buf 0 (Bytes.length b)
  in
  put stale;
  put intents;
  buf

let prop_fold_region_matches_fold =
  QCheck.Test.make ~name:"streaming fold_region matches fold" ~count:300
    (QCheck.make gen_round)
    (fun (round, threads) ->
      let nthreads = Array.length threads in
      let intents = Array.map fst threads in
      let regions = Array.map (fun (cur, stale) -> region_over ~stale cur) threads in
      let written = Array.make Kv.Layout.n_keys false in
      let masks = Array.make nthreads (-1) in
      for p = 0 to nthreads - 1 do
        let t = Kv.Validate.tid_of_priority ~round ~nthreads p in
        masks.(t) <- Kv.Validate.fold_region ~written regions.(t)
      done;
      Array.map bitmask (Kv.Validate.fold ~round ~nthreads intents) = masks)

let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_fold_region_allocates_nothing () =
  let r k = { Kv.Intent.key = k; len = 3; ver = 1 } in
  let region =
    region_over ~stale:[]
      [
        { Kv.Intent.seq = 1; reads = [ r 0; r 4 ]; writes = [ 1; 9 ] };
        { Kv.Intent.seq = 2; reads = [ r 8 ]; writes = [ 2 ] };
        { Kv.Intent.seq = 3; reads = [ r 20 ]; writes = [ 30 ] };
      ]
  in
  let written = Array.make Kv.Layout.n_keys false in
  let fold () =
    Array.fill written 0 Kv.Layout.n_keys false;
    check_int "verdicts" 0b101 (Kv.Validate.fold_region ~written region)
  in
  fold ();
  let step () = ignore (Kv.Validate.fold_region ~written region) in
  Alcotest.(check (float 0.0))
    "minor words of a warmed call" (minor_words_during ignore) (minor_words_during step)

let test_fold_region_rejects_oversized_batch () =
  (* The verdicts are an int bitmask, so a region may not claim more
     transactions than an int has bits. *)
  let region = Bytes.make Kv.Layout.intent_bytes '\000' in
  Bytes.set_int64_le region 0 (Int64.of_int (Sys.int_size + 1));
  Alcotest.check_raises "too many transactions"
    (Invalid_argument "Validate.fold_region: too many transactions") (fun () ->
      ignore (Kv.Validate.fold_region ~written:(Array.make Kv.Layout.n_keys false) region))

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

(* ------------------------------------------------------------------ *)
(* Cross-runtime identity                                             *)
(* ------------------------------------------------------------------ *)

let seeds = [ 1; 7 ]

let run_one runtime ~seed shape =
  R.run runtime ~seed ~nthreads:4 ((Workload.Registry.find (Kv.Traffic.name shape)).program)

let aborts r = Obs.Metrics.counter_value r.Res.metrics "kv:aborts"
let commits r = Obs.Metrics.counter_value r.Res.metrics "kv:commits"

let test_outcomes_identical_across_all_runtimes () =
  (* Memory image, output trace and commit/abort counts must be
     byte-identical across every runtime — even the nondeterministic
     pthreads baseline — and every seed.  Only sync-order hashes (and
     timings) may differ between runtimes. *)
  let all_runtimes =
    [ R.pthreads; R.dthreads; R.dwc; R.consequence_rr; R.consequence_ic;
      R.Det Runtime.Config.consequence_pipe; R.domains ]
  in
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
    ("kv_uniform", "mem:f3957200e39a2ec0|sync:1e3876004cd86e85|out:91c6b054375636f2",
     "mem:f3957200e39a2ec0|sync:fee2e11a0b89e0d9|out:91c6b054375636f2");
    ("kv_zipf", "mem:9a44c034e70d1e30|sync:37b559de50208c2f|out:dfcbdd99c71dee29",
     "mem:9a44c034e70d1e30|sync:4c10bc9d4d42088b|out:dfcbdd99c71dee29");
    ("kv_hot", "mem:79b6d55b9ae1078a|sync:3ab79e68fc472387|out:a1c4922804e0d28e",
     "mem:79b6d55b9ae1078a|sync:6bd933eb51fc995b|out:a1c4922804e0d28e");
    ("kv_read", "mem:9e724ce5ccfb9be0|sync:465da9c8d7f12d99|out:758e8e527da14662",
     "mem:9e724ce5ccfb9be0|sync:a5bd1f7307317cd1|out:758e8e527da14662");
    ("kv_write", "mem:0eb49b7d7782cc24|sync:d93516ce46023be9|out:16a2b16c4f0a0ad7",
     "mem:0eb49b7d7782cc24|sync:6c9e3453beabe5e9|out:16a2b16c4f0a0ad7");
    ("kv_scan", "mem:d060cdfd9b53c115|sync:4269d3ee00f51171|out:16a37ad7ed610510",
     "mem:d060cdfd9b53c115|sync:fee2e11a0b89e0d9|out:16a37ad7ed610510");
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
          QCheck_alcotest.to_alcotest prop_fold_region_matches_fold;
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
        ] );
    ]
