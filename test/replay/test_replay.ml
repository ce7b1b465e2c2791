(* Tests for lib/replay: faithful replay on the deterministic runtimes,
   seed-pinned replay of pthreads interleavings, divergence localization
   on perturbed logs, Rt_event/Schedule JSON round-trips, recording
   neutrality, scripted overflow policies and the schedule explorer. *)

module Ev = Runtime.Rt_event
module Sch = Replay.Schedule
module Rep = Replay.Replayer
module Exp = Replay.Explore
module Res = Stats.Run_result
module Ofp = Detclock.Overflow_policy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let program_of name = (Workload.Registry.find name).Workload.Registry.program

let record_det ?(name = "kmeans") ?(seed = 3) ?(nthreads = 8) () =
  Sch.record Runtime.Run.consequence_ic ~seed ~nthreads (program_of name)

(* ------------------------------------------------------------------ *)
(* Faithful replay                                                    *)
(* ------------------------------------------------------------------ *)

let test_det_replay_faithful () =
  let log, res = record_det () in
  let o = Rep.replay log (program_of "kmeans") in
  check_bool "replay ok" true (Rep.ok o);
  check_bool "no divergence" true (o.Rep.divergence = None);
  check_int "every event checked" (Sch.length log) o.Rep.checked;
  check_string "same mem hash" res.Res.mem_hash o.Rep.result.Res.mem_hash;
  check_int "same simulated wall time" res.Res.wall_ns o.Rep.result.Res.wall_ns

let test_det_replay_has_boundaries () =
  (* The scripted replay must actually be driven by recorded overflow
     boundaries — an empty script would make the test above vacuous. *)
  let log, _ = record_det () in
  let b = Sch.boundaries log in
  let total = Array.fold_left (fun a per -> a + Array.length per) 0 b in
  check_bool "recorded some overflow boundaries" true (total > 50);
  Array.iter
    (fun per ->
      Array.iteri
        (fun i ic ->
          check_bool "positive" true (ic > 0);
          if i > 0 then check_bool "strictly ascending" true (ic > per.(i - 1)))
        per)
    b

let test_pthreads_pinning () =
  (* A pthreads log pins one seeded interleaving: replaying it must
     reproduce the final workspace hash exactly, byte-identically across
     repetitions. *)
  List.iter
    (fun seed ->
      let prog = program_of "histogram" in
      let log, res = Sch.record Runtime.Run.pthreads ~seed ~nthreads:8 prog in
      let outcomes = List.init 5 (fun _ -> Rep.replay log prog) in
      List.iter
        (fun o ->
          check_bool "pthreads replay ok" true (Rep.ok o);
          check_string "workspace hash reproduced" res.Res.mem_hash
            o.Rep.result.Res.mem_hash)
        outcomes;
      let witnesses =
        List.map (fun o -> Res.deterministic_witness o.Rep.result) outcomes
      in
      check_int "byte-identical across 5 repetitions" 1
        (List.length (List.sort_uniq compare witnesses)))
    [ 2; 9; 23 ]

let prop_registry_record_replay =
  (* E2E: record -> replay is hash-identical for registry workloads under
     consequence-ic, for arbitrary seeds. *)
  let names = Array.of_list Workload.Registry.names in
  QCheck.Test.make ~name:"registry workloads: record -> replay is hash-identical" ~count:10
    QCheck.(pair (int_bound (Array.length names - 1)) (int_range 1 50))
    (fun (k, seed) ->
      let prog = program_of names.(k) in
      let log, res = Sch.record Runtime.Run.consequence_ic ~seed ~nthreads:4 prog in
      let o = Rep.replay log prog in
      Rep.ok o && o.Rep.result.Res.mem_hash = res.Res.mem_hash)

let prop_pthreads_replay_byte_identical =
  QCheck.Test.make ~name:"pthreads: replay byte-identical across 5 repetitions per seed"
    ~count:6
    QCheck.(int_range 1 1000)
    (fun seed ->
      let prog = program_of "histogram" in
      let log, _ = Sch.record Runtime.Run.pthreads ~seed ~nthreads:4 prog in
      let witnesses =
        List.init 5 (fun _ -> Res.deterministic_witness (Rep.replay log prog).Rep.result)
      in
      List.length (List.sort_uniq compare witnesses) = 1 && Rep.ok (Rep.replay log prog))

let test_whole_registry_once () =
  (* Deterministic sweep over every workload (the qcheck property above
     samples; this covers). *)
  List.iter
    (fun name ->
      let prog = program_of name in
      let log, _ = Sch.record Runtime.Run.consequence_ic ~seed:1 ~nthreads:4 prog in
      let o = Rep.replay log prog in
      if not (Rep.ok o) then
        Alcotest.failf "replay of %s diverged: %s" name
          (Format.asprintf "%a" Rep.pp_outcome o))
    Workload.Registry.names

let test_domains_log_replays_on_des () =
  (* A schedule recorded under the real-multicore runtime must resolve
     by name ("consequence-ic-domains" is not in [Run.all]) and replay
     on the scripted DES with identical witnesses — regression for the
     [runtime_of] lookup.  The event-by-event walk is skipped for
     domains logs (their global interleave is timing-dependent), so
     faithfulness here means witness identity, not stream identity. *)
  let prog = program_of "kmeans" in
  let log, res = Sch.record Runtime.Run.domains ~seed:3 ~nthreads:8 prog in
  check_string "log names the domains preset" "consequence-ic-domains"
    log.Sch.meta.Sch.runtime;
  let o = Rep.replay log prog in
  check_bool "replay ok" true (Rep.ok o);
  check_bool "no divergence reported" true (o.Rep.divergence = None);
  check_int "event walk skipped" 0 o.Rep.checked;
  check_bool "witnesses match" true o.Rep.hash_match;
  check_string "same mem hash" res.Res.mem_hash o.Rep.result.Res.mem_hash

(* ------------------------------------------------------------------ *)
(* Recording neutrality                                               *)
(* ------------------------------------------------------------------ *)

let test_record_is_simulation_neutral () =
  (* The observer charges no simulated time: a recorded run's wall time
     and witnesses are identical to an untracked run's. *)
  List.iter
    (fun rt ->
      let prog = program_of "kmeans" in
      let bare = Runtime.Run.run rt ~seed:5 ~nthreads:8 prog in
      let _, recorded = Sch.record rt ~seed:5 ~nthreads:8 prog in
      check_int "wall_ns identical" bare.Res.wall_ns recorded.Res.wall_ns;
      check_string "witness identical" (Res.deterministic_witness bare)
        (Res.deterministic_witness recorded))
    [ Runtime.Run.consequence_ic; Runtime.Run.consequence_rr; Runtime.Run.pthreads ]

(* ------------------------------------------------------------------ *)
(* Divergence localization                                            *)
(* ------------------------------------------------------------------ *)

(* The chunk ordinal of [tid] at event [index]: chunk-end boundaries
   recorded before it (computed independently of Schedule.chunk_of). *)
let expected_chunk events ~index ~tid =
  let c = ref 0 in
  Array.iteri
    (fun i ev ->
      match ev with
      | Ev.Boundary { tid = t; overflow = false; _ } when i < index && t = tid -> incr c
      | _ -> ())
    events;
  !c

let find_event ?(from = 0) events p =
  let found = ref None in
  Array.iteri (fun i ev -> if !found = None && i >= from && p ev then found := Some i) events;
  match !found with Some i -> i | None -> Alcotest.fail "expected event kind not recorded"

let perturbed_replay log events = Rep.replay { log with Sch.events } (program_of "kmeans")

let test_divergence_localizes_commit_hash () =
  (* Corrupt one recorded commit digest late in the log: the divergence
     detector must name exactly that event, its thread and its chunk. *)
  let log, _ = record_det () in
  let events = Array.copy log.Sch.events in
  let n = Array.length events in
  let i =
    find_event ~from:(n / 2) events (function Ev.Commit_hash _ -> true | _ -> false)
  in
  let tid =
    match events.(i) with
    | Ev.Commit_hash { tid; version; _ } ->
        events.(i) <- Ev.Commit_hash { tid; version; hash = "deadbeef" };
        tid
    | _ -> assert false
  in
  let o = perturbed_replay log events in
  match o.Rep.divergence with
  | None -> Alcotest.fail "perturbed log replayed without divergence"
  | Some d ->
      check_int "localized to the perturbed event" i d.Rep.index;
      check_int "correct thread" tid d.Rep.tid;
      check_int "correct chunk index" (expected_chunk events ~index:i ~tid) d.Rep.chunk_index;
      check_int "all prior events matched" i o.Rep.checked;
      check_bool "expected is the corrupted digest" true (d.Rep.expected = Some events.(i));
      check_bool "actual is the true digest" true
        (match d.Rep.actual with
        | Some (Ev.Commit_hash { hash; _ }) -> hash <> "deadbeef"
        | _ -> false);
      check_bool "context contains the divergence point" true (List.mem_assoc i d.Rep.context)

let test_divergence_localizes_chunk_end () =
  (* Chunk-end boundaries are placed by the program's own sync ops, so a
     shifted one cannot be reproduced and must be flagged at its exact
     stream position. *)
  let log, _ = record_det () in
  let events = Array.copy log.Sch.events in
  let i =
    find_event events (function Ev.Boundary { overflow = false; _ } -> true | _ -> false)
  in
  let tid =
    match events.(i) with
    | Ev.Boundary { tid; ic; overflow = false } ->
        events.(i) <- Ev.Boundary { tid; ic = ic + 1; overflow = false };
        tid
    | _ -> assert false
  in
  let o = perturbed_replay log events in
  match o.Rep.divergence with
  | None -> Alcotest.fail "shifted chunk-end replayed without divergence"
  | Some d ->
      check_int "localized to the shifted boundary" i d.Rep.index;
      check_int "correct thread" tid d.Rep.tid;
      check_int "correct chunk index" (expected_chunk events ~index:i ~tid) d.Rep.chunk_index

let test_truncated_log_reports_extra_events () =
  let log, _ = record_det () in
  let n = Array.length log.Sch.events in
  let events = Array.sub log.Sch.events 0 (n / 2) in
  let o = perturbed_replay log events in
  match o.Rep.divergence with
  | None -> Alcotest.fail "truncated log replayed without divergence"
  | Some d ->
      check_int "flagged at the log's end" (n / 2) d.Rep.index;
      check_bool "expected nothing" true (d.Rep.expected = None);
      check_bool "actual is the surplus event" true (d.Rep.actual <> None)

(* A purpose-built abort producer (the KV service itself re-executes
   instead of aborting): each worker commits [requests] increments to one
   of two shared counters.  Per round every worker posts the counter it
   wants in its own claim slot; after the barrier the lowest-numbered
   claimant of each counter commits, and every other claimant aborts
   through [ops.txn_abort] and retries in the next round. *)
let abort_probe =
  let requests = 3 and word = 8 and page = 256 in
  let counter k = k * word and claim t = page + (t * word) in
  let remaining t = (2 * page) + (t * word) in
  let worker ~nthreads id (ops : Api.ops) =
    let seq = ref 0 and retries = ref 0 in
    let all_done () =
      List.for_all (fun t -> ops.Api.read_int ~addr:(remaining t) = 0) (List.init nthreads Fun.id)
    in
    while not (all_done ()) do
      let want = if !seq < requests then (!seq + id) mod 2 else -1 in
      ops.Api.write_int ~addr:(claim id) want;
      ops.Api.barrier_wait 1;
      if want >= 0 then begin
        let winner =
          List.find
            (fun t -> ops.Api.read_int ~addr:(claim t) = want)
            (List.init nthreads Fun.id)
        in
        if winner = id then begin
          ops.Api.write_int ~addr:(counter want) (ops.Api.read_int ~addr:(counter want) + 1);
          incr seq;
          retries := 0
        end
        else begin
          ops.Api.txn_abort ~seq:!seq ~retries:!retries;
          ops.Api.metric_incr "kv:aborts" 1;
          incr retries
        end
      end;
      ops.Api.write_int ~addr:(remaining id) (requests - !seq);
      ops.Api.barrier_wait 2
    done
  in
  Api.make ~name:"abort_probe" ~description:"contended counters with abort/retry"
    ~default_threads:4 ~heap_pages:3 ~page_size:page (fun ~nthreads ops ->
      for t = 0 to nthreads - 1 do
        ops.Api.write_int ~addr:(remaining t) requests
      done;
      ops.Api.barrier_init 1 nthreads;
      ops.Api.barrier_init 2 nthreads;
      List.init nthreads (fun id ->
          ops.Api.spawn ~name:(Printf.sprintf "w%d" id) (worker ~nthreads id))
      |> List.iter ops.Api.join;
      ops.Api.log_output
        (Printf.sprintf "counters %d %d" (ops.Api.read_int ~addr:(counter 0))
           (ops.Api.read_int ~addr:(counter 1))))

let test_kv_abort_events_recorded_and_checked () =
  (* Transaction aborts are first-class deterministic events: the
     recorded stream must carry one per [txn_abort] call, a faithful
     replay must walk straight through, and corrupting one abort's retry
     count must be flagged at exactly that stream position. *)
  let log, res = Sch.record Runtime.Run.consequence_ic ~seed:1 ~nthreads:4 abort_probe in
  let aborts =
    Array.fold_left
      (fun n ev -> match ev with Ev.Txn_abort _ -> n + 1 | _ -> n)
      0 log.Sch.events
  in
  check_int "abort events recorded"
    (Obs.Metrics.counter_value res.Res.metrics "kv:aborts")
    aborts;
  check_bool "contended probe actually aborts" true (aborts > 0);
  let o = Rep.replay log abort_probe in
  check_bool "faithful replay" true (Rep.ok o);
  check_int "every event checked" (Sch.length log) o.Rep.checked;
  let events = Array.copy log.Sch.events in
  let i = find_event events (function Ev.Txn_abort _ -> true | _ -> false) in
  (match events.(i) with
  | Ev.Txn_abort { tid; seq; retries } ->
      events.(i) <- Ev.Txn_abort { tid; seq; retries = retries + 1 }
  | _ -> assert false);
  let o = Rep.replay { log with Sch.events } abort_probe in
  match o.Rep.divergence with
  | None -> Alcotest.fail "corrupted abort event replayed without divergence"
  | Some d -> check_int "localized to the corrupted abort" i d.Rep.index

(* ------------------------------------------------------------------ *)
(* JSON round-trips                                                   *)
(* ------------------------------------------------------------------ *)

let gen_event =
  let open QCheck.Gen in
  let tid = int_bound 64 in
  let short_string = string_size ~gen:printable (int_range 0 12) in
  oneof
    [
      map3 (fun tid version pages -> Ev.Commit { tid; version; pages }) tid (int_bound 5000)
        (list_size (int_bound 6) (int_bound 255));
      map2 (fun tid obj -> Ev.Release { tid; obj }) tid short_string;
      map2 (fun tid obj -> Ev.Acquire { tid; obj }) tid short_string;
      map3
        (fun (tid, version) (page, first_byte) (last_byte, (loser_tid, loser_version)) ->
          Ev.Conflict { tid; version; page; first_byte; last_byte; loser_tid; loser_version })
        (pair tid (int_bound 5000))
        (pair (int_bound 255) (int_bound 4096))
        (pair (int_bound 4096) (pair tid (int_bound 5000)));
      map3 (fun tid ic overflow -> Ev.Boundary { tid; ic; overflow }) tid (int_bound 1_000_000)
        bool;
      map3 (fun tid version hash -> Ev.Commit_hash { tid; version; hash }) tid (int_bound 5000)
        short_string;
      map3 (fun tid seq retries -> Ev.Txn_abort { tid; seq; retries }) tid (int_bound 10_000)
        (int_bound 32);
    ]

let arb_event = QCheck.make ~print:(Format.asprintf "%a" Ev.pp) gen_event

let prop_event_json_roundtrip =
  QCheck.Test.make ~name:"Rt_event.of_json inverts to_json" ~count:500 arb_event (fun ev ->
      match Ev.of_json (Ev.to_json ev) with Ok ev' -> ev = ev' | Error _ -> false)

let prop_event_json_roundtrip_through_text =
  (* Through the printer and parser, as the .schedule.json files are. *)
  QCheck.Test.make ~name:"Rt_event JSON survives print + parse" ~count:200 arb_event (fun ev ->
      match Obs.Json.parse (Obs.Json.to_string (Ev.to_json ev)) with
      | Ok j -> Ev.of_json j = Ok ev
      | Error _ -> false)

let test_event_of_json_errors () =
  let check_err j =
    match Ev.of_json j with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "malformed event accepted"
  in
  check_err (Obs.Json.Obj [ ("kind", Obs.Json.String "nonsense") ]);
  check_err (Obs.Json.Obj [ ("kind", Obs.Json.String "commit"); ("tid", Obs.Json.Int 1) ]);
  check_err
    (Obs.Json.Obj
       [
         ("kind", Obs.Json.String "boundary");
         ("tid", Obs.Json.String "oops");
         ("ic", Obs.Json.Int 3);
         ("overflow", Obs.Json.Bool true);
       ]);
  check_err Obs.Json.Null

let test_schedule_file_roundtrip () =
  let log, _ = record_det () in
  let path = Filename.temp_file "consequence" ".schedule.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sch.save log path;
      match Sch.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok log' ->
          check_bool "meta round-trips" true (log'.Sch.meta = log.Sch.meta);
          check_bool "events round-trip" true (log'.Sch.events = log.Sch.events));
  match Sch.load "/nonexistent/file.schedule.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing file succeeded"

(* ------------------------------------------------------------------ *)
(* Scripted overflow policy                                           *)
(* ------------------------------------------------------------------ *)

let test_scripted_policy_intervals () =
  let p = Ofp.create (Ofp.Scripted [| 10; 25; 40 |]) in
  check_int "first boundary" 10 (Ofp.next_interval ~ic:0 p ~waiter_gap:0);
  check_int "from inside first gap" 3 (Ofp.next_interval ~ic:7 p ~waiter_gap:0);
  check_int "skips passed boundaries" 5 (Ofp.next_interval ~ic:20 p ~waiter_gap:0);
  check_int "exact hit advances" 15 (Ofp.next_interval ~ic:25 p ~waiter_gap:123);
  check_bool "exhausted script publishes only at sync ops" true
    (Ofp.next_interval ~ic:40 p ~waiter_gap:0 > 1_000_000_000);
  check_int "intervals handed out" 5 (Ofp.overflows_scheduled p)

let test_scripted_policy_validation () =
  let must_reject b =
    match Ofp.create (Ofp.Scripted b) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid script accepted"
  in
  must_reject [| 5; 5 |];
  must_reject [| 10; 7 |];
  must_reject [| 0 |];
  ignore (Ofp.create (Ofp.Scripted [||]));
  ignore (Ofp.create (Ofp.Scripted [| 1 |]))

(* ------------------------------------------------------------------ *)
(* Explorer                                                           *)
(* ------------------------------------------------------------------ *)

let test_explorer_invariants () =
  let log, _ = record_det () in
  let r = Exp.explore ~variants:8 log (program_of "kmeans") in
  check_bool "generated variants" true (List.length r.Exp.variants >= 4);
  check_bool "schedules genuinely differed" true (r.Exp.distinct_timings > 1);
  check_int "single witness across the neighborhood" 1 r.Exp.distinct_witnesses;
  check_bool "deterministic" true r.Exp.deterministic;
  check_bool "race verdicts stable" true r.Exp.conflicts_stable

let test_explorer_is_deterministic () =
  let log, _ = record_det () in
  let prog = program_of "kmeans" in
  let a = Exp.explore ~variants:5 ~seed:11 log prog in
  let b = Exp.explore ~variants:5 ~seed:11 log prog in
  check_bool "same exploration for same seed" true
    (List.map (fun v -> (v.Exp.description, v.Exp.witness)) a.Exp.variants
    = List.map (fun v -> (v.Exp.description, v.Exp.witness)) b.Exp.variants)

let test_explorer_rejects_pthreads () =
  let log, _ = Sch.record Runtime.Run.pthreads ~seed:2 ~nthreads:4 (program_of "histogram") in
  match Exp.explore ~variants:2 log (program_of "histogram") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "explorer accepted a pthreads log"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "replay"
    [
      ( "faithful",
        [
          Alcotest.test_case "det replay reproduces run" `Quick test_det_replay_faithful;
          Alcotest.test_case "boundaries recorded and sane" `Quick
            test_det_replay_has_boundaries;
          Alcotest.test_case "pthreads pinning x5" `Quick test_pthreads_pinning;
          Alcotest.test_case "whole registry" `Quick test_whole_registry_once;
          Alcotest.test_case "domains log replays on the DES" `Quick
            test_domains_log_replays_on_des;
          QCheck_alcotest.to_alcotest prop_registry_record_replay;
          QCheck_alcotest.to_alcotest prop_pthreads_replay_byte_identical;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "recording charges no simulated time" `Quick
            test_record_is_simulation_neutral;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "commit-hash corruption localized" `Quick
            test_divergence_localizes_commit_hash;
          Alcotest.test_case "shifted chunk-end localized" `Quick
            test_divergence_localizes_chunk_end;
          Alcotest.test_case "kv abort events recorded and checked" `Quick
            test_kv_abort_events_recorded_and_checked;
          Alcotest.test_case "truncated log flagged" `Quick
            test_truncated_log_reports_extra_events;
        ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_event_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_event_json_roundtrip_through_text;
          Alcotest.test_case "of_json rejects malformed" `Quick test_event_of_json_errors;
          Alcotest.test_case "schedule file round-trip" `Quick test_schedule_file_roundtrip;
        ] );
      ( "scripted-policy",
        [
          Alcotest.test_case "interval arithmetic" `Quick test_scripted_policy_intervals;
          Alcotest.test_case "validation" `Quick test_scripted_policy_validation;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "invariants" `Quick test_explorer_invariants;
          Alcotest.test_case "seeded determinism" `Quick test_explorer_is_deterministic;
          Alcotest.test_case "rejects pthreads logs" `Quick test_explorer_rejects_pthreads;
        ] );
    ]
