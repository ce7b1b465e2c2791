(* The repository benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   One process, one workload, Sim.Par at one job.  A run has five phases:

   1. set-up, [setup_reps] times: build the workload's programs and make
      one warm-up call per program; set-up is also repeated before every
      untraced timed pass (outside its clock), so its samples span the
      run, and setup_s is their median;
   2. a verification pass at --seed, untimed: its results give every sim
      metric, and each item is checked (no exception, KV oracle, checked
      replay, profile conservation);
   3. the timed phase: whole passes until --seconds have elapsed, tracing
      off; each pass must reproduce the verification pass exactly.
      host_s is the fastest pass, host_peak_heap_mb the median over passes
      of the largest major heap seen between a pass's items;
   4. with --trace 1 only, the timed phase is halved and followed by
      traced passes for the other half, whose spans give the per-layer
      host metrics and are written to .perfbench/spans-<workload>-seed<N>.json;
   5. a witness pass at a second seed, untimed: every deterministic run
      must reproduce its witness.

   Every metric is tagged with its clock: [sim] metrics are simulated ns
   or counts and exact for a seed; [host] metrics are the real time and
   memory it takes to run the simulator.  The last stdout line is the
   JSON result: the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1. *)

module R = Stats.Run_result
module W = Workloads

let setup_reps = 5

(* trace.coverage must reach this: the entry-point spans must account for
   all but this share of each traced pass's wall time. *)
let coverage_floor = 0.97

(* Where the traced run writes its spans, relative to the checkout root. *)
let spans_dir = ".perfbench"

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

let geomean = function
  | [] -> 0.0
  | xs -> exp (sum log xs /. float_of_int (List.length xs))

(* One histogram from several runs' histograms of the same name: the
   bucket bounds are fixed powers of two, so counts add bucket by bucket. *)
let pooled_hist name (results : R.t list) =
  let hs = List.filter_map (fun (r : R.t) -> Obs.Metrics.find_hist r.metrics name) results in
  let buckets = Hashtbl.create 64 in
  List.iter
    (fun (h : Obs.Metrics.hist) ->
      List.iter
        (fun (ub, c) ->
          Hashtbl.replace buckets ub (c + Option.value (Hashtbl.find_opt buckets ub) ~default:0))
        h.buckets)
    hs;
  {
    Obs.Metrics.hname = name;
    count = isum (fun (h : Obs.Metrics.hist) -> h.count) hs;
    sum = isum (fun (h : Obs.Metrics.hist) -> h.sum) hs;
    min_v = List.fold_left (fun m (h : Obs.Metrics.hist) -> min m h.min_v) max_int hs;
    max_v = List.fold_left (fun m (h : Obs.Metrics.hist) -> max m h.max_v) 0 hs;
    buckets = List.sort compare (Hashtbl.fold (fun ub c acc -> (ub, c) :: acc) buckets []);
  }

let percentile h q = if h.Obs.Metrics.count = 0 then 0.0 else Obs.Metrics.percentile h q

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type clock = Sim | Host

type metric = { name : string; unit_ : string; clock : clock; value : float }

let m clock name unit_ value = { name; unit_; clock; value }
let clock_name = function Sim -> "sim" | Host -> "host"

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

(* A pass keeps, per item, what [keep] extracts from its outcome: the
   verification pass keeps everything, a timed pass only the fingerprint,
   so timed passes do not accumulate results on the heap. *)
type 'a pass = {
  out : ('a, string) result array;  (** per item; [Error] if it raised *)
  wall_s : float;
  peak_heap_mb : float;  (** largest major heap seen between the pass's items *)
  alloc_mwords : float;
  minor_gcs : int;
  major_gcs : int;
}

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let run_pass ?(states = false) ~keep ~seed ~id items =
  let peak_words = ref 0 in
  Spans.workload := id;
  let gc0 = Gc.quick_stat () in
  let a0 = allocated_words () in
  let t0 = Spans.now_ns () in
  let out =
    Spans.with_span ~layer:"bench" ~name:"pass" ~label:id (fun () ->
        Array.map
          (fun (it : W.item) ->
            let r =
              match it.exec ~seed ~states with
              | o -> Ok (keep o)
              | exception e -> Error (Printexc.to_string e)
            in
            peak_words := max !peak_words (Gc.quick_stat ()).heap_words;
            r)
          items)
  in
  let wall_s = float_of_int (Spans.now_ns () - t0) /. 1e9 in
  let gc1 = Gc.quick_stat () in
  {
    out;
    wall_s;
    peak_heap_mb = float_of_int (!peak_words * (Sys.word_size / 8)) /. 1e6;
    alloc_mwords = (allocated_words () -. a0) /. 1e6;
    minor_gcs = gc1.minor_collections - gc0.minor_collections;
    major_gcs = gc1.major_collections - gc0.major_collections;
  }

(* The fingerprint a repeated pass must reproduce. *)
let fingerprint (o : W.obs) = (o.result.wall_ns, R.deterministic_witness o.result)

(* Passes until [seconds] have elapsed (at least one).  Each starts after
   a full major collection, so no pass pays for another's garbage; the
   collection is outside the pass's clock. *)
let timed_passes ?(between = ignore) ~seconds ~seed ~name ~first items =
  let t0 = Unix.gettimeofday () in
  let rec go k acc =
    if k > first && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else begin
      between ();
      Gc.compact ();
      go (k + 1) (run_pass ~keep:fingerprint ~seed ~id:(Printf.sprintf "%s#%d" name k) items :: acc)
    end
  in
  go first []

(* The host time of a pass: its fastest timed repetition.  Other tenants
   of a shared machine only ever add time to a pass, so the minimum is the
   steadiest estimate of what the code itself costs. *)
let fastest passes = List.fold_left (fun acc p -> Float.min acc p.wall_s) infinity passes

(* Every reason an item fails: the checks of the verification pass, the
   witness at the second seed, and any timed pass that raised or did not
   reproduce the verification pass. *)
let item_failures ~seed2 (items : W.item array) (verify : W.obs pass) timed =
  Array.to_list
    (Array.mapi
       (fun i (it : W.item) ->
         let label = W.label it.call in
         match verify.out.(i) with
         | Error e -> [ label ^ ": raised " ^ e ]
         | Ok o ->
             let fail cond what = if cond then [ label ^ ": " ^ what ] else [] in
             let witness_differs =
               it.call.deterministic
               &&
               match it.witness ~seed:seed2 with
               | w -> w <> R.deterministic_witness o.result
               | exception _ -> true
             in
             let repeats_differ =
               List.exists
                 (fun p ->
                   match p.out.(i) with Ok f -> f <> fingerprint o | Error _ -> true)
                 timed
             in
             fail witness_differs (Printf.sprintf "witness differs at seed %d" seed2)
             @ fail (o.oracle_ok = Some false) "Kv.Oracle.check failed"
             @ fail (o.replay_ok = Some false) "replay not Replayer.ok"
             @ fail (o.conserved = Some false) "profile fails conservation_ok"
             @ fail repeats_differ "a timed pass raised or did not reproduce the verification pass")
       items)
  |> List.filter (fun l -> l <> [])

(* ------------------------------------------------------------------ *)
(* Sim metrics (from the verification pass)                            *)
(* ------------------------------------------------------------------ *)

let ok_obs p = Array.to_list p.out |> List.filter_map Result.to_option

let paper_metrics (items : W.item array) (verify : W.obs pass) =
  let best = Hashtbl.create 128 in
  Array.iteri
    (fun i (it : W.item) ->
      match verify.out.(i) with
      | Ok o ->
          let key = (it.call.program, it.call.preset) in
          let w = float_of_int o.result.wall_ns in
          Hashtbl.replace best key
            (match Hashtbl.find_opt best key with Some b -> Float.min b w | None -> w)
      | Error _ -> ())
    items;
  let best_of p rt = Option.value (Hashtbl.find_opt best (p, Runtime.Run.name rt)) ~default:nan in
  let programs =
    List.sort_uniq compare (Array.to_list (Array.map (fun (it : W.item) -> it.call.program) items))
  in
  let slowdowns =
    List.map
      (fun p -> best_of p Runtime.Run.consequence_ic /. best_of p Runtime.Run.pthreads)
      programs
  in
  let hardest =
    List.map
      (fun p -> best_of p Runtime.Run.dthreads /. best_of p Runtime.Run.consequence_ic)
      Workload.Registry.hardest_five
  in
  let hardest5 = sum Fun.id hardest /. float_of_int (List.length hardest) in
  [
    m Sim "sim_slowdown_ic_geomean" "x" (geomean slowdowns);
    m Sim "sim_hardest5_ic_vs_dthreads" "x" hardest5;
    m Sim "sim_hardest5_error_vs_paper" "frac" ((hardest5 -. 2.8) /. 2.8);
  ]

let kv_counter name (o : W.obs) = Obs.Metrics.counter_value o.result.metrics name

let kv_metrics obs =
  let results = List.map (fun (o : W.obs) -> o.result) obs in
  let req = pooled_hist "kv:req_ns" results in
  let sim_s = sum (fun (r : R.t) -> float_of_int r.wall_ns) results /. 1e9 in
  let completed = float_of_int (isum (fun (o : W.obs) -> o.kv_completed) obs) in
  [
    m Sim "kv_req_per_sim_s" "1/s" (ratio completed sim_s);
    m Sim "kv_req_p50_sim_us" "us" (percentile req 0.50 /. 1e3);
    m Sim "kv_req_p99_sim_us" "us" (percentile req 0.99 /. 1e3);
    m Sim "kv_req_samples" "count" (float_of_int req.count);
    m Sim "kv_aborts_per_commit" "x"
      (ratio
         (float_of_int (isum (kv_counter "kv:aborts") obs))
         (float_of_int (isum (kv_counter "kv:commits") obs)));
  ]

(* Simulated time of every bare run in a pass; applies to every workload. *)
let sim_run_metrics obs =
  [
    m Sim "sim_run_ms_geomean" "ms"
      (geomean (List.map (fun (o : W.obs) -> float_of_int o.result.wall_ns /. 1e6) obs));
  ]

(* Per-layer sim counts: exact sums over the verification pass. *)
let layer_sim_metrics obs =
  let results = List.map (fun (o : W.obs) -> o.result) obs in
  let cnt f = float_of_int (isum f results) in
  let module B = Stats.Breakdown in
  let breakdown =
    List.fold_left (fun acc r -> B.merge acc (R.aggregate_breakdown r)) (B.create ()) results
  in
  let bshare c = ratio (float_of_int (B.get breakdown c)) (float_of_int (B.total breakdown))
  in
  let states = List.filter_map (fun (o : W.obs) -> o.states) obs in
  let state_ns st = isum (fun a -> a.(Obs.Thread_state.index st)) states in
  let state_total = isum (Array.fold_left ( + ) 0) states in
  let sshare st = ratio (float_of_int (state_ns st)) (float_of_int state_total) in
  let commits = float_of_int (isum (kv_counter "kv:commits") obs) in
  let aborts = float_of_int (isum (kv_counter "kv:aborts") obs) in
  [
    m Sim "sim.trace_events" "count" (cnt (fun r -> r.trace_events));
    m Sim "runtime.sync_ops" "count" (cnt (fun r -> r.sync_ops));
    m Sim "runtime.coarsened_chunks" "count" (cnt (fun r -> r.coarsened_chunks));
    m Sim "detclock.token_acquisitions" "count" (cnt (fun r -> r.token_acquisitions));
    m Sim "detclock.overflow_interrupts" "count" (cnt (fun r -> r.overflow_interrupts));
    m Sim "detclock.token_wait_share" "frac" (bshare Stats.Breakdown.Determ_wait);
    m Sim "detclock.determ_wait_p99_sim_ns" "ns"
      (percentile (pooled_hist "determ_wait_ns" results) 0.99);
    m Sim "vmem.pages_committed" "count" (cnt (fun r -> r.pages_committed));
    m Sim "vmem.pages_merged" "count" (cnt (fun r -> r.pages_merged));
    m Sim "vmem.bytes_merged" "count" (cnt (fun r -> r.bytes_merged));
    m Sim "vmem.write_faults" "count" (cnt (fun r -> r.write_faults));
    m Sim "vmem.pages_propagated" "count" (cnt (fun r -> r.pages_propagated));
    m Sim "vmem.peak_mem_pages" "count"
      (float_of_int (List.fold_left (fun acc (r : R.t) -> max acc r.peak_mem_pages) 0 results));
    m Sim "vmem.versions" "count" (cnt (fun r -> r.versions));
    m Sim "vmem.commit_share" "frac" (bshare Stats.Breakdown.Commit);
    m Sim "vmem.update_share" "frac" (bshare Stats.Breakdown.Update);
    m Sim "vmem.fault_share" "frac" (bshare Stats.Breakdown.Page_fault);
    m Sim "kv.commits" "count" commits;
    m Sim "kv.aborts" "count" aborts;
    m Sim "kv.commit_ratio" "frac" (ratio commits (commits +. aborts));
    m Sim "kv.validate_share" "frac" (sshare Obs.Thread_state.Txn_validate);
    m Sim "kv.abort_share" "frac" (sshare Obs.Thread_state.Txn_abort);
    m Sim "replay.events" "count" (float_of_int (isum (fun (o : W.obs) -> o.schedule_events) obs));
    m Sim "prof.intervals" "count" (float_of_int (isum (fun (o : W.obs) -> o.intervals) obs));
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer host metrics (from the traced passes' spans)              *)
(* ------------------------------------------------------------------ *)

let count_of s key = Option.value (List.assoc_opt key s.Spans.counts) ~default:0.0

(* Host metrics of one traced pass, from its spans' self times. *)
let layer_host_of_pass ~kv_completed spans =
  let selfs = Spans.self_times spans in
  let self_s pred = sum (fun (s, ns) -> if pred s then float_of_int ns /. 1e9 else 0.0) selfs in
  let named n (s : Spans.t) = s.name = n in
  let runs = List.filter (named "Run.run") spans in
  let run_s = self_s (named "Run.run") in
  let pass_s =
    sum (fun s -> float_of_int (Spans.duration s) /. 1e9) (List.filter (named "pass") spans)
  in
  let record_s = self_s (named "Schedule.record") in
  let replay_s = self_s (named "Replayer.replay") in
  let events = sum (fun s -> count_of s "events") (List.filter (named "Schedule.record") spans) in
  let per_preset =
    List.map
      (fun rt ->
        let p = Runtime.Run.name rt in
        m Host ("runtime.host_s." ^ p) "s"
          (self_s (fun s -> s.name = "Run.run" && W.preset_of_label s.label = p)))
      Runtime.Run.all
  in
  per_preset
  @ [
      m Host "sim.minstr_per_host_s" "Minstr/s"
        (ratio (sum (fun s -> count_of s "instructions") runs /. 1e6) run_s);
      m Host "runtime.host_ns_per_sync_op" "ns"
        (ratio (run_s *. 1e9) (sum (fun s -> count_of s "sync_ops") runs));
      m Host "kv.host_ms_per_request" "ms" (ratio (run_s *. 1e3) kv_completed);
      m Host "kv.oracle_host_s" "s" (self_s (named "Oracle.check"));
      m Host "replay.record_overhead_x" "x" (ratio record_s run_s);
      m Host "replay.replay_overhead_x" "x" (ratio replay_s run_s);
      m Host "replay.events_per_host_s" "1/s" (ratio events replay_s);
      m Host "prof.collect_overhead_x" "x" (ratio (self_s (named "Prof.Report.run")) run_s);
      m Host "trace.coverage" "frac" (ratio (self_s (fun s -> s.layer <> "bench")) pass_s);
    ]

(* Median of each metric over several lists of the same metrics. *)
let median_metrics = function
  | [] -> []
  | first :: _ as all ->
      List.map
        (fun mt ->
          let vs = List.map (fun l -> (List.find (fun x -> x.name = mt.name) l).value) all in
          { mt with value = median vs })
        first

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print_metric wl mt =
  Printf.printf "%-14s %-34s %18.6f %-9s [%s]\n" wl mt.name mt.value mt.unit_ (clock_name mt.clock)

let result_json ~correct ~attempted ~failed metrics =
  let open Obs.Json in
  Obj
    [
      ("correct", Bool correct);
      ("attempted", Int attempted);
      ("failed", Int failed);
      ( "metrics",
        Obj
          (List.map
             (fun mt -> (mt.name, Obj [ ("value", Float mt.value); ("unit", String mt.unit_) ]))
             metrics) );
    ]

let write_spans ~dir ~wl ~seed spans =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" wl seed) in
  Obs.Json.to_file file
    (Obs.Json.Obj
       [
         ("workload", Obs.Json.String wl);
         ("seed", Obs.Json.Int seed);
         ("spans", Spans.to_json spans);
       ]);
  file

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let usage =
  Printf.sprintf "perfbench.exe --workload {%s} --seed N --seconds S --trace 0|1"
    (String.concat "|" (List.map (fun (w : W.t) -> w.name) W.all))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed passed to every run");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let wl =
    match W.find !workload with
    | Some w -> w
    | None ->
        prerr_endline usage;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  Sim.Par.set_jobs 1;
  let seed = !seed in
  let seed2 = seed + 1 in
  (* 1. set-up *)
  let setup_times = ref [] in
  let setup () =
    let t0 = Unix.gettimeofday () in
    let items = wl.setup ~seed in
    setup_times := (Unix.gettimeofday () -. t0) :: !setup_times;
    items
  in
  for _ = 2 to setup_reps do
    ignore (setup ())
  done;
  let items = Array.of_list (setup ()) in
  (* 2. verification pass *)
  let verify =
    run_pass ~states:wl.state_shares ~keep:Fun.id ~seed ~id:(wl.name ^ "#verify") items
  in
  let obs = ok_obs verify in
  (* 3. timed phase (untraced) *)
  let timed_s = if !trace = 1 then !seconds /. 2.0 else !seconds in
  let timed =
    (* Each interleaved set-up starts, like the pass after it, from a
       collected heap, so it does not pay for the previous pass's garbage. *)
    let between () =
      Gc.compact ();
      ignore (setup ())
    in
    timed_passes ~between ~seconds:timed_s ~seed ~name:wl.name
      ~first:0 items
  in
  let setup_s = median !setup_times in
  (* 4. traced passes *)
  let traced =
    if !trace = 1 then begin
      Spans.enabled := true;
      let ps = timed_passes ~seconds:timed_s ~seed ~name:wl.name ~first:(List.length timed) items in
      Spans.enabled := false;
      ps
    end
    else []
  in
  (* 5. witness pass and the per-item verdicts *)
  let failures = item_failures ~seed2 items verify (timed @ traced) in
  List.iter (fun l -> prerr_endline ("FAILED " ^ String.concat "; " l)) failures;
  let attempted = Array.length items in
  let failed = List.length failures in
  let failed_frac = m Sim "failed_frac" "frac" (float_of_int failed /. float_of_int attempted) in
  let host_s = fastest timed in
  let sim_specific =
    match wl.name with
    | "paper_suite" -> paper_metrics items verify
    | "kv_skewed" | "kv_spread" -> kv_metrics obs
    | _ -> []
  in
  (* The metrics of BENCHMARK.json's end_to_end list, in the JSON result. *)
  let end_to_end =
    [
      m Host "setup_s" "s" setup_s;
      m Host "host_alloc_mwords" "Mwords" (median (List.map (fun p -> p.alloc_mwords) timed));
      m Host "host_peak_heap_mb" "MB" (median (List.map (fun p -> p.peak_heap_mb) timed));
    ]
    @ sim_run_metrics obs
  in
  Printf.printf "# %s seed %d (witness seed %d), %d items, %d timed passes, %d traced passes\n"
    wl.name seed seed2 attempted (List.length timed) (List.length traced);
  Printf.printf "# set-up s: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !setup_times));
  Printf.printf "# timed pass wall s: %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.4f" p.wall_s) timed));
  (* Reported but not in the JSON result: each applies to some workloads
     only, is 0 when all is well (failed_frac), or drifts on a shared
     machine by more than any bound the result may carry (host_s). *)
  let report_only = (m Host "host_s" "s" host_s :: sim_specific) @ [ failed_frac ] in
  List.iter (print_metric wl.name) (end_to_end @ report_only);
  let correct, reported =
    if !trace = 0 then (failed = 0, end_to_end)
    else begin
      let spans = Spans.all () in
      let file = write_spans ~dir:spans_dir ~wl:wl.name ~seed spans in
      let kv_completed = float_of_int (isum (fun (o : W.obs) -> o.kv_completed) obs) in
      let pass_ids = List.sort_uniq compare (List.map (fun (s : Spans.t) -> s.workload) spans) in
      let of_pass id = List.filter (fun (s : Spans.t) -> s.workload = id) spans in
      let host_layers =
        median_metrics (List.map (fun id -> layer_host_of_pass ~kv_completed (of_pass id)) pass_ids)
      in
      let per_pass f = median (List.map (fun p -> float_of_int (f p)) timed) in
      let gc =
        [
          m Host "gc.minor_collections" "count" (per_pass (fun p -> p.minor_gcs));
          m Host "gc.major_collections" "count" (per_pass (fun p -> p.major_gcs));
          m Host "gc.alloc_mwords" "Mwords" (median (List.map (fun p -> p.alloc_mwords) timed));
          m Host "trace.overhead_frac" "frac" (fastest traced /. host_s -. 1.0);
        ]
      in
      let layers = layer_sim_metrics obs @ host_layers @ gc in
      let coverage = (List.find (fun x -> x.name = "trace.coverage") layers).value in
      Printf.printf "# spans: %d written to %s; trace.coverage %.4f (floor %.2f) %s\n"
        (List.length spans) file coverage coverage_floor
        (if coverage >= coverage_floor then "ok" else "BELOW FLOOR");
      List.iter (print_metric wl.name) layers;
      (failed = 0 && coverage >= coverage_floor, layers)
    end
  in
  print_endline
    (Obs.Json.to_string (result_json ~correct ~attempted ~failed reported))
