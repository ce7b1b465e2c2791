(* Tests for the figure-regeneration harness: each figure produces
   well-formed data of the right shape on a reduced sweep. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let quick_threads = [ 2; 4 ]

let test_fig10_shape () =
  let all_rows = Figures.Fig10.measure ~threads:quick_threads () in
  let rows, kv_rows = List.partition Figures.Fig10.in_paper_set all_rows in
  check_int "19 paper rows" 19 (List.length rows);
  check_int "6 kv rows" 6 (List.length kv_rows);
  List.iter
    (fun row ->
      check_int "4 runtimes" 4 (List.length row.Figures.Fig10.ratios);
      List.iter
        (fun (name, ratio) ->
          check_bool (Printf.sprintf "%s/%s positive" row.Figures.Fig10.benchmark name) true
            (ratio > 0.0))
        row.Figures.Fig10.ratios)
    rows

let test_fig10_output_renders () =
  let out = Figures.Fig10.run ~threads:quick_threads () in
  let rendered = Figures.Fig_output.render out in
  check_bool "has table" true (String.length rendered > 200);
  check_int "3 notes" 3 (List.length out.Figures.Fig_output.notes);
  check_int "paper and kv tables" 2 (List.length out.Figures.Fig_output.tables);
  let mentions sub n =
    let k = String.length sub in
    let rec at i = i + k <= String.length n && (String.sub n i k = sub || at (i + 1)) in
    at 0
  in
  check_bool "notes count the paper set" true
    (List.exists (mentions " of 19 paper programs") out.Figures.Fig_output.notes)

let test_fig11_shape () =
  let series = Figures.Fig11.measure ~threads:quick_threads () in
  (* 6 benchmarks x 5 runtimes *)
  check_int "series count" 30 (List.length series);
  List.iter
    (fun s -> check_int "points per series" 2 (List.length s.Figures.Fig11.points))
    series

let test_fig12_shape () =
  let series = Figures.Fig12.measure ~threads:quick_threads () in
  (* 6 benchmarks x 2 runtimes *)
  check_int "series count" 12 (List.length series);
  List.iter
    (fun s ->
      List.iter (fun (_, pages) -> check_bool "peak positive" true (pages > 0)) s.Figures.Fig12.points)
    series

let test_fig13_shape () =
  let rows = Figures.Fig13.measure ~threads:4 () in
  check_int "8 benchmarks" 8 (List.length rows);
  List.iter
    (fun row ->
      check_int "6 optimizations" 6 (List.length row.Figures.Fig13.speedups);
      List.iter
        (fun (_, s) -> check_bool "speedup positive" true (s > 0.0))
        row.Figures.Fig13.speedups)
    rows

let test_fig14_shape () =
  let rows = Figures.Fig14.measure ~threads:4 () in
  (* none + statics + adaptive *)
  check_int "rows" (List.length Figures.Fig14.static_levels + 2) (List.length rows);
  check_bool "has adaptive" true (List.exists (fun r -> r.Figures.Fig14.level = "adaptive") rows)

let test_fig15_shape () =
  let rows = Figures.Fig15.measure ~threads:4 () in
  (* 11 benchmarks, ferret split in two => 12 labels, x3 runtimes *)
  check_int "rows" 36 (List.length rows);
  check_bool "ferret split" true
    (List.exists (fun r -> r.Figures.Fig15.label = "ferret_1") rows
    && List.exists (fun r -> r.Figures.Fig15.label = "ferret_n") rows);
  (* fractions sum to ~1 for nonempty rows *)
  List.iter
    (fun r ->
      if r.Figures.Fig15.total_ns > 0 then begin
        let sum = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 r.Figures.Fig15.fractions in
        check_bool "fractions sum to 1" true (abs_float (sum -. 1.0) < 1e-6)
      end)
    rows

let test_fig16_shape () =
  let results = Figures.Fig16.measure ~threads:4 () in
  check_int "12 benchmarks" 12 (List.length results);
  List.iter
    (fun (r : Hb.Lrc_study.result) ->
      check_bool (r.program ^ " reduction sane") true (Hb.Lrc_study.reduction r <= 1.0))
    results

let test_determinism_report () =
  let rows = Figures.Determinism_report.measure ~threads:2 ~seeds:[ 1; 5 ] () in
  check_int "25 rows" 25 (List.length rows);
  List.iter
    (fun row ->
      List.iter
        (fun (rt, stable) ->
          check_bool (row.Figures.Determinism_report.benchmark ^ "/" ^ rt) true stable)
        row.Figures.Determinism_report.stable)
    rows

let test_tso_report () =
  let verdicts = Figures.Tso_report.measure () in
  (* 7 tests x 5 runtimes *)
  check_int "verdicts" 35 (List.length verdicts);
  List.iter
    (fun (v : Tso.Checker.verdict) ->
      check_bool (v.test_name ^ "/" ^ v.runtime ^ " tso-ok") true v.tso_ok)
    verdicts

let test_climit_study () =
  let rows = Figures.Climit_study.measure () in
  check_int "rows" (List.length Figures.Climit_study.limits) (List.length rows);
  let disabled = List.find (fun r -> r.Figures.Climit_study.limit = None) rows in
  check_bool "livelock without limit" true (disabled.Figures.Climit_study.spin_wall_ns = None);
  List.iter
    (fun r ->
      if r.Figures.Climit_study.limit <> None then begin
        check_bool "terminates with limit" true (r.Figures.Climit_study.spin_wall_ns <> None);
        check_bool "forced commits happened" true (r.Figures.Climit_study.forced_commits > 0)
      end)
    rows

(* The studies count forced commits from the "op:forced-commit" counter;
   it must agree with the "forced-commit" entries of the schedule, which
   the same [record_sync] call produces. *)
let test_forced_commit_counter_matches_schedule () =
  List.iter
    (fun limit ->
      let cfg = Runtime.Config.with_chunk_limit Runtime.Config.consequence_ic limit in
      let schedule, r =
        Runtime.Run.schedule (Runtime.Run.Det cfg) ~seed:1 ~nthreads:2
          Figures.Climit_study.flag_spin
      in
      let in_schedule =
        List.length (List.filter (fun (_, _, label) -> label = "forced-commit") schedule)
      in
      let counted = Obs.Metrics.counter_value r.Stats.Run_result.metrics "op:forced-commit" in
      check_bool "forced commits happened" true (in_schedule > 0);
      check_int (Printf.sprintf "limit %d: counter = schedule entries" limit) in_schedule counted)
    [ 5_000; 100_000 ]

let test_soundness_study () =
  let rows = Figures.Soundness_study.measure ~programs:4 ~threads:4 () in
  let exact = List.find (fun r -> r.Figures.Soundness_study.ppm = 0) rows in
  check_int "exact counters are sound" 0 exact.Figures.Soundness_study.divergent

let test_locking_study () =
  let rows = Figures.Locking_study.measure ~threads:4 () in
  check_int "rows" (1 + List.length Figures.Locking_study.increments) (List.length rows);
  let blocking = List.find (fun r -> r.Figures.Locking_study.variant = "blocking") rows in
  (* Tight polling constants must cost more token traffic than blocking. *)
  let tightest =
    List.find (fun r -> r.Figures.Locking_study.variant = "polling-500") rows
  in
  check_bool "polling inflates token traffic" true
    (tightest.Figures.Locking_study.token_acquisitions
    > blocking.Figures.Locking_study.token_acquisitions)

let test_polling_locks_deterministic () =
  let cfg = Runtime.Config.with_polling_locks Runtime.Config.consequence_ic ~increment:2_000 in
  let p = Workload.Synthetic.make_lock_heavy ~seed:4 () in
  let w seed =
    Stats.Run_result.deterministic_witness (Runtime.Det_rt.run cfg ~seed ~nthreads:4 p)
  in
  Alcotest.(check string) "polling locks deterministic" (w 1) (w 909)

let test_chunking_study () =
  let rows = Figures.Chunking_study.measure ~threads:4 () in
  check_int "rows" (1 + List.length Figures.Chunking_study.chunk_sizes) (List.length rows);
  let sync_only = List.find (fun r -> r.Figures.Chunking_study.variant = "sync-ops-only") rows in
  check_int "no forced commits at sync-only" 0 sync_only.Figures.Chunking_study.forced;
  let smallest = List.find (fun r -> r.Figures.Chunking_study.variant = "chunk-10000") rows in
  check_bool "small chunks force commits" true (smallest.Figures.Chunking_study.forced > 0);
  check_bool "small chunks slower" true
    (smallest.Figures.Chunking_study.wall_ns > sync_only.Figures.Chunking_study.wall_ns)

let test_parallel_output_identical () =
  (* The domain-parallel sweeps must render byte-for-byte what the
     sequential sweeps render, for any job count. *)
  let render_all () =
    String.concat "\n"
      [
        Figures.Fig_output.render (Figures.Tso_report.run ());
        Figures.Fig_output.render (Figures.Locking_study.run ~threads:4 ());
        Figures.Fig_output.render (Figures.Fig16.run ~threads:4 ());
      ]
  in
  Sim.Par.set_jobs 1;
  let seq = render_all () in
  Sim.Par.set_jobs 4;
  let par = Fun.protect ~finally:(fun () -> Sim.Par.set_jobs 1) render_all in
  Alcotest.(check string) "sequential and -j 4 renderings byte-identical" seq par

let test_table_rendering () =
  let t = Stats.Table.create ~columns:[ "a"; "b" ] in
  Stats.Table.add_row t [ "1"; "22" ];
  Stats.Table.add_row t [ "333"; "4" ];
  let s = Stats.Table.render t in
  check_bool "contains rule" true (String.contains s '-');
  check_int "rows" 2 (Stats.Table.row_count t);
  let raised = try Stats.Table.add_row t [ "only-one" ]; false with Invalid_argument _ -> true in
  check_bool "arity checked" true raised

let () =
  Alcotest.run "figures"
    [
      ( "figures",
        [
          Alcotest.test_case "fig10 shape" `Slow test_fig10_shape;
          Alcotest.test_case "fig10 renders" `Slow test_fig10_output_renders;
          Alcotest.test_case "fig11 shape" `Slow test_fig11_shape;
          Alcotest.test_case "fig12 shape" `Slow test_fig12_shape;
          Alcotest.test_case "fig13 shape" `Slow test_fig13_shape;
          Alcotest.test_case "fig14 shape" `Slow test_fig14_shape;
          Alcotest.test_case "fig15 shape" `Slow test_fig15_shape;
          Alcotest.test_case "fig16 shape" `Quick test_fig16_shape;
          Alcotest.test_case "determinism report" `Slow test_determinism_report;
          Alcotest.test_case "tso report" `Quick test_tso_report;
          Alcotest.test_case "climit study" `Slow test_climit_study;
          Alcotest.test_case "forced-commit counter matches schedule" `Quick
            test_forced_commit_counter_matches_schedule;
          Alcotest.test_case "soundness study" `Slow test_soundness_study;
          Alcotest.test_case "locking study" `Quick test_locking_study;
          Alcotest.test_case "polling locks deterministic" `Quick
            test_polling_locks_deterministic;
          Alcotest.test_case "chunking study" `Quick test_chunking_study;
          Alcotest.test_case "parallel output identical" `Quick test_parallel_output_identical;
          Alcotest.test_case "table rendering" `Quick test_table_rendering;
        ] );
    ]
