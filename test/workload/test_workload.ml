(* Tests for the benchmark registry (the 19-benchmark suite plus the
   six KV service traffic shapes) and its building blocks. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Wl_util                                                            *)
(* ------------------------------------------------------------------ *)

let test_scaled () =
  check_int "identity" 10 (Workload.Wl_util.scaled 1.0 10);
  check_int "half" 5 (Workload.Wl_util.scaled 0.5 10);
  check_int "never zero" 1 (Workload.Wl_util.scaled 0.001 10);
  check_int "double" 20 (Workload.Wl_util.scaled 2.0 10)

let test_work_amount_scales_up () =
  check_bool "multiplied" true (Workload.Wl_util.work_amount 1.0 100 > 100);
  check_int "proportional" (2 * Workload.Wl_util.work_amount 1.0 100)
    (Workload.Wl_util.work_amount 2.0 100)

let run_with ops_user =
  (* Run a tiny program under pthreads to drive Wl_util helpers. *)
  let program =
    Api.make ~name:"wl-util-harness" ~heap_pages:64 ~page_size:256 (fun ~nthreads:_ ops ->
        ops_user ops)
  in
  Runtime.Run.run Runtime.Run.pthreads ~seed:1 ~nthreads:1 program

let test_checksum () =
  let r =
    run_with (fun ops ->
        ops.Api.write_int ~addr:0 5;
        ops.Api.write_int ~addr:8 7;
        ops.Api.write_int ~addr:16 11;
        ops.Api.log_output
          (string_of_int (Workload.Wl_util.checksum ops ~addr:0 ~words:3)))
  in
  ignore r;
  check_bool "ran" true (r.Stats.Run_result.wall_ns >= 0)

let test_queue_fifo () =
  let order = ref [] in
  ignore
    (run_with (fun ops ->
         let q =
           Workload.Wl_util.queue_make ~base:1024 ~capacity:4 ~lock:0 ~nonfull:0 ~nonempty:1
         in
         (* Single-threaded: push 3, pop 3 — strict FIFO without blocking. *)
         Workload.Wl_util.queue_push ops q 10;
         Workload.Wl_util.queue_push ops q 20;
         Workload.Wl_util.queue_push ops q 30;
         let a = Workload.Wl_util.queue_pop ops q in
         let b = Workload.Wl_util.queue_pop ops q in
         let c = Workload.Wl_util.queue_pop ops q in
         order := [ a; b; c ]));
  Alcotest.(check (list int)) "fifo" [ 10; 20; 30 ] !order

let test_queue_rejects_negative () =
  let raised = ref false in
  ignore
    (run_with (fun ops ->
         let q =
           Workload.Wl_util.queue_make ~base:1024 ~capacity:4 ~lock:0 ~nonfull:0 ~nonempty:1
         in
         try Workload.Wl_util.queue_push ops q (-1) with Invalid_argument _ -> raised := true));
  check_bool "raises" true !raised

let test_queue_blocking_producer_consumer () =
  (* Capacity-2 queue, fast producer, slow consumer: producer must block
     on full and everything still arrives in order. *)
  let received = ref [] in
  let program =
    Api.make ~name:"queue-block" ~heap_pages:64 ~page_size:256 (fun ~nthreads:_ ops ->
        let q =
          Workload.Wl_util.queue_make ~base:1024 ~capacity:2 ~lock:0 ~nonfull:0 ~nonempty:1
        in
        let producer =
          ops.Api.spawn (fun w ->
              for j = 1 to 10 do
                Workload.Wl_util.queue_push w q j
              done)
        in
        let consumer =
          ops.Api.spawn (fun w ->
              for _ = 1 to 10 do
                w.Api.work 2_000;
                received := Workload.Wl_util.queue_pop w q :: !received
              done)
        in
        ops.Api.join producer;
        ops.Api.join consumer)
  in
  received := [];
  ignore (Runtime.Run.run Runtime.Run.consequence_ic ~seed:1 ~nthreads:2 program);
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (List.rev !received)

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

let test_registry_has_25 () = check_int "25 benchmarks" 25 (List.length Workload.Registry.all)

let test_registry_names_unique () =
  check_int "unique names" 25 (List.length (List.sort_uniq compare Workload.Registry.names))

let test_registry_find () =
  let e = Workload.Registry.find "ferret" in
  check_string "found" "ferret" e.Workload.Registry.program.Api.name;
  check_bool "not found raises" true
    (try ignore (Workload.Registry.find "nope"); false with Not_found -> true)

let test_registry_figure_sets_valid () =
  List.iter
    (fun set ->
      List.iter
        (fun name ->
          check_bool (name ^ " is registered") true (List.mem name Workload.Registry.names))
        set)
    [
      Workload.Registry.hardest_five;
      Workload.Registry.fig11_set;
      Workload.Registry.fig13_set;
      Workload.Registry.fig14_set;
      Workload.Registry.fig15_set;
      Workload.Registry.fig16_set;
      Workload.Registry.kv_set;
    ];
  check_int "five hardest" 5 (List.length Workload.Registry.hardest_five);
  check_int "fig16 has 12" 12 (List.length Workload.Registry.fig16_set);
  check_int "kv set has 6" 6 (List.length Workload.Registry.kv_set)

let test_registry_scale_parameter () =
  let e = Workload.Registry.find "string_match" in
  let small = e.Workload.Registry.make ~scale:0.5 () in
  let r_small = Runtime.Run.run Runtime.Run.pthreads ~seed:1 ~nthreads:2 small in
  let r_full = Runtime.Run.run Runtime.Run.pthreads ~seed:1 ~nthreads:2 e.Workload.Registry.program in
  check_bool "scale reduces work" true
    (r_small.Stats.Run_result.wall_ns < r_full.Stats.Run_result.wall_ns)

(* ------------------------------------------------------------------ *)
(* Every benchmark on every runtime                                   *)
(* ------------------------------------------------------------------ *)

let det_runtimes =
  [ Runtime.Run.dthreads; Runtime.Run.dwc; Runtime.Run.consequence_rr; Runtime.Run.consequence_ic ]

let test_all_benchmarks_all_runtimes () =
  List.iter
    (fun e ->
      let p = e.Workload.Registry.program in
      List.iter
        (fun rt ->
          let r = Runtime.Run.run rt ~seed:1 ~nthreads:4 p in
          check_bool
            (Printf.sprintf "%s on %s" p.Api.name (Runtime.Run.name rt))
            true
            (r.Stats.Run_result.wall_ns > 0))
        Runtime.Run.all)
    Workload.Registry.all

let test_outputs_agree_across_runtimes () =
  (* Every model logs a schedule-independent checksum; all five libraries
     must agree on it. *)
  List.iter
    (fun e ->
      let p = e.Workload.Registry.program in
      let reference = Runtime.Run.run Runtime.Run.pthreads ~seed:1 ~nthreads:4 p in
      List.iter
        (fun rt ->
          let r = Runtime.Run.run rt ~seed:1 ~nthreads:4 p in
          check_string
            (Printf.sprintf "%s output on %s" p.Api.name (Runtime.Run.name rt))
            reference.Stats.Run_result.output_hash r.Stats.Run_result.output_hash)
        det_runtimes)
    Workload.Registry.all

let test_benchmarks_deterministic () =
  (* Witness stability across two seeds for consequence-ic on every
     benchmark (full four-runtime/multi-seed coverage is in the
     determinism report). *)
  List.iter
    (fun e ->
      let p = e.Workload.Registry.program in
      let w seed =
        Stats.Run_result.deterministic_witness
          (Runtime.Run.run Runtime.Run.consequence_ic ~seed ~nthreads:4 p)
      in
      check_string (p.Api.name ^ " seed-invariant") (w 1) (w 77))
    Workload.Registry.all

let test_benchmark_thread_counts () =
  (* Spot-check the scaling-study benchmarks at several thread counts. *)
  List.iter
    (fun name ->
      let p = (Workload.Registry.find name).Workload.Registry.program in
      List.iter
        (fun n ->
          let r = Runtime.Run.run Runtime.Run.consequence_ic ~seed:1 ~nthreads:n p in
          check_bool (Printf.sprintf "%s at %d threads" name n) true (r.Stats.Run_result.wall_ns > 0))
        [ 2; 16; 32 ])
    Workload.Registry.fig11_set

let test_ferret_stage1_thread_exists () =
  let p = (Workload.Registry.find "ferret").Workload.Registry.program in
  let r = Runtime.Run.run Runtime.Run.consequence_ic ~seed:1 ~nthreads:8 p in
  let names = List.map (fun ts -> ts.Stats.Run_result.thread_name) r.Stats.Run_result.per_thread in
  check_bool "stage-1 thread present" true (List.mem Workload.Ferret.stage1_name names)

let test_canneal_has_merges () =
  let p = (Workload.Registry.find "canneal").Workload.Registry.program in
  let r = Runtime.Run.run Runtime.Run.consequence_ic ~seed:1 ~nthreads:8 p in
  check_bool "page conflicts happen" true (r.Stats.Run_result.pages_merged > 0)

let test_lu_ncb_conflicts_exceed_lu_cb () =
  let run name =
    let p = (Workload.Registry.find name).Workload.Registry.program in
    Runtime.Run.run Runtime.Run.consequence_ic ~seed:1 ~nthreads:8 p
  in
  let ncb = run "lu_ncb" and cb = run "lu_cb" in
  check_bool "non-contiguous layout merges more" true
    (ncb.Stats.Run_result.pages_merged > cb.Stats.Run_result.pages_merged)

(* ------------------------------------------------------------------ *)
(* Synthetic programs                                                 *)
(* ------------------------------------------------------------------ *)

let test_synthetic_runs_everywhere () =
  let p = Workload.Synthetic.make ~seed:17 () in
  let reference = Runtime.Run.run Runtime.Run.pthreads ~seed:1 ~nthreads:4 p in
  List.iter
    (fun rt ->
      let r = Runtime.Run.run rt ~seed:1 ~nthreads:4 p in
      check_bool (Runtime.Run.name rt ^ " ran") true (r.Stats.Run_result.wall_ns > 0);
      ignore reference)
    Runtime.Run.all

let test_synthetic_same_seed_same_script () =
  check_bool "op mix reproducible" true
    (Workload.Synthetic.op_mix ~seed:5 ~rounds:20 = Workload.Synthetic.op_mix ~seed:5 ~rounds:20);
  let w, l, wr, b = Workload.Synthetic.op_mix ~seed:5 ~rounds:20 in
  check_int "ops sum to rounds" 20 (w + l + wr + b)

let test_synthetic_lock_heavy () =
  let p = Workload.Synthetic.make_lock_heavy ~seed:9 () in
  let r = Runtime.Run.run Runtime.Run.consequence_ic ~seed:1 ~nthreads:4 p in
  check_bool "lots of sync ops" true (r.Stats.Run_result.sync_ops > 100)

let prop_synthetic_deterministic =
  QCheck.Test.make ~name:"synthetic programs are deterministic on consequence-ic" ~count:10
    QCheck.(int_bound 100_000)
    (fun seed ->
      let p = Workload.Synthetic.make ~seed ~rounds:8 () in
      let w s =
        Stats.Run_result.deterministic_witness
          (Runtime.Run.run Runtime.Run.consequence_ic ~seed:s ~nthreads:4 p)
      in
      w 1 = w 424242)

(* [Run.schedule] collects the sync events a plain [Run.run] only
   hashes: it must list exactly the events [sync_order_hash] folded, in
   that order, and leave the run itself untouched. *)
let test_schedule_exposed () =
  let p = (Workload.Registry.find "kmeans").Workload.Registry.program in
  List.iter
    (fun rt ->
      let name = Runtime.Run.name rt in
      let schedule, r = Runtime.Run.schedule rt ~seed:1 ~nthreads:4 p in
      check_int (name ^ ": schedule matches trace count") r.Stats.Run_result.trace_events
        (List.length schedule);
      let rec nondecreasing = function
        | (t1, _, _) :: ((t2, _, _) :: _ as rest) -> t1 <= t2 && nondecreasing rest
        | _ -> true
      in
      check_bool (name ^ ": schedule time-ordered") true (nondecreasing schedule);
      let folded =
        List.fold_left
          (fun h (_, tid, label) -> Sim.Fnv.string (Sim.Fnv.int h tid) label)
          Sim.Fnv.init schedule
      in
      check_string
        (name ^ ": schedule folds to sync_order_hash")
        r.Stats.Run_result.sync_order_hash (Sim.Fnv.to_hex folded);
      let bare = Runtime.Run.run rt ~seed:1 ~nthreads:4 p in
      check_string
        (name ^ ": witness unchanged by the hook")
        (Stats.Run_result.deterministic_witness bare)
        (Stats.Run_result.deterministic_witness r);
      check_int (name ^ ": wall unchanged by the hook") bare.Stats.Run_result.wall_ns
        r.Stats.Run_result.wall_ns)
    [ Runtime.Run.consequence_ic; Runtime.Run.pthreads ]

(* A run result holds counters, hashes and per-thread stats, never a
   per-sync-op list: the 6.5k-event water_nsquared run at 32 threads
   retained 47,788 words when results carried the schedule. *)
let test_result_retention_bounded () =
  let p = (Workload.Registry.find "water_nsquared").Workload.Registry.program in
  let r = Runtime.Run.run Runtime.Run.consequence_ic ~nthreads:32 p in
  check_bool "thousands of sync events" true (r.Stats.Run_result.trace_events > 5_000);
  let words = Obj.reachable_words (Obj.repr r) in
  if words > 2_000 then Alcotest.failf "run result retains %d words (bound 2000)" words

let prop_scaled_monotone =
  QCheck.Test.make ~name:"scaled is monotone in the scale factor" ~count:100
    QCheck.(pair (float_range 0.1 4.0) (int_range 1 100_000))
    (fun (s, n) -> Workload.Wl_util.scaled s n <= Workload.Wl_util.scaled (s +. 0.5) n)

let () =
  Alcotest.run "workload"
    [
      ( "wl-util",
        [
          Alcotest.test_case "scaled" `Quick test_scaled;
          Alcotest.test_case "work_amount" `Quick test_work_amount_scales_up;
          Alcotest.test_case "checksum" `Quick test_checksum;
          Alcotest.test_case "queue fifo" `Quick test_queue_fifo;
          Alcotest.test_case "queue rejects negative" `Quick test_queue_rejects_negative;
          Alcotest.test_case "queue blocking" `Quick test_queue_blocking_producer_consumer;
          QCheck_alcotest.to_alcotest prop_scaled_monotone;
        ] );
      ( "registry",
        [
          Alcotest.test_case "25 benchmarks" `Quick test_registry_has_25;
          Alcotest.test_case "names unique" `Quick test_registry_names_unique;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "figure sets valid" `Quick test_registry_figure_sets_valid;
          Alcotest.test_case "scale parameter" `Quick test_registry_scale_parameter;
        ] );
      ( "execution",
        [
          Alcotest.test_case "all benchmarks, all runtimes" `Slow test_all_benchmarks_all_runtimes;
          Alcotest.test_case "outputs agree across runtimes" `Slow
            test_outputs_agree_across_runtimes;
          Alcotest.test_case "deterministic per benchmark" `Slow test_benchmarks_deterministic;
          Alcotest.test_case "thread-count sweep" `Slow test_benchmark_thread_counts;
          Alcotest.test_case "ferret stage-1 thread" `Quick test_ferret_stage1_thread_exists;
          Alcotest.test_case "canneal merges" `Quick test_canneal_has_merges;
          Alcotest.test_case "lu_ncb vs lu_cb conflicts" `Quick test_lu_ncb_conflicts_exceed_lu_cb;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "runs everywhere" `Quick test_synthetic_runs_everywhere;
          Alcotest.test_case "reproducible scripts" `Quick test_synthetic_same_seed_same_script;
          Alcotest.test_case "lock heavy" `Quick test_synthetic_lock_heavy;
          Alcotest.test_case "schedule exposed" `Quick test_schedule_exposed;
          Alcotest.test_case "result retention bounded" `Quick test_result_retention_bounded;
          QCheck_alcotest.to_alcotest prop_synthetic_deterministic;
        ] );
    ]
