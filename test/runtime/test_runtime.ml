(* Integration tests for the deterministic runtimes and the pthreads
   baseline.  These check the paper's semantic claims: determinism of
   sync order / memory / output across perturbed executions, correctness
   of deterministic synchronization, the atomic-operations hazard
   (section 2.7), ad-hoc synchronization support, and coarsening
   behaviour. *)

module R = Runtime.Run
module Res = Stats.Run_result
module Bd = Stats.Breakdown

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let det_runtimes = [ R.dthreads; R.dwc; R.consequence_rr; R.consequence_ic ]

let counter_addr = 0

(* --- Test programs --------------------------------------------------- *)

(* Every worker increments a lock-protected counter [iters] times. *)
let locked_counter ~iters =
  Api.make ~name:"locked-counter" ~heap_pages:16 ~page_size:64 (fun ~nthreads ops ->
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                for _ = 1 to iters do
                  w.Api.work (200 + (i * 13));
                  w.Api.lock 1;
                  let v = w.Api.read_int ~addr:counter_addr in
                  w.Api.write_int ~addr:counter_addr (v + 1);
                  w.Api.unlock 1
                done))
      in
      List.iter ops.Api.join workers;
      ops.Api.log_output (Printf.sprintf "counter=%d" (ops.Api.read_int ~addr:counter_addr)))

(* Unsynchronized plain fetch_add from every worker.  The start barrier
   makes the workers actually overlap (spawn latency would otherwise
   serialize them and hide the lost updates). *)
let plain_rmw ~iters =
  Api.make ~name:"plain-rmw" ~heap_pages:16 ~page_size:64 (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                w.Api.barrier_wait 0;
                for _ = 1 to iters do
                  w.Api.work (150 + (i * 31));
                  ignore (w.Api.fetch_add ~addr:counter_addr 1)
                done))
      in
      List.iter ops.Api.join workers;
      ops.Api.log_output (Printf.sprintf "counter=%d" (ops.Api.read_int ~addr:counter_addr)))

(* Same but with the token-protected atomic op of section 2.7. *)
let atomic_rmw ~iters =
  Api.make ~name:"atomic-rmw" ~heap_pages:16 ~page_size:64 (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                w.Api.barrier_wait 0;
                for _ = 1 to iters do
                  w.Api.work (150 + (i * 31));
                  ignore (w.Api.atomic_fetch_add ~addr:counter_addr 1)
                done))
      in
      List.iter ops.Api.join workers;
      ops.Api.log_output (Printf.sprintf "counter=%d" (ops.Api.read_int ~addr:counter_addr)))

(* Barrier-phased writers: phase 1 everyone writes its slot, phase 2
   everyone reads all slots and records the sum. *)
let barrier_phases =
  Api.make ~name:"barrier-phases" ~heap_pages:16 ~page_size:64 (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                w.Api.work (500 * (i + 1));
                w.Api.write_int ~addr:(8 * (i + 1)) (100 + i);
                w.Api.barrier_wait 0;
                let sum = ref 0 in
                for j = 1 to nthreads do
                  sum := !sum + w.Api.read_int ~addr:(8 * j)
                done;
                (* Store rather than log: concurrent log order is runtime-
                   specific; memory content after joins is not. *)
                w.Api.write_int ~addr:(256 + (8 * i)) !sum))
      in
      List.iter ops.Api.join workers;
      for i = 0 to nthreads - 1 do
        ops.Api.log_output (Printf.sprintf "sum%d=%d" i (ops.Api.read_int ~addr:(256 + (8 * i))))
      done)

(* Producer/consumer over a one-slot mailbox with condvars. *)
let producer_consumer ~items =
  Api.make ~name:"prod-cons" ~heap_pages:16 ~page_size:64 (fun ~nthreads:_ ops ->
      let full = 8 and value = 16 and consumed_sum = 24 in
      let m = 0 and c_full = 0 and c_empty = 1 in
      let producer =
        ops.Api.spawn ~name:"producer" (fun w ->
            for i = 1 to items do
              w.Api.work 300;
              w.Api.lock m;
              while w.Api.read_int ~addr:full = 1 do
                w.Api.cond_wait c_empty m
              done;
              w.Api.write_int ~addr:value i;
              w.Api.write_int ~addr:full 1;
              w.Api.cond_signal c_full;
              w.Api.unlock m
            done)
      in
      let consumer =
        ops.Api.spawn ~name:"consumer" (fun w ->
            for _ = 1 to items do
              w.Api.work 200;
              w.Api.lock m;
              while w.Api.read_int ~addr:full = 0 do
                w.Api.cond_wait c_full m
              done;
              let v = w.Api.read_int ~addr:value in
              w.Api.write_int ~addr:full 0;
              w.Api.write_int ~addr:consumed_sum (w.Api.read_int ~addr:consumed_sum + v);
              w.Api.cond_signal c_empty;
              w.Api.unlock m
            done;
            w.Api.log_output (Printf.sprintf "sum=%d" (w.Api.read_int ~addr:consumed_sum)))
      in
      ops.Api.join producer;
      ops.Api.join consumer)

(* Mixed contention: multiple locks, a barrier, shared-page writes. *)
let contended =
  Api.make ~name:"contended" ~heap_pages:32 ~page_size:64 (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                for round = 1 to 12 do
                  w.Api.work (250 * ((i mod 3) + 1));
                  let l = round mod 3 in
                  w.Api.lock l;
                  let a = 8 * (l + 1) in
                  w.Api.write_int ~addr:a (w.Api.read_int ~addr:a + 1);
                  w.Api.unlock l
                done;
                w.Api.barrier_wait 0;
                w.Api.write ~addr:(128 + (i * 16)) (Bytes.make 16 (Char.chr (65 + i)))))
      in
      List.iter ops.Api.join workers)

(* Ad-hoc synchronization (section 2.7): spin on a flag set by a peer. *)
let flag_spin =
  Api.make ~name:"flag-spin" ~heap_pages:16 ~page_size:64 (fun ~nthreads:_ ops ->
      let setter =
        ops.Api.spawn ~name:"setter" (fun w ->
            w.Api.work 20_000;
            w.Api.write_int ~addr:8 1;
            (* The write needs a commit to become visible; under a chunk
               limit the forced commit publishes it. *)
            w.Api.work 200_000)
      in
      let spinner =
        ops.Api.spawn ~name:"spinner" (fun w ->
            while w.Api.read_int ~addr:8 = 0 do
              w.Api.work 1_000
            done;
            w.Api.log_output "saw-flag")
      in
      ops.Api.join setter;
      ops.Api.join spinner)

let witness rt ?(threads = 4) ?(seed = 1) prog =
  Res.deterministic_witness (R.run rt ~seed ~nthreads:threads prog)

(* --- Basic execution ------------------------------------------------- *)

let test_all_runtimes_complete () =
  List.iter
    (fun rt ->
      let r = R.run rt ~seed:1 ~nthreads:4 (locked_counter ~iters:10) in
      check_bool (R.name rt ^ " ran") true (r.Res.wall_ns > 0);
      check_int (R.name rt ^ " threads") 4 r.Res.nthreads;
      check_bool (R.name rt ^ " has sync ops") true (r.Res.sync_ops > 0))
    R.all

let test_locked_counter_exact_everywhere () =
  (* Mutual exclusion must make the counter exact on every runtime; all
     runtimes must agree on the final memory image. *)
  let reference = R.run R.pthreads ~seed:1 ~nthreads:4 (locked_counter ~iters:10) in
  List.iter
    (fun rt ->
      let r = R.run rt ~seed:1 ~nthreads:4 (locked_counter ~iters:10) in
      check_string (R.name rt ^ " same memory") reference.Res.mem_hash r.Res.mem_hash;
      check_string (R.name rt ^ " same output") reference.Res.output_hash r.Res.output_hash)
    det_runtimes

let test_same_seed_reproducible () =
  List.iter
    (fun rt ->
      let r1 = R.run rt ~seed:7 ~nthreads:4 contended in
      let r2 = R.run rt ~seed:7 ~nthreads:4 contended in
      check_int (R.name rt ^ " same wall") r1.Res.wall_ns r2.Res.wall_ns;
      check_string (R.name rt ^ " same witness") (Res.deterministic_witness r1)
        (Res.deterministic_witness r2))
    R.all

(* --- Determinism across seeds ---------------------------------------- *)

let test_det_runtimes_seed_invariant () =
  List.iter
    (fun rt ->
      let w1 = witness rt ~seed:1 contended in
      List.iter
        (fun seed ->
          check_string
            (Printf.sprintf "%s witness seed %d" (R.name rt) seed)
            w1 (witness rt ~seed contended))
        [ 2; 3; 17; 91 ])
    det_runtimes

(* Timing-sensitive race: read, gap, write on one shared word. *)
let racy_gap =
  Api.make ~name:"racy-gap" ~heap_pages:16 ~page_size:64 (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                w.Api.barrier_wait 0;
                for _ = 1 to 30 do
                  let v = w.Api.read_int ~addr:0 in
                  w.Api.work (100 + i);
                  w.Api.write_int ~addr:0 (v + 1);
                  w.Api.work 400
                done))
      in
      List.iter ops.Api.join workers)

let test_pthreads_diverges_across_seeds () =
  let witnesses = List.map (fun seed -> witness R.pthreads ~seed racy_gap) [ 1; 2; 3; 5; 8; 13 ] in
  let distinct = List.sort_uniq compare witnesses in
  check_bool "pthreads interleavings vary" true (List.length distinct > 1);
  (* While the deterministic runtimes are invariant on the same program. *)
  List.iter
    (fun rt ->
      let w1 = witness rt ~seed:1 racy_gap and w2 = witness rt ~seed:13 racy_gap in
      check_string (R.name rt ^ " racy-gap invariant") w1 w2)
    det_runtimes

let test_det_runtimes_thread_count_changes_allowed () =
  (* Determinism is per-configuration: different thread counts may give
     different (but each internally stable) results. *)
  List.iter
    (fun rt ->
      let w2 = witness rt ~threads:2 contended and w2' = witness rt ~threads:2 ~seed:9 contended in
      check_string (R.name rt ^ " stable at 2 threads") w2 w2')
    det_runtimes

(* --- Synchronization correctness ------------------------------------- *)

let test_barrier_visibility () =
  (* After the barrier every thread must see all pre-barrier writes: all
     workers log the same sum, on every runtime, and the output matches
     pthreads. *)
  let reference = R.run R.pthreads ~seed:1 ~nthreads:4 barrier_phases in
  List.iter
    (fun rt ->
      let r = R.run rt ~seed:1 ~nthreads:4 barrier_phases in
      check_string (R.name rt ^ " barrier sums") reference.Res.output_hash r.Res.output_hash)
    det_runtimes

let test_producer_consumer () =
  let expected_sum = 15 * 16 / 2 in
  ignore expected_sum;
  let reference = R.run R.pthreads ~seed:1 (producer_consumer ~items:15) in
  List.iter
    (fun rt ->
      let r = R.run rt ~seed:1 (producer_consumer ~items:15) in
      check_string (R.name rt ^ " consumed sum") reference.Res.output_hash r.Res.output_hash)
    det_runtimes

let test_unlock_without_lock_raises () =
  let prog =
    Api.make ~name:"bad-unlock" (fun ~nthreads:_ ops -> ops.Api.unlock 3)
  in
  List.iter
    (fun rt ->
      let raised = try ignore (R.run rt prog); false with Invalid_argument _ -> true in
      check_bool (R.name rt ^ " raises") true raised)
    R.all

let test_self_deadlock_detected () =
  let prog =
    Api.make ~name:"self-deadlock" (fun ~nthreads:_ ops ->
        ops.Api.lock 1;
        ops.Api.lock 1)
  in
  List.iter
    (fun rt ->
      let raised = try ignore (R.run rt prog); false with Sim.Engine.Deadlock _ -> true in
      check_bool (R.name rt ^ " deadlock detected") true raised)
    R.all

let test_uninitialized_barrier_raises () =
  let prog = Api.make ~name:"bad-barrier" (fun ~nthreads:_ ops -> ops.Api.barrier_wait 5) in
  List.iter
    (fun rt ->
      let raised = try ignore (R.run rt prog); false with Invalid_argument _ -> true in
      check_bool (R.name rt ^ " raises") true raised)
    R.all

(* --- Atomic operations (section 2.7) ---------------------------------- *)

let test_plain_rmw_atomic_under_pthreads () =
  let r = R.run R.pthreads ~seed:1 ~nthreads:4 (plain_rmw ~iters:25) in
  (* The simulated hardware fetch_add is indivisible: exactly 100. *)
  let expected = R.run R.pthreads ~seed:1 ~nthreads:4 (atomic_rmw ~iters:25) in
  check_string "plain = atomic under pthreads" expected.Res.output_hash r.Res.output_hash

let test_plain_rmw_loses_updates_deterministically () =
  (* Under isolation the plain RMW loses concurrent increments; the loss
     must itself be deterministic (same witness across seeds). *)
  List.iter
    (fun rt ->
      let r1 = R.run rt ~seed:1 ~nthreads:4 (plain_rmw ~iters:25) in
      let r2 = R.run rt ~seed:5 ~nthreads:4 (plain_rmw ~iters:25) in
      check_string (R.name rt ^ " deterministic loss") (Res.deterministic_witness r1)
        (Res.deterministic_witness r2);
      (* And it actually loses updates: the result differs from the
         correctly-atomic run. *)
      let atomic = R.run rt ~seed:1 ~nthreads:4 (atomic_rmw ~iters:25) in
      check_bool (R.name rt ^ " lost updates") true
        (r1.Res.output_hash <> atomic.Res.output_hash))
    det_runtimes

let test_atomic_rmw_exact_everywhere () =
  let reference = R.run R.pthreads ~seed:1 ~nthreads:4 (atomic_rmw ~iters:25) in
  List.iter
    (fun rt ->
      let r = R.run rt ~seed:1 ~nthreads:4 (atomic_rmw ~iters:25) in
      check_string (R.name rt ^ " exact count") reference.Res.output_hash r.Res.output_hash)
    det_runtimes

(* --- Ad-hoc synchronization (section 2.7) ----------------------------- *)

let test_flag_spin_stuck_without_limit () =
  (* With commits only at sync ops, the spinner never sees the flag. *)
  let cfg = Runtime.Config.consequence_ic in
  let raised =
    try
      ignore (Runtime.Det_rt.run cfg ~seed:1 flag_spin);
      false
    with Sim.Engine.Stuck _ -> true
  in
  check_bool "spinner livelocks without chunk limit" true raised

let test_flag_spin_terminates_with_limit () =
  let cfg = Runtime.Config.with_chunk_limit Runtime.Config.consequence_ic 10_000 in
  let r = Runtime.Det_rt.run cfg ~seed:1 flag_spin in
  check_bool "spinner saw flag" true (r.Res.wall_ns > 0);
  (* Deterministic too. *)
  let r2 = Runtime.Det_rt.run cfg ~seed:3 flag_spin in
  check_string "deterministic with limit" (Res.deterministic_witness r)
    (Res.deterministic_witness r2)

let test_flag_spin_fine_under_pthreads () =
  let r = R.run R.pthreads ~seed:1 flag_spin in
  check_bool "pthreads sees stores immediately" true (r.Res.wall_ns > 0)

(* --- Coarsening (section 3.1) ----------------------------------------- *)

let fine_grained_locks =
  Api.make ~name:"fine-grained" ~heap_pages:32 ~page_size:64 (fun ~nthreads ops ->
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                for round = 1 to 40 do
                  w.Api.work 300;
                  let l = (i + round) mod 8 in
                  w.Api.lock l;
                  let a = 8 * (l + 1) in
                  w.Api.write_int ~addr:a (w.Api.read_int ~addr:a + 1);
                  w.Api.work 100;
                  w.Api.unlock l
                done))
      in
      List.iter ops.Api.join workers)

let test_coarsening_reduces_commits () =
  let base = Runtime.Config.consequence_ic in
  let with_c = Runtime.Det_rt.run base ~seed:1 ~nthreads:4 fine_grained_locks in
  let without =
    Runtime.Det_rt.run (Runtime.Config.without_coarsening base) ~seed:1 ~nthreads:4
      fine_grained_locks
  in
  check_bool "coarsened chunks happened" true (with_c.Res.coarsened_chunks > 0);
  check_bool "fewer token acquisitions with coarsening" true
    (with_c.Res.token_acquisitions < without.Res.token_acquisitions);
  check_bool "no coarsening => none counted" true (without.Res.coarsened_chunks = 0)

let test_static_coarsening_levels_run () =
  List.iter
    (fun k ->
      let cfg = Runtime.Config.with_static_coarsening Runtime.Config.consequence_ic k in
      let r = Runtime.Det_rt.run cfg ~seed:1 ~nthreads:4 fine_grained_locks in
      let r2 = Runtime.Det_rt.run cfg ~seed:9 ~nthreads:4 fine_grained_locks in
      check_string
        (Printf.sprintf "static-%d deterministic" k)
        (Res.deterministic_witness r) (Res.deterministic_witness r2))
    [ 0; 1; 2; 4 ]

let test_coarsening_preserves_results () =
  let base = Runtime.Config.consequence_ic in
  let with_c = Runtime.Det_rt.run base ~seed:1 ~nthreads:4 (locked_counter ~iters:20) in
  let without =
    Runtime.Det_rt.run (Runtime.Config.without_coarsening base) ~seed:1 ~nthreads:4
      (locked_counter ~iters:20)
  in
  (* Different interleavings are permitted, but the lock-protected counter
     is exact either way: memory must match. *)
  check_string "same final memory" with_c.Res.mem_hash without.Res.mem_hash

(* --- Optimization toggles run and stay deterministic ------------------- *)

let test_ablation_configs_deterministic () =
  let base = Runtime.Config.consequence_ic in
  let variants =
    [
      Runtime.Config.without_coarsening base;
      Runtime.Config.without_adaptive_overflow base;
      Runtime.Config.without_userspace_reads base;
      Runtime.Config.without_fast_forward base;
      Runtime.Config.without_parallel_barrier base;
      Runtime.Config.without_thread_pool base;
    ]
  in
  List.iter
    (fun cfg ->
      let r1 = Runtime.Det_rt.run cfg ~seed:1 ~nthreads:4 contended in
      let r2 = Runtime.Det_rt.run cfg ~seed:11 ~nthreads:4 contended in
      check_string (cfg.Runtime.Config.name ^ " deterministic") (Res.deterministic_witness r1)
        (Res.deterministic_witness r2))
    variants

let test_thread_pool_reuse () =
  (* Sequential spawn/join pairs: with pooling, later spawns reuse exited
     threads and the Fork time shrinks. *)
  let serial_spawns =
    Api.make ~name:"serial-spawns" ~heap_pages:64 ~page_size:64 (fun ~nthreads:_ ops ->
        for i = 0 to 9 do
          ops.Api.write ~addr:(i * 64) (Bytes.make 64 'x');
          let t = ops.Api.spawn (fun w -> w.Api.work 2_000) in
          ops.Api.join t
        done)
  in
  let with_pool = Runtime.Det_rt.run Runtime.Config.consequence_ic ~seed:1 serial_spawns in
  let without =
    Runtime.Det_rt.run
      (Runtime.Config.without_thread_pool Runtime.Config.consequence_ic)
      ~seed:1 serial_spawns
  in
  let fork_ns r = Bd.get (Res.aggregate_breakdown r) Bd.Fork in
  check_bool "pool reduces fork time" true (fork_ns with_pool < fork_ns without)

(* --- Counter jitter breaks the determinism guarantee ------------------- *)

let test_counter_jitter_still_runs () =
  let cfg = Runtime.Config.with_counter_jitter Runtime.Config.consequence_ic ~ppm:100_000 in
  let r = Runtime.Det_rt.run cfg ~seed:1 ~nthreads:4 contended in
  check_bool "runs" true (r.Res.wall_ns > 0)

(* --- Fig 1 shape: instruction-count vs round-robin --------------------- *)

let mismatch_program =
  Api.make ~name:"mismatch" ~heap_pages:16 ~page_size:64 (fun ~nthreads:_ ops ->
      let fast =
        ops.Api.spawn (fun w ->
            for _ = 1 to 40 do
              w.Api.work 1_000;
              w.Api.lock 1;
              w.Api.write_int ~addr:0 (w.Api.read_int ~addr:0 + 1);
              w.Api.unlock 1
            done)
      in
      let slow =
        ops.Api.spawn (fun w ->
            for _ = 1 to 4 do
              w.Api.work 40_000;
              w.Api.lock 2;
              w.Api.write_int ~addr:8 (w.Api.read_int ~addr:8 + 1);
              w.Api.unlock 2
            done)
      in
      ops.Api.join fast;
      ops.Api.join slow)

let test_ic_beats_rr_on_mismatched_rates () =
  let ic = R.run R.consequence_ic ~seed:1 mismatch_program in
  let dthreads = R.run R.dthreads ~seed:1 mismatch_program in
  check_bool "IC much faster than DThreads on mismatched rates" true
    (dthreads.Res.wall_ns > 2 * ic.Res.wall_ns)

(* --- Random-program determinism property ------------------------------ *)

(* Generate a deterministic random program from an integer seed: each
   worker performs a fixed sequence of works, lock-protected updates and
   barrier waits derived from a SplitMix stream. *)
let random_program ~prog_seed ~rounds =
  Api.make
    ~name:(Printf.sprintf "random-%d" prog_seed)
    ~heap_pages:32 ~page_size:64
    (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let workers =
        List.init nthreads (fun i ->
            (* Precompute the op sequence so every thread performs exactly
               [rounds] barrier waits in total (padding at the end). *)
            let p = Sim.Prng.create ~seed:(prog_seed + (1000 * i)) in
            let script =
              List.init rounds (fun _ ->
                  match Sim.Prng.int p ~bound:4 with
                  | 0 -> `Work (Sim.Prng.int p ~bound:2_000 + 100)
                  | 1 -> `Locked (Sim.Prng.int p ~bound:3)
                  | 2 -> `Write (256 + (8 * Sim.Prng.int p ~bound:64), Sim.Prng.int p ~bound:1_000_000)
                  | _ -> `Barrier)
            in
            let barrier_count =
              List.length (List.filter (fun op -> op = `Barrier) script)
            in
            ops.Api.spawn (fun w ->
                List.iter
                  (fun op ->
                    match op with
                    | `Work n -> w.Api.work n
                    | `Locked l ->
                        w.Api.lock l;
                        let a = 8 * (l + 1) in
                        w.Api.write_int ~addr:a (w.Api.read_int ~addr:a + 1);
                        w.Api.unlock l
                    | `Write (addr, v) -> w.Api.write_int ~addr v
                    | `Barrier -> w.Api.barrier_wait 0)
                  script;
                for _ = barrier_count + 1 to rounds do
                  w.Api.barrier_wait 0
                done))
      in
      List.iter ops.Api.join workers)

let prop_random_programs_deterministic =
  QCheck.Test.make ~name:"random programs: det runtimes are seed-invariant" ~count:12
    QCheck.(int_bound 10_000)
    (fun prog_seed ->
      let prog = random_program ~prog_seed ~rounds:8 in
      List.for_all
        (fun rt ->
          let w1 = witness rt ~threads:3 ~seed:1 prog in
          let w2 = witness rt ~threads:3 ~seed:99 prog in
          w1 = w2)
        det_runtimes)

let prop_locked_counter_memory_agrees =
  QCheck.Test.make ~name:"well-synchronized programs agree across runtimes" ~count:8
    QCheck.(int_range 1 20)
    (fun iters ->
      let prog = locked_counter ~iters in
      let reference = R.run R.pthreads ~seed:1 ~nthreads:3 prog in
      List.for_all
        (fun rt ->
          let r = R.run rt ~seed:1 ~nthreads:3 prog in
          r.Res.mem_hash = reference.Res.mem_hash)
        det_runtimes)

(* --- Result plumbing --------------------------------------------------- *)

let test_breakdown_covers_wall_time () =
  (* Each thread's breakdown total cannot exceed total wall time. *)
  List.iter
    (fun rt ->
      let r = R.run rt ~seed:1 ~nthreads:4 contended in
      List.iter
        (fun ts ->
          check_bool
            (Printf.sprintf "%s/%s breakdown bounded" (R.name rt) ts.Res.thread_name)
            true
            (Bd.total ts.Res.breakdown <= r.Res.wall_ns))
        r.Res.per_thread)
    R.all

let test_per_thread_names () =
  let prog =
    Api.make ~name:"named" (fun ~nthreads:_ ops ->
        let t = ops.Api.spawn ~name:"worker-zero" (fun w -> w.Api.work 100) in
        ops.Api.join t)
  in
  let r = R.run R.consequence_ic prog in
  let names = List.map (fun ts -> ts.Res.thread_name) r.Res.per_thread in
  check_bool "main present" true (List.mem "main" names);
  check_bool "named worker present" true (List.mem "worker-zero" names)

let test_config_presets_invariants () =
  (* The presets must encode the papers' design points. *)
  let open Runtime.Config in
  Alcotest.(check bool) "dthreads is synchronous" true (dthreads.commit_style = Synchronous);
  Alcotest.(check bool) "dthreads single lock" true (dthreads.lock_granularity = Single_global);
  Alcotest.(check bool) "dthreads pays mprotect multipliers" true
    (dthreads.fault_cost_mult > 1.5 && dthreads.commit_cost_mult > 2.0);
  Alcotest.(check bool) "dwc async" true (dwc.commit_style = Asynchronous);
  Alcotest.(check bool) "dwc single lock" true (dwc.lock_granularity = Single_global);
  Alcotest.(check bool) "dwc round-robin" true (dwc.ordering = Round_robin);
  Alcotest.(check bool) "cons-rr round-robin" true (consequence_rr.ordering = Round_robin);
  Alcotest.(check bool) "cons-ic instruction-count" true
    (consequence_ic.ordering = Instruction_count);
  List.iter
    (fun cfg ->
      Alcotest.(check bool) (cfg.name ^ " per-lock") true (cfg.lock_granularity = Per_lock);
      Alcotest.(check bool) (cfg.name ^ " all opts on") true
        (cfg.coarsening = Adaptive && cfg.adaptive_overflow && cfg.userspace_reads
       && cfg.fast_forward && cfg.parallel_barrier && cfg.thread_pool))
    [ consequence_rr; consequence_ic ];
  Alcotest.(check int) "four presets" 4 (List.length presets)

let test_single_global_lock_aliases () =
  (* Under DThreads, two different mutexes are one lock: a thread holding
     mutex 1 blocks another locking mutex 2. *)
  let order = ref [] in
  let prog =
    Api.make ~name:"alias-probe" ~heap_pages:8 ~page_size:64 (fun ~nthreads:_ ops ->
        let a =
          ops.Api.spawn (fun w ->
              w.Api.lock 1;
              order := "a-locked" :: !order;
              w.Api.work 50_000;
              order := "a-unlocking" :: !order;
              w.Api.unlock 1)
        in
        let b =
          ops.Api.spawn (fun w ->
              w.Api.work 5_000;
              w.Api.lock 2;
              order := "b-locked" :: !order;
              w.Api.unlock 2)
        in
        ops.Api.join a;
        ops.Api.join b)
  in
  order := [];
  ignore (Runtime.Det_rt.run Runtime.Config.dthreads ~seed:1 prog);
  Alcotest.(check (list string)) "mutex 2 waits for mutex 1 under dthreads"
    [ "a-locked"; "a-unlocking"; "b-locked" ] (List.rev !order);
  order := [];
  (* Coarsening would hold the token across a's critical section; disable
     it to observe the base algorithm's Fig 5 concurrency. *)
  ignore
    (Runtime.Det_rt.run
       (Runtime.Config.without_coarsening Runtime.Config.consequence_ic)
       ~seed:1 prog);
  Alcotest.(check (list string)) "independent locks under consequence"
    [ "a-locked"; "b-locked"; "a-unlocking" ] (List.rev !order)

let test_best_over_threads () =
  let r =
    R.best_over_threads R.consequence_ic ~threads:[ 2; 4 ] (locked_counter ~iters:10)
  in
  check_bool "picked one" true (r.Res.nthreads = 2 || r.Res.nthreads = 4)

(* --- Observability ---------------------------------------------------- *)

(* Instrumentation must be determinism-neutral: attaching a tracer sink
   must not change the witness, the simulated wall time, or the sync-op
   count.  The sink only reads the clock, never advances it. *)
let test_obs_neutrality () =
  List.iter
    (fun prog ->
      List.iter
        (fun rt ->
          let bare = R.run rt ~seed:1 ~nthreads:4 prog in
          let tr = Obs.Tracer.create () in
          let traced = R.run rt ~seed:1 ~nthreads:4 ~obs:(Obs.Tracer.sink tr) prog in
          let name = R.name rt ^ "/" ^ prog.Api.name in
          check_string (name ^ " witness unchanged")
            (Res.deterministic_witness bare)
            (Res.deterministic_witness traced);
          check_int (name ^ " wall_ns unchanged") bare.Res.wall_ns traced.Res.wall_ns;
          check_int (name ^ " sync_ops unchanged") bare.Res.sync_ops traced.Res.sync_ops;
          if List.mem rt det_runtimes then
            check_bool (name ^ " produced spans") true (Obs.Tracer.span_count tr > 0))
        R.all)
    [ locked_counter ~iters:8; contended ]

(* Rt_event observer: events are delivered in global token order, so the
   stream is seed-invariant, commit versions arrive strictly increasing,
   and mutex acquire/release counts match the program exactly. *)
let test_observer_token_order () =
  let iters = 6 and nthreads = 4 in
  let prog = locked_counter ~iters in
  let collect rt seed =
    let events = ref [] in
    let r = R.run rt ~seed ~nthreads ~observer:(fun e -> events := e :: !events) prog in
    (r, List.rev !events)
  in
  let rec strictly_increasing = function
    | a :: (b :: _ as tl) -> a < b && strictly_increasing tl
    | _ -> true
  in
  List.iter
    (fun rt ->
      let r, events = collect rt 1 in
      let name = R.name rt in
      let m1 = Runtime.Rt_event.obj_mutex 1 in
      let count p = List.length (List.filter p events) in
      check_int (name ^ " mutex acquires") (nthreads * iters)
        (count (function Runtime.Rt_event.Acquire { obj; _ } -> obj = m1 | _ -> false));
      check_int (name ^ " mutex releases") (nthreads * iters)
        (count (function Runtime.Rt_event.Release { obj; _ } -> obj = m1 | _ -> false));
      let versions =
        List.filter_map
          (function Runtime.Rt_event.Commit { version; _ } -> Some version | _ -> None)
          events
      in
      check_bool (name ^ " saw commits") true (versions <> []);
      check_bool (name ^ " commit versions strictly increasing") true
        (strictly_increasing versions);
      (* The observer is itself neutral... *)
      check_string (name ^ " observer neutral") (witness rt ~threads:nthreads prog)
        (Res.deterministic_witness r);
      (* ...and the stream is part of the deterministic behaviour: a
         different seed yields the identical event sequence. *)
      let _, events2 = collect rt 99 in
      check_bool (name ^ " event stream seed-invariant") true (events = events2))
    det_runtimes

(* --- Golden witnesses ------------------------------------------------- *)

(* Witnesses (memory | sync-order | output hashes) captured before the
   vmem data-structure rewrite: offset-array page histories, aliasing
   workspaces, word-level merges.  The optimizations must not change a
   single observable bit of any deterministic run. *)
let golden_witnesses =
  [
    ("ocean_cp", "ic", 1, 4, "mem:3500e97ddec7b1a5|sync:dc25764496b47537|out:c49cf87fe8105953");
    ("ocean_cp", "ic", 7, 8, "mem:eb2a8b77cfddc7e5|sync:52c31b5a52811ee5|out:b707195714792bac");
    ("ocean_cp", "rr", 1, 4, "mem:d107be09d96580e5|sync:738aae0c1034c2c5|out:c49cf87fe8105953");
    ("ocean_cp", "rr", 7, 8, "mem:08cc10b505866625|sync:dd94fe21b079373d|out:b707195714792bac");
    ("ocean_cp", "dthreads", 1, 4, "mem:d107be09d96580e5|sync:738aae0c1034c2c5|out:c49cf87fe8105953");
    ("ocean_cp", "dthreads", 7, 8, "mem:08cc10b505866625|sync:dd94fe21b079373d|out:b707195714792bac");
    ("lu_ncb", "ic", 1, 4, "mem:3fba6f123bd55125|sync:bde8bf61ea83ac80|out:a2adaaa7778ff46a");
    ("lu_ncb", "ic", 7, 8, "mem:259d8dcc7d1f17a5|sync:f574fd213046e0c0|out:a2c228a777a1738e");
    ("lu_ncb", "rr", 1, 4, "mem:3fba6f123bd55125|sync:6b233b1f658b0954|out:a2adaaa7778ff46a");
    ("lu_ncb", "rr", 7, 8, "mem:259d8dcc7d1f17a5|sync:efb24da613802c58|out:a2c228a777a1738e");
    ("lu_ncb", "dthreads", 1, 4, "mem:3fba6f123bd55125|sync:6b233b1f658b0954|out:a2adaaa7778ff46a");
    ("lu_ncb", "dthreads", 7, 8, "mem:259d8dcc7d1f17a5|sync:efb24da613802c58|out:a2c228a777a1738e");
    ("canneal", "ic", 1, 4, "mem:7f529a7d5585192f|sync:bde8bf61ea83ac80|out:4fc780561cfa8a57");
    ("canneal", "ic", 7, 8, "mem:e6adc733da6dcdc9|sync:f574fd213046e0c0|out:4fdbfa561d0c02af");
    ("canneal", "rr", 1, 4, "mem:7f529a7d5585192f|sync:6b233b1f658b0954|out:4fc780561cfa8a57");
    ("canneal", "rr", 7, 8, "mem:e6adc733da6dcdc9|sync:efb24da613802c58|out:4fdbfa561d0c02af");
    ("canneal", "dthreads", 1, 4, "mem:7f529a7d5585192f|sync:6b233b1f658b0954|out:4fc780561cfa8a57");
    ("canneal", "dthreads", 7, 8, "mem:e6adc733da6dcdc9|sync:efb24da613802c58|out:4fdbfa561d0c02af");
    ("ferret", "ic", 1, 4, "mem:2d65179d8ddd1dc4|sync:b3f68333e65a073c|out:3c728c8cc38ca406");
    (* Re-captured when grant's fast-forward target became the waker's
       fully-published count (it previously embedded the overflow
       publication schedule, which is real-time dependent on the
       domains backend).  Only this configuration exercised a
       coarsened-unlock grant with unpublished instructions. *)
    ("ferret", "ic", 7, 8, "mem:7ac6ba1edded963a|sync:25023183ee3e56be|out:3c728c8cc38ca406");
    ("ferret", "rr", 1, 4, "mem:2d65179d8ddd1dc4|sync:95250b1455c9ba75|out:3c728c8cc38ca406");
    ("ferret", "rr", 7, 8, "mem:631f100e7411bb45|sync:a0986ee5e8ec2cd5|out:3c728c8cc38ca406");
    ("ferret", "dthreads", 1, 4, "mem:2d65179d8ddd1dc4|sync:482306b4c8cc2625|out:3c728c8cc38ca406");
    ("ferret", "dthreads", 7, 8, "mem:7824920bcaafc945|sync:571057fc97664d0d|out:3c728c8cc38ca406");
    ("histogram", "ic", 1, 4, "mem:384cf590cc756005|sync:67960f895c0dfd39|out:bc0ad10f36edc013");
    ("histogram", "ic", 7, 8, "mem:2e915ded5ab0a865|sync:13e54b852099d70e|out:b3703b17bee0ba86");
    ("histogram", "rr", 1, 4, "mem:384cf590cc756005|sync:af202c55a7adf659|out:bc0ad10f36edc013");
    ("histogram", "rr", 7, 8, "mem:2e915ded5ab0a865|sync:4e83f62079f07bfa|out:b3703b17bee0ba86");
    ("histogram", "dthreads", 1, 4, "mem:384cf590cc756005|sync:bd39ad13418b9fb9|out:bc0ad10f36edc013");
    ("histogram", "dthreads", 7, 8, "mem:2e915ded5ab0a865|sync:9caf76ab585d73da|out:b3703b17bee0ba86");
  ]

(* Parallel-commit on/off: the sharded pipelined commit with incremental
   GC relocates cost (off the token hold, onto pool workers, into commit
   slack) but installs the same bytes in the same version order — every
   registry workload must produce a byte-identical witness with the
   machinery on, on every deterministic runtime, at every seed.  This is
   the live counterpart of the hardcoded golden list above: it pins the
   optimized path to whatever the baseline path produces today. *)
let test_parallel_commit_witness_identity () =
  let pipe_of cfg =
    Runtime.Config.with_incremental_gc
      (Runtime.Config.with_commit_shards (Runtime.Config.with_pipelined_commit cfg) 8)
  in
  List.iter
    (fun (entry : Workload.Registry.entry) ->
      List.iter
        (fun rt ->
          match rt with
          | R.Pthreads | R.Domains _ -> ()
          | R.Det cfg ->
              List.iter
                (fun seed ->
                  let base =
                    Res.deterministic_witness (R.run rt ~seed ~nthreads:8 entry.program)
                  in
                  let piped =
                    Res.deterministic_witness
                      (R.run (R.Det (pipe_of cfg)) ~seed ~nthreads:8 entry.program)
                  in
                  check_string
                    (Printf.sprintf "%s/%s seed=%d pipelined" entry.program.Api.name
                       (R.name rt) seed)
                    base piped)
                [ 1; 7 ])
        [ R.consequence_ic; R.consequence_rr; R.dthreads ])
    Workload.Registry.all

let test_golden_witnesses () =
  List.iter
    (fun (bench, rt_name, seed, threads, expected) ->
      let rt =
        match rt_name with
        | "ic" -> R.consequence_ic
        | "rr" -> R.consequence_rr
        | _ -> R.dthreads
      in
      let program = (Workload.Registry.find bench).Workload.Registry.program in
      let got = Res.deterministic_witness (R.run rt ~seed ~nthreads:threads program) in
      check_string
        (Printf.sprintf "%s/%s seed=%d t=%d" bench rt_name seed threads)
        expected got)
    golden_witnesses

(* --- Real-multicore identity (Domains_rt vs the DES) ------------------ *)

let domains_witness ?(cfg = Runtime.Config.consequence_ic) ~domains ~seed program =
  Res.deterministic_witness
    (Runtime.Domains_rt.run cfg ~domains ~seed ~nthreads:8 program)

(* The tentpole claim of the real-multicore backend: running the very
   same Consequence algorithms on OCaml 5 domains yields a witness
   byte-identical to the DES, for every registry workload, across seeds
   {1,7} and domain counts {1, 2, auto}. *)
let test_domains_witness_identity () =
  List.iter
    (fun (entry : Workload.Registry.entry) ->
      List.iter
        (fun seed ->
          let des =
            Res.deterministic_witness
              (R.run R.consequence_ic ~seed ~nthreads:8 entry.program)
          in
          List.iter
            (fun domains ->
              check_string
                (Printf.sprintf "%s seed=%d domains=%d" entry.program.Api.name seed
                   domains)
                des
                (domains_witness ~domains ~seed entry.program))
            [ 1; 2; 0 ])
        [ 1; 7 ])
    Workload.Registry.all

(* Same identity for the pipelined sharded-commit configuration, on a
   subset (the full matrix above already covers the base config). *)
let test_domains_pipe_witness_identity () =
  let pipe =
    Runtime.Config.with_incremental_gc
      (Runtime.Config.with_commit_shards
         (Runtime.Config.with_pipelined_commit Runtime.Config.consequence_ic)
         8)
  in
  List.iter
    (fun bench ->
      let program = (Workload.Registry.find bench).Workload.Registry.program in
      let des =
        Res.deterministic_witness (R.run (R.Det pipe) ~seed:1 ~nthreads:8 program)
      in
      check_string
        (Printf.sprintf "%s pipe domains=2" bench)
        des
        (domains_witness ~cfg:pipe ~domains:2 ~seed:1 program))
    [ "histogram"; "word_count"; "dedup"; "barnes" ]

(* --- read_into contract ------------------------------------------------- *)

(* Each worker writes a page-straddling slot and reads it straight back
   before any sync (its own uncommitted store), then after a barrier
   reads a range spanning every slot, then attempts a read that runs
   off the end of the heap.  [into] selects [read_into] over [read] for
   all three; [own_ok] and [errors] collect what the reads saw. *)
let reads_program ~into ~own_ok ~errors =
  let page_size = 64 and heap_pages = 16 in
  let get (w : Api.ops) ~addr ~len =
    if into then begin
      let buf = Bytes.create len in
      w.Api.read_into ~addr buf;
      buf
    end
    else w.Api.read ~addr ~len
  in
  Api.make ~name:"reads" ~heap_pages ~page_size (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let slot i = (i * 80) + 40 in
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                let mine = Bytes.init 80 (fun k -> Char.chr (((i * 37) + k) land 255)) in
                w.Api.work (100 + (i * 17));
                w.Api.write ~addr:(slot i) mine;
                if not (Bytes.equal (get w ~addr:(slot i) ~len:80) mine) then
                  Atomic.set own_ok false;
                w.Api.barrier_wait 0;
                let all = get w ~addr:40 ~len:(80 * nthreads) in
                w.Api.log_output (Printf.sprintf "t%d %s" i (Digest.to_hex (Digest.bytes all)));
                match get w ~addr:((page_size * heap_pages) - 8) ~len:16 with
                | _ -> w.Api.log_output "no error"
                | exception Invalid_argument m ->
                    if i = 0 then errors := m :: !errors;
                    w.Api.log_output m))
      in
      List.iter ops.Api.join workers)

(* [read_into] is charged and checked exactly like [read]: on every
   preset the two variants of the same program agree on the full
   witness and (except on real domains, whose wall time is real) on
   wall_ns, see their own uncommitted writes, and raise the same
   out-of-range error. *)
let test_read_into_matches_read () =
  List.iter
    (fun name ->
      let rt = Option.get (R.of_name name) in
      let run into =
        let own_ok = Atomic.make true and errors = ref [] in
        let r = R.run rt ~seed:3 ~nthreads:4 (reads_program ~into ~own_ok ~errors) in
        check_bool (Printf.sprintf "%s into=%b sees own writes" name into) true (Atomic.get own_ok);
        (r, !errors)
      in
      let r_read, e_read = run false and r_into, e_into = run true in
      check_string (name ^ " witness") (Res.deterministic_witness r_read)
        (Res.deterministic_witness r_into);
      if rt <> R.domains then check_int (name ^ " wall_ns") r_read.Res.wall_ns r_into.Res.wall_ns;
      check_int (name ^ " one range error") 1 (List.length e_read);
      Alcotest.(check (list string)) (name ^ " same range error") e_read e_into)
    R.names

(* --- Tuned knob points (lib/tune) --------------------------------------- *)

let test_run_names_cover_presets () =
  (* The full resolvable runtime set must round-trip name <-> preset and
     include the two presets `all` excludes (pipe, domains). *)
  List.iter
    (fun n ->
      match R.of_name n with
      | Some rt -> check_string (n ^ " round-trips") n (R.name rt)
      | None -> Alcotest.failf "Run.names lists %S but of_name rejects it" n)
    R.names;
  check_bool "all presets listed" true
    (List.for_all (fun rt -> List.mem (R.name rt) R.names) R.all);
  check_bool "pipe listed" true (List.mem (R.name R.consequence_pipe) R.names);
  check_bool "domains listed" true (List.mem (R.name R.domains) R.names);
  check_bool "unknown name rejected" true (R.of_name "no-such-runtime" = None);
  Alcotest.(check int) "seven resolvable runtimes" 7 (List.length R.names)

(* The five runtimes of the tuned cross-runtime identity claim, each at
   the static knob point [params]. *)
let tuned_runtimes params =
  let tuned cfg = Tune.Profiles.with_params params cfg in
  [
    ("ic", R.Det (tuned Runtime.Config.consequence_ic));
    ("rr", R.Det (tuned Runtime.Config.consequence_rr));
    ("pipe", R.Det (tuned Runtime.Config.consequence_pipe));
    ("dthreads", R.Det (tuned Runtime.Config.dthreads));
    ("domains", R.Domains (tuned Runtime.Config.consequence_ic));
  ]

(* Value-determinism at tuned knob points, mirroring the
   pipelined-commit on/off matrix: per-runtime witnesses are seed-stable,
   memory and output hashes agree across all five runtimes, and the full
   witness (including the sync-order hash, which legitimately differs
   between token-ordering disciplines) is identical within the
   consequence-ic family {ic, pipe, domains}.  The two grid points move
   the overflow knobs and the coarsening knobs respectively. *)
let test_tuned_witness_matrix () =
  List.iter
    (fun (point, bench) ->
      let params = List.assoc point Tune.Search.hand_grid in
      let program = (Workload.Registry.find bench).Workload.Registry.program in
      let bench = Printf.sprintf "%s@%s" bench point in
      let results =
        List.map
          (fun (label, rt) ->
            let r1 = R.run rt ~seed:1 ~nthreads:8 program in
            let r7 = R.run rt ~seed:7 ~nthreads:8 program in
            check_string
              (Printf.sprintf "%s/%s seed-stable" bench label)
              (Res.deterministic_witness r1)
              (Res.deterministic_witness r7);
            (label, r1))
          (tuned_runtimes params)
      in
      let _, ic = List.hd results in
      List.iter
        (fun (label, r) ->
          check_string
            (Printf.sprintf "%s/%s mem hash" bench label)
            ic.Res.mem_hash r.Res.mem_hash;
          check_string
            (Printf.sprintf "%s/%s output hash" bench label)
            ic.Res.output_hash r.Res.output_hash)
        (List.tl results);
      List.iter
        (fun (label, r) ->
          if label = "pipe" || label = "domains" then
            check_string
              (Printf.sprintf "%s/%s full witness = ic" bench label)
              (Res.deterministic_witness ic)
              (Res.deterministic_witness r))
        (List.tl results))
    (List.concat_map
       (fun point -> List.map (fun b -> (point, b)) [ "kmeans"; "histogram"; "matrix_multiply" ])
       [ "hand-huge-chunk"; "hand-coarse" ])

(* Cheap always-on cross-check so plain `dune runtest` exercises the
   real-parallel path (the full sweep above is `Slow). *)
let test_domains_witness_identity_quick () =
  List.iter
    (fun bench ->
      let program = (Workload.Registry.find bench).Workload.Registry.program in
      let des =
        Res.deterministic_witness (R.run R.consequence_ic ~seed:1 ~nthreads:8 program)
      in
      check_string (Printf.sprintf "%s quick domains=2" bench) des
        (domains_witness ~domains:2 ~seed:1 program))
    [ "histogram"; "string_match"; "swaptions" ]

(* --- Allocation ------------------------------------------------------- *)

(* [Cost_model.work_ns] at two seeds, captured before the jitter draw
   moved inside [Sim.Prng]: every simulated chunk time goes through it. *)
let test_work_ns_stream_pin () =
  let sizes = [ 0; 1; 7; 100; 12_345; 1_000_000 ] in
  List.iter
    (fun (seed, expect) ->
      let p = Sim.Prng.create ~seed in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d" seed)
        expect
        (List.map (Runtime.Cost_model.work_ns Runtime.Cost_model.default p) sizes))
    [ (1, [ 0; 1; 3; 57; 6_069; 491_639 ]); (42, [ 0; 1; 3; 46; 5_883; 430_704 ]) ]

let test_work_ns_allocates_nothing () =
  let p = Sim.Prng.create ~seed:5 and costs = Runtime.Cost_model.default in
  Alcotest.(check (float 0.0))
    "minor words" 0.0
    (Alloc_probe.words_beyond_probe (fun () ->
         for n = 1 to 10_000 do
           ignore (Sys.opaque_identity (Runtime.Cost_model.work_ns costs p n))
         done))

(* Words a whole run allocates per extra lock/unlock pair: two run
   lengths of [locked_counter] are compared, so set-up cancels out and
   engine, vmem and runtime allocations all count. *)
let words_per_lock_pair rt =
  let words iters =
    Gc.full_major ();
    Alloc_probe.words_beyond_probe (fun () ->
        ignore (R.run rt ~seed:1 ~nthreads:4 (locked_counter ~iters)))
  in
  let w1 = words 250 and w2 = words 500 in
  (w2 -. w1) /. float_of_int (4 * 250)

(* Consequence-IC coarsens this loop into a handful of commits, so a
   lock/unlock pair costs (almost) only the sync-op path itself, which
   allocates nothing.  Pthreads allocates only the engine's
   continuations of its lock waits.  DThreads commits and meets at the
   fence on every op; what it allocates is the engine's continuations and
   the commit's arrays, records and page copies. *)
let test_lock_pair_allocation () =
  List.iter
    (fun (rt, bound) ->
      let words = words_per_lock_pair rt in
      check_bool
        (Printf.sprintf "%s: %.1f words per pair" (R.name rt) words)
        true (words < bound))
    [ (R.consequence_ic, 1.0); (R.pthreads, 10.0); (R.dthreads, 130.0) ]

let () =
  Alcotest.run "runtime"
    [
      ( "basic",
        [
          Alcotest.test_case "all runtimes complete" `Quick test_all_runtimes_complete;
          Alcotest.test_case "locked counter exact" `Quick test_locked_counter_exact_everywhere;
          Alcotest.test_case "same seed reproducible" `Quick test_same_seed_reproducible;
          Alcotest.test_case "per-thread names" `Quick test_per_thread_names;
          Alcotest.test_case "best over threads" `Quick test_best_over_threads;
          Alcotest.test_case "config preset invariants" `Quick test_config_presets_invariants;
          Alcotest.test_case "single global lock aliases" `Quick test_single_global_lock_aliases;
          Alcotest.test_case "breakdown bounded" `Quick test_breakdown_covers_wall_time;
          Alcotest.test_case "read_into charged like read" `Quick test_read_into_matches_read;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "det runtimes seed-invariant" `Quick
            test_det_runtimes_seed_invariant;
          Alcotest.test_case "pthreads diverges" `Quick test_pthreads_diverges_across_seeds;
          Alcotest.test_case "stable per thread count" `Quick
            test_det_runtimes_thread_count_changes_allowed;
          QCheck_alcotest.to_alcotest prop_random_programs_deterministic;
          QCheck_alcotest.to_alcotest prop_locked_counter_memory_agrees;
        ] );
      ( "synchronization",
        [
          Alcotest.test_case "barrier visibility" `Quick test_barrier_visibility;
          Alcotest.test_case "producer/consumer" `Quick test_producer_consumer;
          Alcotest.test_case "unlock without lock" `Quick test_unlock_without_lock_raises;
          Alcotest.test_case "self deadlock detected" `Quick test_self_deadlock_detected;
          Alcotest.test_case "uninitialized barrier" `Quick test_uninitialized_barrier_raises;
        ] );
      ( "atomics",
        [
          Alcotest.test_case "plain rmw atomic under pthreads" `Quick
            test_plain_rmw_atomic_under_pthreads;
          Alcotest.test_case "plain rmw loses updates deterministically" `Quick
            test_plain_rmw_loses_updates_deterministically;
          Alcotest.test_case "atomic rmw exact everywhere" `Quick test_atomic_rmw_exact_everywhere;
        ] );
      ( "ad-hoc-sync",
        [
          Alcotest.test_case "stuck without chunk limit" `Slow test_flag_spin_stuck_without_limit;
          Alcotest.test_case "terminates with chunk limit" `Quick
            test_flag_spin_terminates_with_limit;
          Alcotest.test_case "fine under pthreads" `Quick test_flag_spin_fine_under_pthreads;
        ] );
      ( "optimizations",
        [
          Alcotest.test_case "coarsening reduces commits" `Quick test_coarsening_reduces_commits;
          Alcotest.test_case "static coarsening levels" `Quick test_static_coarsening_levels_run;
          Alcotest.test_case "coarsening preserves results" `Quick
            test_coarsening_preserves_results;
          Alcotest.test_case "ablations deterministic" `Quick test_ablation_configs_deterministic;
          Alcotest.test_case "thread pool reuse" `Quick test_thread_pool_reuse;
          Alcotest.test_case "counter jitter runs" `Quick test_counter_jitter_still_runs;
          Alcotest.test_case "IC beats RR on mismatch" `Quick test_ic_beats_rr_on_mismatched_rates;
        ] );
      ( "observability",
        [
          Alcotest.test_case "instrumentation is determinism-neutral" `Quick
            test_obs_neutrality;
          Alcotest.test_case "observer events in token order" `Quick
            test_observer_token_order;
        ] );
      ( "golden",
        [
          Alcotest.test_case "witnesses match pre-rewrite baseline" `Slow test_golden_witnesses;
          Alcotest.test_case "pipelined sharded commit witness-identical" `Slow
            test_parallel_commit_witness_identity;
        ] );
      ( "tune",
        [
          Alcotest.test_case "Run.names covers every preset" `Quick
            test_run_names_cover_presets;
          Alcotest.test_case "tuned witness matrix" `Quick test_tuned_witness_matrix;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "work_ns stream pin" `Quick test_work_ns_stream_pin;
          Alcotest.test_case "work_ns allocates nothing" `Quick test_work_ns_allocates_nothing;
          Alcotest.test_case "lock pair allocation" `Quick test_lock_pair_allocation;
        ] );
      ( "domains",
        [
          Alcotest.test_case "witness-identical to DES (quick)" `Quick
            test_domains_witness_identity_quick;
          Alcotest.test_case "witness-identical across seeds and domain counts" `Slow
            test_domains_witness_identity;
          Alcotest.test_case "pipelined config witness-identical" `Slow
            test_domains_pipe_witness_identity;
        ] );
    ]
