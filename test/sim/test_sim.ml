(* Tests for the discrete-event simulation substrate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_same_seed_same_stream () =
  let a = Sim.Prng.create ~seed:42 and b = Sim.Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Prng.next_int64 a) (Sim.Prng.next_int64 b)
  done

let test_prng_different_seeds_differ () =
  let a = Sim.Prng.create ~seed:1 and b = Sim.Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Prng.next_int64 a <> Sim.Prng.next_int64 b then differs := true
  done;
  check_bool "streams differ" true !differs

let test_prng_int_bounds () =
  let p = Sim.Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Sim.Prng.int p ~bound:13 in
    check_bool "in range" true (x >= 0 && x < 13)
  done

let test_prng_float_bounds () =
  let p = Sim.Prng.create ~seed:9 in
  for _ = 1 to 1000 do
    let x = Sim.Prng.float p in
    check_bool "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_jitter_bounds () =
  let p = Sim.Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let x = Sim.Prng.jitter p ~amplitude:0.2 in
    check_bool "in [0.8,1.2]" true (x >= 0.8 && x <= 1.2)
  done

let test_prng_split_independent () =
  let a = Sim.Prng.create ~seed:5 in
  let b = Sim.Prng.split a in
  (* After a split, both streams continue; they should not be identical. *)
  let same = ref true in
  for _ = 1 to 10 do
    if Sim.Prng.next_int64 a <> Sim.Prng.next_int64 b then same := false
  done;
  check_bool "split streams differ" false !same

let test_prng_copy_preserves_state () =
  let a = Sim.Prng.create ~seed:3 in
  ignore (Sim.Prng.next_int64 a);
  let b = Sim.Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Sim.Prng.next_int64 a)
    (Sim.Prng.next_int64 b)

let test_prng_exponential_positive () =
  let p = Sim.Prng.create ~seed:13 in
  for _ = 1 to 200 do
    check_bool "positive" true (Sim.Prng.exponential p ~mean:10.0 > 0.0)
  done

let test_prng_shuffle_permutation () =
  let p = Sim.Prng.create ~seed:17 in
  let arr = Array.init 50 (fun i -> i) in
  Sim.Prng.shuffle p arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

let test_heap_empty () =
  let h : int Sim.Heap.t = Sim.Heap.create () in
  check_bool "empty" true (Sim.Heap.is_empty h);
  check_int "length" 0 (Sim.Heap.length h);
  check_bool "pop none" true (Sim.Heap.pop h = None);
  check_bool "peek none" true (Sim.Heap.peek_key h = None)

let test_heap_orders_by_key () =
  let h = Sim.Heap.create () in
  List.iter (fun k -> Sim.Heap.push h ~key:k k) [ 5; 1; 4; 2; 3 ];
  let popped = List.init 5 (fun _ -> match Sim.Heap.pop h with Some (k, _) -> k | None -> -1) in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] popped

let test_heap_fifo_on_ties () =
  let h = Sim.Heap.create () in
  List.iter (fun v -> Sim.Heap.push h ~key:7 v) [ "a"; "b"; "c"; "d" ];
  let popped =
    List.init 4 (fun _ -> match Sim.Heap.pop h with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "insertion order" [ "a"; "b"; "c"; "d" ] popped

let test_heap_interleaved_ties () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h ~key:2 "late-a";
  Sim.Heap.push h ~key:1 "early";
  Sim.Heap.push h ~key:2 "late-b";
  let popped =
    List.init 3 (fun _ -> match Sim.Heap.pop h with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "key then seq" [ "early"; "late-a"; "late-b" ] popped

let test_heap_clear () =
  let h = Sim.Heap.create () in
  for i = 1 to 10 do
    Sim.Heap.push h ~key:i i
  done;
  Sim.Heap.clear h;
  check_bool "cleared" true (Sim.Heap.is_empty h)

let test_heap_to_list_nondestructive () =
  let h = Sim.Heap.create () in
  List.iter (fun k -> Sim.Heap.push h ~key:k k) [ 3; 1; 2 ];
  let l = Sim.Heap.to_list h in
  Alcotest.(check (list int)) "snapshot sorted" [ 1; 2; 3 ] (List.map fst l);
  check_int "heap unchanged" 3 (Sim.Heap.length h)

let prop_heap_pop_sorted =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun keys ->
      let h = Sim.Heap.create () in
      List.iter (fun k -> Sim.Heap.push h ~key:k k) keys;
      let rec drain acc =
        match Sim.Heap.pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare keys)

let prop_heap_stable_ties =
  QCheck.Test.make ~name:"heap preserves insertion order among equal keys" ~count:200
    QCheck.(list (pair (int_bound 5) (int_bound 10000)))
    (fun items ->
      let h = Sim.Heap.create () in
      List.iter (fun (k, v) -> Sim.Heap.push h ~key:k v) items;
      let rec drain acc =
        match Sim.Heap.pop h with
        | Some (k, v) -> drain ((k, v) :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      (* Stable sort of the input by key must equal pop order. *)
      popped = List.stable_sort (fun (a, _) (b, _) -> compare a b) items)

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let test_engine_advance_accumulates () =
  let eng = Sim.Engine.create ~seed:0 () in
  let final = ref 0 in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.advance eng 10;
         Sim.Engine.advance eng 15;
         final := Sim.Engine.now eng));
  Sim.Engine.run eng;
  check_int "time accumulated" 25 !final

let test_engine_parallel_threads_overlap () =
  (* Two fibers advancing 100ns each finish at t=100, not t=200: they run
     on separate simulated cores. *)
  let eng = Sim.Engine.create ~seed:0 () in
  ignore (Sim.Engine.spawn eng (fun () -> Sim.Engine.advance eng 100));
  ignore (Sim.Engine.spawn eng (fun () -> Sim.Engine.advance eng 100));
  Sim.Engine.run eng;
  check_int "parallel finish" 100 (Sim.Engine.now eng)

let test_engine_self_ids () =
  let eng = Sim.Engine.create ~seed:0 () in
  let ids = ref [] in
  for _ = 1 to 3 do
    ignore (Sim.Engine.spawn eng (fun () -> ids := Sim.Engine.self eng :: !ids))
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "ids in spawn order" [ 0; 1; 2 ] (List.rev !ids)

let test_engine_block_wakeup () =
  let eng = Sim.Engine.create ~seed:0 () in
  let woke_at = ref (-1) in
  let sleeper =
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.block eng ~reason:"test";
        woke_at := Sim.Engine.now eng)
  in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.advance eng 50;
         Sim.Engine.wakeup eng sleeper));
  Sim.Engine.run eng;
  check_int "woken at waker's time" 50 !woke_at

let test_engine_pending_wakeup_permit () =
  (* Wakeup posted before the target blocks must not be lost. *)
  let eng = Sim.Engine.create ~seed:0 () in
  let done_ = ref false in
  let target =
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.advance eng 100;
        (* Waker has already fired by now. *)
        Sim.Engine.block eng ~reason:"should not stick";
        done_ := true)
  in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.advance eng 10;
         Sim.Engine.wakeup eng target));
  Sim.Engine.run eng;
  check_bool "permit consumed" true !done_

let test_engine_deadlock_detection () =
  let eng = Sim.Engine.create ~seed:0 () in
  ignore (Sim.Engine.spawn eng ~name:"stuck" (fun () -> Sim.Engine.block eng ~reason:"forever"));
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let raised =
    try
      Sim.Engine.run eng;
      false
    with Sim.Engine.Deadlock msg ->
      check_bool "message mentions fiber" true (contains ~sub:"stuck" msg);
      check_bool "message mentions reason" true (contains ~sub:"forever" msg);
      true
  in
  check_bool "deadlock raised" true raised

let test_engine_spawn_from_fiber () =
  let eng = Sim.Engine.create ~seed:0 () in
  let child_ran_at = ref (-1) in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.advance eng 30;
         ignore
           (Sim.Engine.spawn eng (fun () ->
                Sim.Engine.advance eng 5;
                child_ran_at := Sim.Engine.now eng))));
  Sim.Engine.run eng;
  check_int "child starts at parent's time" 35 !child_ran_at

let test_engine_exit_fiber () =
  let eng = Sim.Engine.create ~seed:0 () in
  let after_exit = ref false in
  let id =
    Sim.Engine.spawn eng (fun () ->
        if true then ignore (Sim.Engine.exit_fiber eng);
        after_exit := true)
  in
  Sim.Engine.run eng;
  check_bool "code after exit not run" false !after_exit;
  check_bool "fiber finished" true (Sim.Engine.is_finished eng id)

let test_engine_wakeup_finished_noop () =
  let eng = Sim.Engine.create ~seed:0 () in
  let id = Sim.Engine.spawn eng (fun () -> ()) in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.advance eng 10;
         Sim.Engine.wakeup eng id));
  Sim.Engine.run eng;
  check_bool "no crash" true true

let test_engine_blocked_reason () =
  let eng = Sim.Engine.create ~seed:0 () in
  let observed = ref None in
  let sleeper = Sim.Engine.spawn eng (fun () -> Sim.Engine.block eng ~reason:"lock:A") in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.advance eng 5;
         observed := Sim.Engine.blocked_reason eng sleeper;
         Sim.Engine.wakeup eng sleeper));
  Sim.Engine.run eng;
  Alcotest.(check (option string)) "reason visible" (Some "lock:A") !observed

let test_engine_stuck_budget () =
  let eng = Sim.Engine.create ~max_events:100 ~seed:0 () in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         while true do
           Sim.Engine.advance eng 1
         done));
  let raised = try Sim.Engine.run eng; false with Sim.Engine.Stuck _ -> true in
  check_bool "stuck raised" true raised

let test_engine_exception_propagates () =
  let eng = Sim.Engine.create ~seed:0 () in
  ignore (Sim.Engine.spawn eng (fun () -> failwith "boom"));
  let raised = try Sim.Engine.run eng; false with Failure m -> m = "boom" in
  check_bool "fiber exception escapes run" true raised

let test_engine_names () =
  let eng = Sim.Engine.create ~seed:0 () in
  let a = Sim.Engine.spawn eng ~name:"alpha" (fun () -> ()) in
  let b = Sim.Engine.spawn eng (fun () -> ()) in
  check_string "explicit name" "alpha" (Sim.Engine.name_of eng a);
  check_string "default name" "fiber-1" (Sim.Engine.name_of eng b);
  Sim.Engine.run eng;
  check_int "fiber count" 2 (Sim.Engine.fiber_count eng)

let test_engine_deterministic_interleaving () =
  (* The same program with the same seed produces the same event order. *)
  let run_once () =
    let eng = Sim.Engine.create ~seed:99 () in
    let trace = Sim.Trace.create () in
    for i = 0 to 3 do
      ignore
        (Sim.Engine.spawn eng (fun () ->
             let p = Sim.Prng.split (Sim.Engine.prng eng) in
             for step = 1 to 5 do
               Sim.Engine.advance eng (Sim.Prng.int p ~bound:20 + 1);
               Sim.Trace.record trace ~time:(Sim.Engine.now eng) ~tid:i
                 ~label:(Printf.sprintf "step%d" step)
             done))
    done;
    Sim.Engine.run eng;
    Sim.Trace.timed_hash trace
  in
  check_string "identical timed traces" (run_once ()) (run_once ())

let test_engine_zero_advance_yields () =
  (* advance 0 must not hang and must let a same-instant event run. *)
  let eng = Sim.Engine.create ~seed:0 () in
  let order = ref [] in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         order := "a1" :: !order;
         Sim.Engine.advance eng 0;
         order := "a2" :: !order));
  ignore (Sim.Engine.spawn eng (fun () -> order := "b" :: !order));
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "yield interleaves" [ "a1"; "b"; "a2" ] (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Fnv / Trace                                                        *)
(* ------------------------------------------------------------------ *)

let test_fnv_known_values () =
  (* FNV-1a 64 of the empty string is the offset basis. *)
  check_string "empty" "cbf29ce484222325" (Sim.Fnv.to_hex Sim.Fnv.init);
  (* Standard test vector: FNV-1a 64 of "a" = af63dc4c8601ec8c. *)
  check_string "a" "af63dc4c8601ec8c" (Sim.Fnv.to_hex (Sim.Fnv.string Sim.Fnv.init "a"))

let test_fnv_int_order_sensitive () =
  let h1 = Sim.Fnv.int (Sim.Fnv.int Sim.Fnv.init 1) 2 in
  let h2 = Sim.Fnv.int (Sim.Fnv.int Sim.Fnv.init 2) 1 in
  check_bool "order matters" false (h1 = h2)

let test_trace_hash_ignores_time () =
  let t1 = Sim.Trace.create () and t2 = Sim.Trace.create () in
  Sim.Trace.record t1 ~time:10 ~tid:0 ~label:"x";
  Sim.Trace.record t2 ~time:99 ~tid:0 ~label:"x";
  check_string "untimed hash equal" (Sim.Trace.hash t1) (Sim.Trace.hash t2);
  check_bool "timed hash differs" false (Sim.Trace.timed_hash t1 = Sim.Trace.timed_hash t2)

(* Digests of a fixed record sequence, captured from the list-keeping
   trace this hash-only one replaced: a change to the fold order or to
   the byte encoding of time, tid or label shows up here. *)
let test_trace_hash_compat () =
  let t = Sim.Trace.create () in
  List.iter
    (fun (time, tid, label) -> Sim.Trace.record t ~time ~tid ~label)
    [
      (0, 0, "spawn:1");
      (13_550, 1, "lock:3");
      (13_550, 1, "");
      (max_int, 63, "forced-commit");
      (7, 1 lsl 40, "barrier:0");
      (-1, -5, "\xff\x00x");
    ];
  check_int "length" 6 (Sim.Trace.length t);
  check_string "hash" "8bd3007043f21cd2" (Sim.Trace.hash t);
  check_string "timed hash" "e6ac7dcafa95ce55" (Sim.Trace.timed_hash t)

let test_trace_record_allocates_nothing () =
  let t = Sim.Trace.create () in
  let labels = [| "lock:3"; "commit:12345"; "" |] in
  let w0 = Gc.minor_words () in
  for i = 1 to 100_000 do
    Sim.Trace.record t ~time:i ~tid:(i land 7) ~label:labels.(i mod 3)
  done;
  let w1 = Gc.minor_words () in
  check_int "minor words" 0 (int_of_float (w1 -. w0));
  check_int "counted" 100_000 (Sim.Trace.length t)

(* [record_int] folds exactly the bytes of [label ^ string_of_int n],
   for every sign and width, and allocates nothing. *)
let test_trace_record_int () =
  let a = Sim.Trace.create () and b = Sim.Trace.create () in
  let ns = [ 0; 7; 10; 99; 100; 12_345; -1; -10; -987; max_int; min_int ] in
  List.iteri
    (fun i n ->
      Sim.Trace.record a ~time:i ~tid:(i land 3) ~label:("commit:" ^ string_of_int n);
      Sim.Trace.record_int b ~time:i ~tid:(i land 3) ~label:"commit:" n)
    ns;
  check_string "hash" (Sim.Trace.hash a) (Sim.Trace.hash b);
  check_string "timed hash" (Sim.Trace.timed_hash a) (Sim.Trace.timed_hash b);
  let words =
    Alloc_probe.words_beyond_probe (fun () ->
        for i = 1 to 10_000 do
          Sim.Trace.record_int b ~time:i ~tid:1 ~label:"commit:" (i * 7919)
        done)
  in
  Alcotest.(check (float 0.0)) "minor words" 0.0 words

let test_trace_order_sensitivity () =
  let t1 = Sim.Trace.create () and t2 = Sim.Trace.create () in
  Sim.Trace.record t1 ~time:0 ~tid:0 ~label:"a";
  Sim.Trace.record t1 ~time:0 ~tid:1 ~label:"b";
  Sim.Trace.record t2 ~time:0 ~tid:1 ~label:"b";
  Sim.Trace.record t2 ~time:0 ~tid:0 ~label:"a";
  check_bool "different order, different hash" false (Sim.Trace.hash t1 = Sim.Trace.hash t2)

(* ------------------------------------------------------------------ *)
(* Worker pool                                                        *)
(* ------------------------------------------------------------------ *)

let test_pool_runs_all_indices () =
  let p = Sim.Par.create_pool ~workers:3 () in
  Fun.protect
    ~finally:(fun () -> Sim.Par.shutdown_pool p)
    (fun () ->
      let n = 1000 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Sim.Par.run_pool p n (fun i -> Atomic.incr hits.(i));
      Array.iteri
        (fun i h -> check_int (Printf.sprintf "index %d exactly once" i) 1 (Atomic.get h))
        hits)

(* Regression for the back-to-back straggler race: a worker preempted
   between claiming an index and checking it against the job bound must
   not be able to run (or double-complete) an index of the *next* job
   after dispatch reuses the pool.  Alternating tiny and large counts
   maximizes the window where a straggler's stale claim would fall
   inside the next job's range; per-index atomic counters catch any
   duplicate execution. *)
let test_pool_back_to_back_exactly_once () =
  let p = Sim.Par.create_pool ~workers:3 () in
  Fun.protect
    ~finally:(fun () -> Sim.Par.shutdown_pool p)
    (fun () ->
      let rounds = 400 in
      for r = 0 to rounds - 1 do
        let n = if r mod 2 = 0 then 2 else 64 in
        let hits = Array.init n (fun _ -> Atomic.make 0) in
        Sim.Par.run_pool p n (fun i -> Atomic.incr hits.(i));
        Array.iteri
          (fun i h ->
            check_int (Printf.sprintf "round %d index %d exactly once" r i) 1
              (Atomic.get h))
          hits
      done)

(* First outputs at two seeds, captured before the state went unboxed: a
   change to the SplitMix64 step, the output mix or any draw's
   arithmetic shows up here. *)
let test_prng_stream_pin () =
  let pin seed ~raw ~ints ~floats ~jitters ~child ~after =
    let p = Sim.Prng.create ~seed in
    let hex = Printf.sprintf "%Lx" and exact = Printf.sprintf "%h" in
    let next () = hex (Sim.Prng.next_int64 p) in
    Alcotest.(check (list string)) "next_int64" raw (List.init 3 (fun _ -> next ()));
    Alcotest.(check (list int)) "int" ints (List.init 4 (fun _ -> Sim.Prng.int p ~bound:1000));
    Alcotest.(check (list string)) "float" floats
      (List.init 3 (fun _ -> exact (Sim.Prng.float p)));
    Alcotest.(check (list string)) "jitter" jitters
      (List.init 3 (fun _ -> exact (Sim.Prng.jitter p ~amplitude:0.15)));
    let c = Sim.Prng.split p in
    Alcotest.(check (list string)) "split child" child
      (List.init 2 (fun _ -> hex (Sim.Prng.next_int64 c)));
    check_string "parent after split" after (next ())
  in
  pin 1
    ~raw:[ "910a2dec89025cc1"; "beeb8da1658eec67"; "f893a2eefb32555e" ]
    ~ints:[ 331; 857; 336; 333 ]
    ~floats:[ "0x1.0bcf761e244fp-1"; "0x1.245c6378d5f8ep-2"; "0x1.9686b91ce8c2cp-1" ]
    ~jitters:[ "0x1.f146b77a9a66fp-1"; "0x1.0818a6171fd7ep+0"; "0x1.f914161fc6ffdp-1" ]
    ~child:[ "10b298b9172e6c76"; "190064963f813157" ]
    ~after:"6f9b6dae6f4c57a8";
  pin 42
    ~raw:[ "bdd732262feb6e95"; "28efe333b266f103"; "47526757130f9f52" ]
    ~ints:[ 860; 250; 350; 925 ]
    ~floats:[ "0x1.99ec6bdd3d3c5p-1"; "0x1.5c16e1dc2cf5ep-2"; "0x1.3ca9ae7052feep-1" ]
    ~jitters:[ "0x1.d2ac44931469ep-1"; "0x1.feec52d55ca7p-1"; "0x1.010760dc72f91p+0" ]
    ~child:[ "cf970be8c71845af"; "d270b3f6224f20ab" ]
    ~after:"aa47e31c02e78edc"

let test_prng_jittered_matches_jitter () =
  let a = Sim.Prng.create ~seed:9 and b = Sim.Prng.create ~seed:9 in
  List.iter
    (fun n ->
      check_int
        (Printf.sprintf "n=%d" n)
        (int_of_float (float_of_int n *. 0.5 *. Sim.Prng.jitter a ~amplitude:0.15))
        (Sim.Prng.jittered b ~amplitude:0.15 ~scale:0.5 n))
    [ 0; 1; 7; 100; 12_345; 1_000_000; max_int / 4 ]

(* The state is unboxed: [int] and [jittered] allocate nothing, and
   [float] allocates only the 2-word box of its result. *)
let test_prng_draws_allocate_nothing () =
  let p = Sim.Prng.create ~seed:3 in
  let draws = 10_000 in
  let words f = Alloc_probe.words_beyond_probe (fun () -> for _ = 1 to draws do f () done) in
  Alcotest.(check (float 0.0)) "int" 0.0 (words (fun () -> ignore (Sim.Prng.int p ~bound:1000)));
  Alcotest.(check (float 0.0))
    "jittered" 0.0
    (words (fun () -> ignore (Sim.Prng.jittered p ~amplitude:0.15 ~scale:0.5 1234)));
  Alcotest.(check (float 0.0))
    "float: its result only" (float_of_int (2 * draws))
    (words (fun () -> ignore (Sys.opaque_identity (Sim.Prng.float p))))

(* An effect round trip captures a continuation (2 words) and parks it
   on the fiber; nothing else on the dispatch path allocates.  Two run
   lengths are compared so the fibers' one-off set-up cancels out. *)
let test_engine_dispatch_allocation_bounded () =
  let run rounds =
    let eng = Sim.Engine.create ~seed:1 () in
    let a = ref 0 and b = ref 0 in
    let pingpong other () =
      for _ = 1 to rounds do
        Sim.Engine.wakeup eng !other;
        Sim.Engine.block eng ~reason:"ping";
        (* Both fibers are due at the same instant, so this Advance goes
           through the queue instead of the solo fast path. *)
        Sim.Engine.advance eng 10
      done;
      Sim.Engine.wakeup eng !other
    in
    a := Sim.Engine.spawn eng (pingpong b);
    b := Sim.Engine.spawn eng (pingpong a);
    let words = Alloc_probe.words_beyond_probe (fun () -> Sim.Engine.run eng) in
    (words, Sim.Engine.dispatches eng)
  in
  let w1, d1 = run 2_000 and w2, d2 = run 4_000 in
  check_bool "dispatched every round" true (d2 - d1 >= 4 * 2_000);
  let per_dispatch = (w2 -. w1) /. float_of_int (d2 - d1) in
  check_bool (Printf.sprintf "%.2f words per dispatch" per_dispatch) true (per_dispatch <= 2.0)

let test_pool_exception_drains_and_reraises () =
  let p = Sim.Par.create_pool ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Sim.Par.shutdown_pool p)
    (fun () ->
      let ran = Atomic.make 0 in
      (match Sim.Par.run_pool p 32 (fun i ->
                 Atomic.incr ran;
                 if i = 7 then failwith "boom")
       with
      | () -> Alcotest.fail "expected exception"
      | exception Failure m -> check_string "exception propagated" "boom" m);
      (* Every index was claimed and completed despite the failure, and
         the pool is reusable afterwards. *)
      check_int "all indices ran" 32 (Atomic.get ran);
      let again = Atomic.make 0 in
      Sim.Par.run_pool p 16 (fun _ -> Atomic.incr again);
      check_int "pool reusable after exception" 16 (Atomic.get again))

let () =
  Alcotest.run "sim"
    [
      ( "prng",
        [
          Alcotest.test_case "same seed same stream" `Quick test_prng_same_seed_same_stream;
          Alcotest.test_case "different seeds differ" `Quick test_prng_different_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "jitter bounds" `Quick test_prng_jitter_bounds;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "copy preserves state" `Quick test_prng_copy_preserves_state;
          Alcotest.test_case "exponential positive" `Quick test_prng_exponential_positive;
          Alcotest.test_case "shuffle is permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "stream pin" `Quick test_prng_stream_pin;
          Alcotest.test_case "jittered matches jitter" `Quick test_prng_jittered_matches_jitter;
          Alcotest.test_case "draws allocate nothing" `Quick test_prng_draws_allocate_nothing;
        ] );
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "orders by key" `Quick test_heap_orders_by_key;
          Alcotest.test_case "fifo on ties" `Quick test_heap_fifo_on_ties;
          Alcotest.test_case "interleaved ties" `Quick test_heap_interleaved_ties;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "to_list nondestructive" `Quick test_heap_to_list_nondestructive;
          QCheck_alcotest.to_alcotest prop_heap_pop_sorted;
          QCheck_alcotest.to_alcotest prop_heap_stable_ties;
        ] );
      ( "engine",
        [
          Alcotest.test_case "advance accumulates" `Quick test_engine_advance_accumulates;
          Alcotest.test_case "parallel overlap" `Quick test_engine_parallel_threads_overlap;
          Alcotest.test_case "self ids" `Quick test_engine_self_ids;
          Alcotest.test_case "block/wakeup" `Quick test_engine_block_wakeup;
          Alcotest.test_case "pending wakeup permit" `Quick test_engine_pending_wakeup_permit;
          Alcotest.test_case "deadlock detection" `Quick test_engine_deadlock_detection;
          Alcotest.test_case "spawn from fiber" `Quick test_engine_spawn_from_fiber;
          Alcotest.test_case "exit fiber" `Quick test_engine_exit_fiber;
          Alcotest.test_case "wakeup finished noop" `Quick test_engine_wakeup_finished_noop;
          Alcotest.test_case "blocked reason" `Quick test_engine_blocked_reason;
          Alcotest.test_case "stuck budget" `Quick test_engine_stuck_budget;
          Alcotest.test_case "exception propagates" `Quick test_engine_exception_propagates;
          Alcotest.test_case "names" `Quick test_engine_names;
          Alcotest.test_case "deterministic interleaving" `Quick test_engine_deterministic_interleaving;
          Alcotest.test_case "zero advance yields" `Quick test_engine_zero_advance_yields;
          Alcotest.test_case "dispatch allocation bounded" `Quick
            test_engine_dispatch_allocation_bounded;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs all indices" `Quick test_pool_runs_all_indices;
          Alcotest.test_case "back-to-back exactly once" `Quick
            test_pool_back_to_back_exactly_once;
          Alcotest.test_case "exception drains and reraises" `Quick
            test_pool_exception_drains_and_reraises;
        ] );
      ( "fnv-trace",
        [
          Alcotest.test_case "fnv known values" `Quick test_fnv_known_values;
          Alcotest.test_case "fnv int order sensitive" `Quick test_fnv_int_order_sensitive;
          Alcotest.test_case "trace hash ignores time" `Quick test_trace_hash_ignores_time;
          Alcotest.test_case "trace hash compat" `Quick test_trace_hash_compat;
          Alcotest.test_case "trace record allocates nothing" `Quick
            test_trace_record_allocates_nothing;
          Alcotest.test_case "trace record_int" `Quick test_trace_record_int;
          Alcotest.test_case "trace order sensitivity" `Quick test_trace_order_sensitivity;
        ] );
    ]
