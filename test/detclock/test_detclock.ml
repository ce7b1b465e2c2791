(* Tests for deterministic logical clocks, the global token, and the
   adaptive overflow policy. *)

module Lc = Detclock.Logical_clock
module Tok = Detclock.Token
module Ofp = Detclock.Overflow_policy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_opt_int = Alcotest.(check (option int))

(* ------------------------------------------------------------------ *)
(* Logical_clock                                                      *)
(* ------------------------------------------------------------------ *)

let test_lc_register_and_tick () =
  let t = Lc.create () in
  let c0 = Lc.register t ~tid:0 in
  check_int "starts at 0" 0 (Lc.published c0);
  Lc.tick c0 100;
  Lc.tick c0 50;
  check_int "accumulates" 150 (Lc.published c0)

let test_lc_double_register_rejected () =
  let t = Lc.create () in
  ignore (Lc.register t ~tid:0);
  let raised = try ignore (Lc.register t ~tid:0); false with Invalid_argument _ -> true in
  check_bool "raises" true raised

let test_lc_register_after_finish_ok () =
  let t = Lc.create () in
  let c = Lc.register t ~tid:0 in
  Lc.finish c;
  let c2 = Lc.register t ~tid:0 in
  check_int "fresh clock" 0 (Lc.published c2)

let test_lc_tick_paused_raises () =
  let t = Lc.create () in
  let c = Lc.register t ~tid:0 in
  Lc.pause c;
  check_bool "paused" true (Lc.is_paused c);
  let raised = try Lc.tick c 1; false with Invalid_argument _ -> true in
  check_bool "tick while paused raises" true raised;
  Lc.resume c;
  Lc.tick c 1;
  check_int "resumed" 1 (Lc.published c)

let test_lc_gmic_minimum () =
  let t = Lc.create () in
  let c0 = Lc.register t ~tid:0 in
  let c1 = Lc.register t ~tid:1 in
  Lc.tick c0 100;
  Lc.tick c1 50;
  check_opt_int "min count wins" (Some 1) (Lc.gmic t);
  check_bool "is_gmic" true (Lc.is_gmic t ~tid:1);
  check_bool "not gmic" false (Lc.is_gmic t ~tid:0)

let test_lc_gmic_tie_breaks_by_tid () =
  let t = Lc.create () in
  let c0 = Lc.register t ~tid:5 in
  let c1 = Lc.register t ~tid:2 in
  Lc.tick c0 10;
  Lc.tick c1 10;
  check_opt_int "lower tid wins tie" (Some 2) (Lc.gmic t)

let test_lc_departed_excluded () =
  let t = Lc.create () in
  let c0 = Lc.register t ~tid:0 in
  let c1 = Lc.register t ~tid:1 in
  Lc.tick c1 100;
  check_opt_int "0 is gmic" (Some 0) (Lc.gmic t);
  Lc.depart c0;
  check_opt_int "1 after departure" (Some 1) (Lc.gmic t);
  Lc.arrive c0;
  check_opt_int "0 again after arrival" (Some 0) (Lc.gmic t);
  ignore c0

let test_lc_finished_excluded () =
  let t = Lc.create () in
  let c0 = Lc.register t ~tid:0 in
  let c1 = Lc.register t ~tid:1 in
  Lc.tick c1 100;
  Lc.finish c0;
  check_opt_int "finished excluded" (Some 1) (Lc.gmic t);
  check_int "live count" 1 (Lc.live_count t)

let test_lc_all_departed_no_gmic () =
  let t = Lc.create () in
  let c = Lc.register t ~tid:0 in
  Lc.depart c;
  check_opt_int "none" None (Lc.gmic t);
  check_int "active 0" 0 (Lc.active_count t)

let test_lc_fast_forward () =
  let t = Lc.create () in
  let c = Lc.register t ~tid:0 in
  Lc.tick c 10;
  check_bool "moves forward" true (Lc.fast_forward c ~to_count:100);
  check_int "at 100" 100 (Lc.published c);
  check_bool "never backward" false (Lc.fast_forward c ~to_count:50);
  check_int "still 100" 100 (Lc.published c)

let test_lc_next_waiting_gap () =
  let t = Lc.create () in
  let c0 = Lc.register t ~tid:0 in
  let c1 = Lc.register t ~tid:1 in
  let c2 = Lc.register t ~tid:2 in
  Lc.tick c0 100;
  Lc.tick c1 140;
  Lc.tick c2 160;
  (* Thread 0 (GMIC) asks: who waits on me?  Only tid 2 is waiting. *)
  Lc.set_waiting t ~tid:2 true;
  check_int "gap to tid 2" 61 (Lc.next_waiting_gap t ~tid:0);
  (* Both waiting: the lower-clock waiter (tid 1) is next. *)
  Lc.set_waiting t ~tid:1 true;
  check_int "gap to tid 1" 41 (Lc.next_waiting_gap t ~tid:0);
  check_int "waiting count" 2 (Lc.waiting_count t);
  (* Nobody waiting. *)
  Lc.set_waiting t ~tid:1 false;
  Lc.set_waiting t ~tid:2 false;
  check_int "no waiter" 0 (Lc.next_waiting_gap t ~tid:0)

(* The incremental (published, tid) index must agree with a fold-based
   oracle over the same clock states, under arbitrary guarded sequences
   of tick / pause / resume / depart / arrive / finish / set_waiting /
   fast_forward. *)
let prop_lc_index_matches_oracle =
  let n_tids = 6 in
  QCheck.Test.make ~name:"clock index agrees with fold oracle" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 120) (int_range 0 1_000_000))
    (fun ops ->
      let t = Lc.create () in
      let clocks = Array.init n_tids (fun tid -> Lc.register t ~tid) in
      let waiting = Array.make n_tids false in
      let apply v =
        let tid = v mod n_tids in
        let c = clocks.(tid) in
        let amount = 1 + (v / 48 mod 997) in
        match v / 6 mod 8 with
        | 0 -> if not (Lc.is_paused c || Lc.is_finished c) then Lc.tick c amount
        | 1 -> Lc.pause c
        | 2 -> Lc.resume c
        | 3 -> Lc.depart c
        | 4 -> Lc.arrive c
        | 5 ->
            Lc.finish c;
            waiting.(tid) <- false
        | 6 ->
            Lc.set_waiting t ~tid true;
            if not (Lc.is_finished c) then waiting.(tid) <- true
        | _ ->
            Lc.set_waiting t ~tid false;
            waiting.(tid) <- false
      in
      List.iter apply ops;
      let key c = (Lc.published c, Lc.tid c) in
      let act c = (not (Lc.is_finished c)) && not (Lc.is_departed c) in
      let visible_waiter c = act c && waiting.(Lc.tid c) in
      let best p =
        Array.fold_left
          (fun acc c ->
            if p c && (acc = None || key c < Option.get acc) then Some (key c) else acc)
          None clocks
      in
      let count p = Array.fold_left (fun n c -> if p c then n + 1 else n) 0 clocks in
      let oracle_gmic = Option.map snd (best act) in
      let ok =
        ref
          (Lc.gmic t = oracle_gmic
          && Lc.active_count t = count act
          && Lc.waiting_count t = count visible_waiter)
      in
      for tid = 0 to n_tids - 1 do
        let c = clocks.(tid) in
        let oracle_gap =
          match best (fun c' -> visible_waiter c' && Lc.tid c' <> tid) with
          | None -> 0
          | Some (pub, _) -> pub - Lc.published c + 1
        in
        ok :=
          !ok
          && Lc.is_gmic t ~tid = (oracle_gmic = Some tid)
          && Lc.is_waiting t ~tid = visible_waiter c
          && Lc.next_waiting_gap t ~tid = oracle_gap
      done;
      !ok)

let test_lc_counts_sorted () =
  let t = Lc.create () in
  let c2 = Lc.register t ~tid:2 in
  let c0 = Lc.register t ~tid:0 in
  Lc.tick c2 5;
  Lc.tick c0 7;
  Alcotest.(check (list (pair int int))) "sorted by tid" [ (0, 7); (2, 5) ] (Lc.counts t)

(* ------------------------------------------------------------------ *)
(* Token                                                              *)
(* ------------------------------------------------------------------ *)

(* Run a scenario where [n] fibers each execute [body eng clocks token
   my_clock] and return the order in which they acquired the token. *)
let token_scenario ~ordering ~n body =
  let eng = Sim.Engine.create ~seed:1 () in
  let clocks = Lc.create () in
  let token = Tok.create (Sim.Exec.of_engine eng) clocks ordering in
  let order = ref [] in
  for tid = 0 to n - 1 do
    let expect =
      Sim.Engine.spawn eng ~name:(Printf.sprintf "t%d" tid) (fun () ->
          let c = Lc.register clocks ~tid in
          body eng clocks token c ~record:(fun () -> order := tid :: !order))
    in
    assert (expect = tid)
  done;
  Sim.Engine.run eng;
  List.rev !order

let test_token_gmic_order () =
  (* Three threads with different clocks all request the token at once;
     acquisition must follow instruction-count order. *)
  let order =
    token_scenario ~ordering:Tok.Instruction_count ~n:3 (fun eng clocks token c ~record ->
        let tid = Lc.tid c in
        (* Give them distinct clocks: t0=300, t1=100, t2=200. *)
        Lc.tick c (match tid with 0 -> 300 | 1 -> 100 | _ -> 200);
        Tok.poke token;
        Sim.Engine.advance eng 10;
        Tok.wait token ~tid;
        record ();
        (* Leaving: bump our clock well past others so they become GMIC. *)
        Lc.tick c 1000;
        Tok.release token ~tid;
        ignore clocks)
  in
  Alcotest.(check (list int)) "IC order" [ 1; 2; 0 ] order

let test_token_rr_order () =
  (* Round-robin: regardless of clock values, token goes in tid order. *)
  let order =
    token_scenario ~ordering:Tok.Round_robin ~n:3 (fun eng _clocks token c ~record ->
        let tid = Lc.tid c in
        Lc.tick c (match tid with 0 -> 999 | 1 -> 5 | _ -> 500);
        Tok.poke token;
        Sim.Engine.advance eng 10;
        Tok.wait token ~tid;
        record ();
        Tok.release token ~tid)
  in
  Alcotest.(check (list int)) "RR order" [ 0; 1; 2 ] order

let test_token_rr_multiple_rounds () =
  let order =
    token_scenario ~ordering:Tok.Round_robin ~n:2 (fun eng _clocks token c ~record ->
        let tid = Lc.tid c in
        for _ = 1 to 2 do
          Sim.Engine.advance eng 5;
          Tok.wait token ~tid;
          record ();
          Tok.release token ~tid
        done)
  in
  Alcotest.(check (list int)) "alternates" [ 0; 1; 0; 1 ] order

let test_token_waits_for_nonwaiting_winner () =
  (* Under IC, the GMIC thread is busy computing; a waiter with a higher
     clock must wait until the GMIC thread's published clock passes it. *)
  let eng = Sim.Engine.create ~seed:1 () in
  let clocks = Lc.create () in
  let token = Tok.create (Sim.Exec.of_engine eng) clocks Tok.Instruction_count in
  let acquired_at = ref (-1) in
  ignore
    (Sim.Engine.spawn eng ~name:"busy" (fun () ->
         let c = Lc.register clocks ~tid:0 in
         (* Simulate a long chunk published in pieces. *)
         for _ = 1 to 10 do
           Sim.Engine.advance eng 100;
           Lc.tick c 50;
           Tok.poke token
         done));
  ignore
    (Sim.Engine.spawn eng ~name:"waiter" (fun () ->
         let c = Lc.register clocks ~tid:1 in
         Lc.tick c 220;
         Tok.poke token;
         Tok.wait token ~tid:1;
         acquired_at := Sim.Engine.now eng;
         Tok.release token ~tid:1;
         ignore c));
  Sim.Engine.run eng;
  (* Thread 0 reaches 250 > 220 after its 5th publication at t=500. *)
  check_int "acquired when clock passed" 500 !acquired_at

let test_token_depart_unblocks_waiter () =
  (* The GMIC thread departs (e.g. blocks on a lock); a waiting thread
     with a larger clock must immediately become eligible. *)
  let eng = Sim.Engine.create ~seed:1 () in
  let clocks = Lc.create () in
  let token = Tok.create (Sim.Exec.of_engine eng) clocks Tok.Instruction_count in
  let got = ref false in
  ignore
    (Sim.Engine.spawn eng ~name:"low" (fun () ->
         let c = Lc.register clocks ~tid:0 in
         Sim.Engine.advance eng 50;
         Lc.depart c;
         Tok.poke token;
         Sim.Engine.block eng ~reason:"parked"))
  |> ignore;
  ignore
    (Sim.Engine.spawn eng ~name:"high" (fun () ->
         let c = Lc.register clocks ~tid:1 in
         Lc.tick c 1000;
         Tok.poke token;
         Tok.wait token ~tid:1;
         got := true;
         Tok.release token ~tid:1;
         (* Wake the parked thread so the run can end in deadlock-free
            fashion: we just unblock it to let it finish. *)
         Sim.Engine.wakeup eng 0;
         ignore c));
  Sim.Engine.run eng;
  check_bool "waiter got token after depart" true !got

let test_token_release_without_hold_raises () =
  let eng = Sim.Engine.create ~seed:1 () in
  let clocks = Lc.create () in
  let token = Tok.create (Sim.Exec.of_engine eng) clocks Tok.Instruction_count in
  let raised = ref false in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         ignore (Lc.register clocks ~tid:0);
         (try Tok.release token ~tid:0 with Invalid_argument _ -> raised := true)));
  Sim.Engine.run eng;
  check_bool "raises" true !raised

let test_token_last_release_published () =
  let eng = Sim.Engine.create ~seed:1 () in
  let clocks = Lc.create () in
  let token = Tok.create (Sim.Exec.of_engine eng) clocks Tok.Instruction_count in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         let c = Lc.register clocks ~tid:0 in
         Lc.tick c 777;
         Tok.wait token ~tid:0;
         Tok.release token ~tid:0;
         ignore c));
  Sim.Engine.run eng;
  check_int "records releaser clock" 777 (Tok.last_release_published token);
  check_int "one acquisition" 1 (Tok.acquisitions token)

let test_token_holder_and_waiting_introspection () =
  let eng = Sim.Engine.create ~seed:1 () in
  let clocks = Lc.create () in
  let token = Tok.create (Sim.Exec.of_engine eng) clocks Tok.Instruction_count in
  let observed_holder = ref None in
  let observed_waiting = ref false in
  ignore
    (Sim.Engine.spawn eng ~name:"holder" (fun () ->
         let c = Lc.register clocks ~tid:0 in
         Tok.wait token ~tid:0;
         Sim.Engine.advance eng 100;
         Lc.tick c 1;
         Tok.release token ~tid:0));
  ignore
    (Sim.Engine.spawn eng ~name:"waiter" (fun () ->
         ignore (Lc.register clocks ~tid:1);
         Sim.Engine.advance eng 10;
         observed_holder := Tok.holder token;
         Tok.wait token ~tid:1;
         Tok.release token ~tid:1));
  ignore
    (Sim.Engine.spawn eng ~name:"observer" (fun () ->
         ignore (Lc.register clocks ~tid:2);
         Sim.Engine.advance eng 50;
         observed_waiting := Tok.is_waiting token ~tid:1;
         (* Push own clock up so we never become the blocking GMIC. *)
         let c = List.assoc 2 (Lc.counts clocks) in
         ignore c;
         Lc.tick (Lc.register (Lc.create ()) ~tid:0) 0))
  |> ignore;
  Sim.Engine.run eng;
  check_opt_int "held by 0" (Some 0) !observed_holder;
  check_bool "1 was waiting" true !observed_waiting

let test_token_handoff_single_wakeup () =
  (* Direct handoff: every token transfer to a blocked waiter posts
     exactly one engine wakeup — never a broadcast over the waiter set. *)
  let eng = Sim.Engine.create ~seed:1 () in
  let clocks = Lc.create () in
  let token = Tok.create (Sim.Exec.of_engine eng) clocks Tok.Instruction_count in
  let spawn tid ticks =
    ignore
      (Sim.Engine.spawn eng ~name:(Printf.sprintf "t%d" tid) (fun () ->
           let c = Lc.register clocks ~tid in
           Lc.tick c ticks;
           Tok.poke token;
           Sim.Engine.advance eng 10;
           Tok.wait token ~tid;
           Sim.Engine.advance eng 10;
           (* Push well past everyone so the next-lowest waiter becomes
              GMIC on release. *)
           Lc.tick c 10_000;
           Tok.release token ~tid))
  in
  spawn 0 0;
  spawn 1 100;
  spawn 2 200;
  spawn 3 300;
  Sim.Engine.run eng;
  check_int "four acquisitions" 4 (Tok.acquisitions token);
  check_int "one wakeup per handoff" 3 (Tok.wakeups token)

let test_token_eligible_now () =
  let clocks = Lc.create () in
  let eng = Sim.Engine.create ~seed:1 () in
  let token = Tok.create (Sim.Exec.of_engine eng) clocks Tok.Instruction_count in
  check_opt_int "nobody" None (Tok.eligible_now token);
  let c0 = Lc.register clocks ~tid:0 in
  check_opt_int "tid 0" (Some 0) (Tok.eligible_now token);
  ignore c0

(* ------------------------------------------------------------------ *)
(* Overflow_policy                                                    *)
(* ------------------------------------------------------------------ *)

let test_ofp_base_and_doubling () =
  let p = Ofp.create (Ofp.Adaptive { base = 5_000; cap = 40_000 }) in
  Ofp.begin_chunk p;
  check_int "base" 5_000 (Ofp.next_interval ~ic:0 p ~waiter_gap:0);
  check_int "doubled" 10_000 (Ofp.next_interval ~ic:0 p ~waiter_gap:0);
  check_int "doubled again" 20_000 (Ofp.next_interval ~ic:0 p ~waiter_gap:0)

let test_ofp_chunk_reset () =
  let p = Ofp.create (Ofp.Adaptive { base = 5_000; cap = 40_000 }) in
  Ofp.begin_chunk p;
  ignore (Ofp.next_interval ~ic:0 p ~waiter_gap:0);
  ignore (Ofp.next_interval ~ic:0 p ~waiter_gap:0);
  Ofp.begin_chunk p;
  check_int "reset to base" 5_000 (Ofp.next_interval ~ic:0 p ~waiter_gap:0)

let test_ofp_targets_waiter () =
  let p = Ofp.create (Ofp.Adaptive { base = 5_000; cap = 40_000 }) in
  Ofp.begin_chunk p;
  check_int "exact gap" 123 (Ofp.next_interval ~ic:0 p ~waiter_gap:123)

let test_ofp_nonpositive_gap_falls_back () =
  let p = Ofp.create (Ofp.Adaptive { base = 5_000; cap = 40_000 }) in
  Ofp.begin_chunk p;
  check_int "ignores stale gap" 5_000 (Ofp.next_interval ~ic:0 p ~waiter_gap:0)

let test_ofp_fixed () =
  let p = Ofp.create (Ofp.Fixed 1_000) in
  Ofp.begin_chunk p;
  check_int "fixed" 1_000 (Ofp.next_interval ~ic:0 p ~waiter_gap:0);
  check_int "fixed despite gap" 1_000 (Ofp.next_interval ~ic:0 p ~waiter_gap:5);
  check_int "count" 2 (Ofp.overflows_scheduled p)

let test_ofp_default_base () = check_int "paper value" 5_000 Ofp.default_base

let prop_ofp_always_positive =
  QCheck.Test.make ~name:"overflow interval is always >= 1" ~count:200
    QCheck.(pair (int_range 1 10) (list (int_range (-100) 10_000)))
    (fun (base, gaps) ->
      let p = Ofp.create (Ofp.Adaptive { base; cap = 40_000 }) in
      Ofp.begin_chunk p;
      List.for_all (fun gap -> Ofp.next_interval ~ic:0 p ~waiter_gap:gap >= 1) gaps)

let () =
  Alcotest.run "detclock"
    [
      ( "logical-clock",
        [
          Alcotest.test_case "register and tick" `Quick test_lc_register_and_tick;
          Alcotest.test_case "double register rejected" `Quick test_lc_double_register_rejected;
          Alcotest.test_case "register after finish" `Quick test_lc_register_after_finish_ok;
          Alcotest.test_case "tick paused raises" `Quick test_lc_tick_paused_raises;
          Alcotest.test_case "gmic minimum" `Quick test_lc_gmic_minimum;
          Alcotest.test_case "gmic tie by tid" `Quick test_lc_gmic_tie_breaks_by_tid;
          Alcotest.test_case "departed excluded" `Quick test_lc_departed_excluded;
          Alcotest.test_case "finished excluded" `Quick test_lc_finished_excluded;
          Alcotest.test_case "all departed" `Quick test_lc_all_departed_no_gmic;
          Alcotest.test_case "fast forward" `Quick test_lc_fast_forward;
          Alcotest.test_case "next waiting gap" `Quick test_lc_next_waiting_gap;
          Alcotest.test_case "counts sorted" `Quick test_lc_counts_sorted;
          QCheck_alcotest.to_alcotest prop_lc_index_matches_oracle;
        ] );
      ( "token",
        [
          Alcotest.test_case "gmic order" `Quick test_token_gmic_order;
          Alcotest.test_case "rr order" `Quick test_token_rr_order;
          Alcotest.test_case "rr multiple rounds" `Quick test_token_rr_multiple_rounds;
          Alcotest.test_case "waits for busy gmic" `Quick test_token_waits_for_nonwaiting_winner;
          Alcotest.test_case "depart unblocks waiter" `Quick test_token_depart_unblocks_waiter;
          Alcotest.test_case "release without hold" `Quick test_token_release_without_hold_raises;
          Alcotest.test_case "last release published" `Quick test_token_last_release_published;
          Alcotest.test_case "holder/waiting introspection" `Quick
            test_token_holder_and_waiting_introspection;
          Alcotest.test_case "handoff single wakeup" `Quick test_token_handoff_single_wakeup;
          Alcotest.test_case "eligible now" `Quick test_token_eligible_now;
        ] );
      ( "overflow-policy",
        [
          Alcotest.test_case "base and doubling" `Quick test_ofp_base_and_doubling;
          Alcotest.test_case "chunk reset" `Quick test_ofp_chunk_reset;
          Alcotest.test_case "targets waiter" `Quick test_ofp_targets_waiter;
          Alcotest.test_case "nonpositive gap fallback" `Quick test_ofp_nonpositive_gap_falls_back;
          Alcotest.test_case "fixed" `Quick test_ofp_fixed;
          Alcotest.test_case "default base" `Quick test_ofp_default_base;
          QCheck_alcotest.to_alcotest prop_ofp_always_positive;
        ] );
    ]
