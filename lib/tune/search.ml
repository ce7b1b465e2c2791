module Cfg = Runtime.Config
module P = Profiles

type t = {
  workload : string;
  base_runtime : string;
  nthreads : int;
  seed : int;
  wall_default_ns : int;
  hand_best_name : string;
  wall_hand_best_ns : int;
  wall_searched_ns : int;
  searched : P.params;
  searched_from : string;
  evaluations : int;
  boundary_floor_ns : int option;
  seed_stable : bool;
  replay_checked : bool;
  replay_ok : bool;
}

let point ~base ~cap ~coarsen ~floor ~ccap =
  {
    P.overflow_base = base;
    overflow_cap = cap;
    coarsen_initial = coarsen;
    coarsen_floor = floor;
    coarsen_cap = ccap;
  }

(* The grid a practitioner would sweep by hand: the shipped defaults
   plus chunk-size and coarsening extremes in both directions.  The
   hand-default point equals the knobs of every preset, so it ties the
   untuned config bit-for-bit, which is what guarantees searched <=
   hand-best <= default by construction. *)
let hand_grid =
  [
    ("hand-default", point ~base:5_000 ~cap:60_000 ~coarsen:300_000 ~floor:10_000 ~ccap:2_000_000);
    ("hand-small-chunk", point ~base:2_000 ~cap:24_000 ~coarsen:150_000 ~floor:10_000 ~ccap:2_000_000);
    ("hand-big-chunk", point ~base:12_000 ~cap:144_000 ~coarsen:300_000 ~floor:10_000 ~ccap:2_000_000);
    ("hand-huge-chunk", point ~base:30_000 ~cap:240_000 ~coarsen:300_000 ~floor:10_000 ~ccap:2_000_000);
    ("hand-coarse", point ~base:5_000 ~cap:60_000 ~coarsen:800_000 ~floor:10_000 ~ccap:4_000_000);
    ("hand-fine", point ~base:5_000 ~cap:60_000 ~coarsen:100_000 ~floor:10_000 ~ccap:500_000);
  ]

let max_steps = 16

let clamp lo hi v = max lo (min hi v)

(* The six descent neighbours of [p]: double and halve the overflow
   base, the overflow cap and the coarsening setpoint, each clamped to
   the range the search explores, with the other knobs widened just
   enough that the point stays valid. *)
let neighbours (p : P.params) =
  let base b =
    let b = clamp 500 200_000 b in
    { p with P.overflow_base = b; overflow_cap = max b p.P.overflow_cap }
  in
  let cap c = { p with P.overflow_cap = max p.P.overflow_base (clamp 2_000 2_000_000 c) } in
  let coarsen k =
    let k = clamp 20_000 4_000_000 k in
    {
      p with
      P.coarsen_initial = k;
      coarsen_floor = min k p.P.coarsen_floor;
      coarsen_cap = max k p.P.coarsen_cap;
    }
  in
  [
    base (p.P.overflow_base * 2);
    base (p.P.overflow_base / 2);
    cap (p.P.overflow_cap * 2);
    cap (p.P.overflow_cap / 2);
    coarsen (p.P.coarsen_initial * 2);
    coarsen (p.P.coarsen_initial / 2);
  ]

let search ?(cfg = Cfg.consequence_ic) ?costs ?(nthreads = 8) ?(seed = 1) ?(quick = false)
    ?(check = true) name =
  let entry = Workload.Registry.find name in
  let program = entry.Workload.Registry.program in
  let evaluations = ref 0 in
  let wall_of cfg' =
    let res = Runtime.Run.run (Runtime.Run.Det cfg') ?costs ~seed ~nthreads program in
    incr evaluations;
    res.Stats.Run_result.wall_ns
  in
  let memo : (P.params, int) Hashtbl.t = Hashtbl.create 64 in
  let eval params =
    match Hashtbl.find_opt memo params with
    | Some w -> w
    | None ->
        let w = wall_of (P.with_params params cfg) in
        Hashtbl.add memo params w;
        w
  in
  let wall_default_ns = wall_of cfg in
  let graded = List.map (fun (n, p) -> (n, p, eval p)) hand_grid in
  let hand_best_name, hand_best, wall_hand_best_ns =
    List.fold_left
      (fun (bn, bp, bw) (n, p, w) -> if w < bw then (n, p, w) else (bn, bp, bw))
      (List.hd graded) (List.tl graded)
  in
  (* Steepest descent from the best grid point: move to the best
     neighbour while it is strictly faster, for at most [max_steps]
     steps.  Every evaluation is exact, so the walk is deterministic. *)
  let rec descend steps p w =
    if steps = max_steps then (p, w, steps)
    else
      let q, qw =
        List.fold_left
          (fun (bq, bw) q ->
            let qw = eval q in
            if qw < bw then (q, qw) else (bq, bw))
          (p, w) (neighbours p)
      in
      if qw < w then descend (steps + 1) q qw else (p, w, steps)
  in
  let searched, wall_searched_ns, steps = descend 0 hand_best wall_hand_best_ns in
  let searched_from = if steps = 0 then hand_best_name else "descent" in
  let tuned = P.with_params searched cfg in
  (* Winner checks: cross-seed witness stability, a scripted replay of
     the winner's recorded schedule, and the boundary-perturbation floor
     (how much of the win placement alone could have bought). *)
  let seed_stable, replay_checked, replay_ok, boundary_floor_ns =
    if not check then (true, false, false, None)
    else begin
      let witness_at seed =
        let res = Runtime.Run.run (Runtime.Run.Det tuned) ?costs ~seed ~nthreads program in
        Stats.Run_result.deterministic_witness res
      in
      let seed_stable = String.equal (witness_at 1) (witness_at 7) in
      let log, _ = Replay.Schedule.record (Runtime.Run.Det tuned) ?costs ~seed ~nthreads program in
      let scripted =
        Cfg.with_scripted_schedule tuned ~boundaries:(Replay.Schedule.boundaries log)
      in
      let outcome =
        Replay.Replayer.replay ?costs ~runtime:(Runtime.Run.Det scripted) log program
      in
      let floor =
        if quick then None
        else
          let rep = Replay.Explore.explore ?costs ~config:tuned ~variants:6 log program in
          Some
            (List.fold_left
               (fun acc v -> min acc v.Replay.Explore.wall_ns)
               rep.Replay.Explore.base.Replay.Explore.wall_ns rep.Replay.Explore.variants)
      in
      (seed_stable, true, Replay.Replayer.ok outcome, floor)
    end
  in
  {
    workload = name;
    base_runtime = cfg.Cfg.name;
    nthreads;
    seed;
    wall_default_ns;
    hand_best_name;
    wall_hand_best_ns;
    wall_searched_ns;
    searched;
    searched_from;
    evaluations = !evaluations;
    boundary_floor_ns;
    seed_stable;
    replay_checked;
    replay_ok;
  }

let to_profile r =
  {
    P.workload = r.workload;
    runtime = r.base_runtime;
    nthreads = r.nthreads;
    seed = r.seed;
    source = r.searched_from;
    params = r.searched;
    wall_default_ns = r.wall_default_ns;
    wall_tuned_ns = r.wall_searched_ns;
  }

let pp ppf r =
  let sp w = 100.0 *. (1.0 -. (float_of_int w /. float_of_int r.wall_default_ns)) in
  Format.fprintf ppf
    "@[<v>%s (%s, %d threads, seed %d): %d evaluations@,\
     default    %12d ns@,\
     hand-best  %12d ns (%+.1f%%, %s)@,\
     searched   %12d ns (%+.1f%%, from %s)@,\
     %a@,\
     seed-stable %b; replay %s@]"
    r.workload r.base_runtime r.nthreads r.seed r.evaluations r.wall_default_ns
    r.wall_hand_best_ns (sp r.wall_hand_best_ns) r.hand_best_name r.wall_searched_ns
    (sp r.wall_searched_ns) r.searched_from P.pp_params r.searched r.seed_stable
    (if not r.replay_checked then "unchecked" else if r.replay_ok then "ok" else "DIVERGED")
