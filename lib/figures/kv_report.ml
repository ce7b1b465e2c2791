(* Transactional KV service report: throughput and request-latency SLO
   quantiles for the six server-shaped traffic mixes, and how each
   scales with the server width.

   Each shape runs once per seed on the chosen runtime; the first table
   reports completed requests (commits + snapshot reads), same-round
   re-executions, throughput against the modelled clock, and the
   p50/p99/p999 of the kv:req_ns request-latency histogram (submission
   to completion).  The second runs each shape at the first seed across
   [sweep_threads] and reports simulated wall time, commits,
   re-executions and p99: hot-key contention shows up as re-executions,
   not as extra rounds.

   The notes carry the determinism claims: for a deterministic runtime
   the witness and the re-execution counts must be byte-identical
   across seeds — latencies move with the seed, outcomes never do. *)

let default_seeds = [ 1; 7 ]
let sweep_threads = [ 4; 8; 16; 32 ]

type sample = {
  s_shape : string;
  s_seed : int;
  s_threads : int;
  s_wall : int;
  s_completed : int;
  s_commits : int;
  s_reexecs : int;
  s_snapshots : int;
  s_p50 : float;
  s_p99 : float;
  s_p999 : float;
  s_witness : string;
}

let sample ~runtime ~threads ~seed shape =
  let program = (Workload.Registry.find shape).Workload.Registry.program in
  let r = Runtime.Run.run runtime ~seed ~nthreads:threads program in
  let m = r.Stats.Run_result.metrics in
  let commits = Obs.Metrics.counter_value m "kv:commits" in
  let snapshots = Obs.Metrics.counter_value m "kv:snapshots" in
  let q p =
    match Obs.Metrics.find_hist m "kv:req_ns" with
    | Some h -> Obs.Metrics.percentile h p
    | None -> nan
  in
  {
    s_shape = shape;
    s_seed = seed;
    s_threads = threads;
    s_wall = r.Stats.Run_result.wall_ns;
    s_completed = commits + snapshots;
    s_commits = commits;
    s_reexecs = Obs.Metrics.counter_value m "kv:reexecs";
    s_snapshots = snapshots;
    s_p50 = q 0.50;
    s_p99 = q 0.99;
    s_p999 = q 0.999;
    s_witness = Stats.Run_result.deterministic_witness r;
  }

let measure ?(runtime = Runtime.Run.consequence_ic) ?(threads = 4) ?(seeds = default_seeds) ()
    =
  let jobs =
    List.concat_map (fun sh -> List.map (fun seed -> (sh, seed)) seeds) Workload.Registry.kv_set
  in
  Sim.Par.map_list (fun (shape, seed) -> sample ~runtime ~threads ~seed shape) jobs

(* Each shape at [seed] across [sweep_threads]. *)
let sweep ~runtime ~seed =
  let jobs =
    List.concat_map (fun sh -> List.map (fun t -> (sh, t)) sweep_threads) Workload.Registry.kv_set
  in
  Sim.Par.map_list (fun (shape, threads) -> sample ~runtime ~threads ~seed shape) jobs

let throughput s =
  if s.s_wall <= 0 then 0.0
  else float_of_int s.s_completed /. float_of_int s.s_wall *. 1e9

let run ?runtime ?threads ?seeds () =
  let runtime = Option.value runtime ~default:Runtime.Run.consequence_ic in
  let samples = measure ~runtime ?threads ?seeds () in
  let table =
    Stats.Table.create
      ~columns:
        [
          "shape";
          "seed";
          "wall-ns";
          "req";
          "commits";
          "reexecs";
          "snapshots";
          "req/s";
          "p50-ns";
          "p99-ns";
          "p999-ns";
        ]
  in
  List.iter
    (fun s ->
      Stats.Table.add_row table
        [
          s.s_shape;
          string_of_int s.s_seed;
          string_of_int s.s_wall;
          string_of_int s.s_completed;
          string_of_int s.s_commits;
          string_of_int s.s_reexecs;
          string_of_int s.s_snapshots;
          Printf.sprintf "%.0f" (throughput s);
          Printf.sprintf "%.0f" s.s_p50;
          Printf.sprintf "%.0f" s.s_p99;
          Printf.sprintf "%.0f" s.s_p999;
        ])
    samples;
  let seeds = Option.value seeds ~default:default_seeds in
  let swept = sweep ~runtime ~seed:(List.hd seeds) in
  let sweep_table =
    Stats.Table.create ~columns:[ "shape"; "threads"; "wall-ns"; "commits"; "reexecs"; "p99-ns" ]
  in
  List.iter
    (fun s ->
      Stats.Table.add_row sweep_table
        [
          s.s_shape;
          string_of_int s.s_threads;
          string_of_int s.s_wall;
          string_of_int s.s_commits;
          string_of_int s.s_reexecs;
          Printf.sprintf "%.0f" s.s_p99;
        ])
    swept;
  (* Per shape: witnesses and re-execution counts across seeds. *)
  let shapes = Workload.Registry.kv_set in
  let of_shape sh = List.filter (fun s -> s.s_shape = sh) samples in
  let stable f sh = List.length (List.sort_uniq compare (List.map f (of_shape sh))) <= 1 in
  let all_stable =
    List.for_all (stable (fun s -> s.s_witness)) shapes
    && List.for_all (stable (fun s -> s.s_reexecs)) shapes
  in
  let widest = List.fold_left max 0 sweep_threads in
  let wall_at shape =
    match List.find_opt (fun s -> s.s_shape = shape && s.s_threads = widest) swept with
    | Some s -> float_of_int s.s_wall
    | None -> nan
  in
  {
    Fig_output.id = "kv";
    title = "transactional KV service: throughput and latency SLO quantiles per traffic shape";
    tables =
      [
        ("", table);
        (Printf.sprintf "thread sweep (seed %d)" (List.hd seeds), sweep_table);
      ];
    notes =
      [
        Printf.sprintf "runtime %s: %d shapes x %d seeds" (Runtime.Run.name runtime)
          (List.length shapes) (List.length seeds);
        (if Runtime.Run.deterministic runtime then
           if all_stable then
             "witnesses and re-execution counts byte-identical across seeds for every shape"
           else "WITNESS OR RE-EXECUTION-COUNT DIVERGENCE across seeds"
         else "pthreads baseline: latency quantiles only, witnesses not comparable");
        Printf.sprintf "kv_zipf / kv_uniform simulated wall at %d threads: %.2fx" widest
          (wall_at "kv_zipf" /. wall_at "kv_uniform");
      ];
  }
