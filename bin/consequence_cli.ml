(* Command-line interface to the Consequence reproduction.

   Subcommands:
     run       execute one benchmark under one runtime and print metrics
     trace     execute one benchmark and export a Chrome trace-event JSON
     profile   determinism profile: state attribution, critical path, what-if
     bench     list the benchmark suite
     litmus    run a litmus test against the TSO/SC models
     lrc       run the Fig 16 memory-propagation study on one benchmark
     check     determinism self-check for one benchmark across seeds
     schedule  print the deterministic global synchronization schedule
     stress    fuzz determinism with seeded random programs
     races     race-audit one benchmark, or sweep the whole suite
     record    record a schedule log (<name>.schedule.json)
     replay    replay a schedule log with divergence detection
     explore   perturb a recorded schedule and cross-check the variants
     tune      offline auto-tuner: search per-workload static knob points,
               inspect saved tuned profiles *)

open Cmdliner

let runtime_of_string = function
  | "pthreads" -> Ok Runtime.Run.pthreads
  | "dthreads" -> Ok Runtime.Run.dthreads
  | "dwc" -> Ok Runtime.Run.dwc
  | "consequence-rr" | "rr" -> Ok Runtime.Run.consequence_rr
  | "consequence-ic" | "ic" | "consequence" -> Ok Runtime.Run.consequence_ic
  | "consequence-pipe" | "pipe" -> Ok (Runtime.Run.Det Runtime.Config.consequence_pipe)
  | "domains" -> Ok Runtime.Run.domains
  | s ->
      Error
        (`Msg
          (Printf.sprintf "unknown runtime %S; known: %s" s
             (String.concat ", " Runtime.Run.names)))

let runtime_conv =
  Arg.conv
    ( (fun s -> runtime_of_string s),
      fun fmt rt -> Format.pp_print_string fmt (Runtime.Run.name rt) )

let runtime_arg =
  let doc =
    "Threading library: pthreads, dthreads, dwc, consequence-rr, consequence-ic, \
     consequence-pipe (consequence-ic with pipelined sharded commit and incremental GC; \
     witness-identical to consequence-ic), domains (consequence-ic on real OCaml 5 \
     domains with work-stealing; witness-identical, wall-clock timings; worker count \
     from -j)."
  in
  Arg.(value & opt runtime_conv Runtime.Run.consequence_ic & info [ "r"; "runtime" ] ~doc)

let threads_arg =
  Arg.(value & opt int 8 & info [ "t"; "threads" ] ~doc:"Worker thread count.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~doc:"Simulation seed (perturbs timing only).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for fanning out independent simulations (0 = one per \
           recommended domain).  Results are gathered in input order, so the output \
           is identical for any job count.")

let apply_jobs j = Sim.Par.set_jobs (if j = 0 then Sim.Par.default_jobs () else j)

let benchmark_arg =
  let doc = "Benchmark name (see the bench subcommand for the list)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)

(* With [threads], a program whose layout cannot hold that many threads
   is refused here, before any run starts. *)
let find_program ?threads name =
  match Workload.Registry.find name with
  | exception Not_found ->
      Error
        (Printf.sprintf "unknown benchmark %S; known: %s" name
           (String.concat ", " Workload.Registry.names))
  | entry -> (
      let program = entry.Workload.Registry.program in
      match threads with
      | None -> Ok program
      | Some n -> Result.map (fun () -> program) (Api.check_threads program n))

(* --- run -------------------------------------------------------------- *)

(* Apply a saved tuned profile's static knobs to the selected runtime's
   config.  A profile only describes the workload it was searched for. *)
let with_profile ~name profile runtime =
  match profile with
  | None -> Ok runtime
  | Some file -> (
      match Tune.Profiles.load_for ~workload:name file with
      | Error e -> Error (Printf.sprintf "%s: %s" file e)
      | Ok p -> (
          match runtime with
          | Runtime.Run.Det cfg -> Ok (Runtime.Run.Det (Tune.Profiles.apply p cfg))
          | Runtime.Run.Domains cfg -> Ok (Runtime.Run.Domains (Tune.Profiles.apply p cfg))
          | Runtime.Run.Pthreads ->
              Error "--profile: pthreads has no deterministic knobs to tune"))

let profile_file_arg =
  Arg.(
    value & opt (some file) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Tuned profile (tune/profiles/<workload>.tune.json, produced by tune search); \
           runs with the profile's overflow and coarsening knobs.  The profile must be \
           for the benchmark being run.")

let run_cmd =
  let action runtime threads seed name breakdown metrics json jobs profile =
    apply_jobs jobs;
    match Result.bind (find_program ~threads name) (fun program ->
        Result.map (fun rt -> (program, rt)) (with_profile ~name profile runtime)) with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok (program, runtime) ->
        let r = Runtime.Run.run runtime ~seed ~nthreads:threads program in
        if json then print_endline (Obs.Json.to_string (Stats.Run_result.to_json r))
        else begin
          Format.printf "%a@." Stats.Run_result.pp_summary r;
          if breakdown then begin
            Format.printf "@.time breakdown (all threads):@.";
            Format.printf "%a@." Stats.Breakdown.pp (Stats.Run_result.aggregate_breakdown r)
          end;
          if metrics then begin
            Format.printf "@.metrics:@.";
            Format.printf "%a@." Obs.Metrics.pp r.Stats.Run_result.metrics
          end
        end
  in
  let breakdown_arg =
    Arg.(value & flag & info [ "b"; "breakdown" ] ~doc:"Print the Fig 15 time breakdown.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "m"; "metrics" ]
          ~doc:"Print the full metrics registry (all counters and histograms).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the whole run result as one JSON document instead of text.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute one benchmark under one runtime.")
    Term.(
      const action $ runtime_arg $ threads_arg $ seed_arg $ benchmark_arg $ breakdown_arg
      $ metrics_arg $ json_arg $ jobs_arg $ profile_file_arg)

(* --- trace ------------------------------------------------------------ *)

let trace_cmd =
  let action runtime threads seed name out metrics_out =
    match find_program ~threads name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok program ->
        let tracer = Obs.Tracer.create () in
        let r =
          Runtime.Run.run runtime ~seed ~nthreads:threads ~obs:(Obs.Tracer.sink tracer)
            program
        in
        let process_name =
          Printf.sprintf "%s / %s (%d threads, seed %d)" name (Runtime.Run.name runtime)
            threads seed
        in
        (try Obs.Chrome_trace.write_file ~process_name out tracer
         with Sys_error e ->
           prerr_endline e;
           exit 1);
        Printf.printf "%s: %d spans + %d instants on %d tracks -> %s\n" process_name
          (Obs.Tracer.span_count tracer)
          (Obs.Tracer.instant_count tracer)
          (List.length (Obs.Tracer.tids tracer))
          out;
        (match metrics_out with
        | Some file ->
            Obs.Json.to_file file (Stats.Run_result.to_json r);
            Printf.printf "metrics -> %s\n" file
        | None -> ());
        Printf.printf "witness %s\n" (Stats.Run_result.deterministic_witness r)
  in
  let out_arg =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Output file for the Chrome trace-event JSON (load in Perfetto).")
  in
  let metrics_out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Also write the run result (including metrics) as JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Execute one benchmark and export the span timeline as Chrome trace-event JSON.")
    Term.(
      const action $ runtime_arg $ threads_arg $ seed_arg $ benchmark_arg $ out_arg
      $ metrics_out_arg)

(* --- profile ---------------------------------------------------------- *)

let profile_cmd =
  let sweep runtime threads seed =
    (* No benchmark named: compact one-line profile of every registry
       workload, failing on any conservation violation. *)
    let bad = ref 0 in
    Printf.printf "%-18s %12s %7s %7s %7s %7s  %s\n" "benchmark" "wall-ns" "run-%"
      "token-%" "commit-%" "path-%" "conserved";
    List.iter
      (fun name ->
        let program = (Workload.Registry.find name).Workload.Registry.program in
        let r = Prof.Report.run ~runtime ~seed ~nthreads:threads program in
        let p = r.Prof.Report.profile in
        (* Shares come from the shared accessor; see Prof.Profile.state_shares. *)
        let pct st = 100.0 *. Prof.Profile.state_share p st in
        let ok = Prof.Report.conservation_ok r in
        if not ok then incr bad;
        Printf.printf "%-18s %12d %7.1f %7.1f %7.1f %7.1f  %s\n" name
          p.Prof.Profile.wall_ns
          (pct Obs.Thread_state.Run)
          (pct Obs.Thread_state.Token_wait)
          (pct Obs.Thread_state.Commit)
          (100.0
          *. float_of_int r.Prof.Report.cpath.Prof.Critical_path.path_ns
          /. float_of_int (max 1 r.Prof.Report.cpath.Prof.Critical_path.wall_ns))
          (if ok then "ok" else "VIOLATED"))
      Workload.Registry.names;
    if !bad > 0 then begin
      Printf.eprintf "%d benchmark(s) violated state conservation\n" !bad;
      exit 1
    end
  in
  let action runtime threads seed name json out perfetto whatif =
    match name with
    | None ->
        if json || out <> None || perfetto <> None || whatif then begin
          prerr_endline
            "--json/-o/--perfetto/--whatif require a BENCHMARK argument (the sweep prints \
             compact summaries only)";
          exit 1
        end;
        sweep runtime threads seed
    | Some name -> (
        match find_program ~threads name with
        | Error e ->
            prerr_endline e;
            exit 1
        | Ok program ->
            let tracer = Obs.Tracer.create () in
            let obs =
              match perfetto with
              | Some _ -> Obs.Tracer.sink tracer
              | None -> Obs.Sink.null
            in
            let r = Prof.Report.run ~runtime ~seed ~nthreads:threads ~whatif ~obs program in
            let doc = Obs.Json.to_string (Prof.Report.to_json r) in
            (match out with
            | Some file ->
                let oc = open_out file in
                output_string oc doc;
                output_char oc '\n';
                close_out oc;
                Printf.printf "profile -> %s\n" file
            | None -> ());
            (match perfetto with
            | Some file ->
                let process_name =
                  Printf.sprintf "%s / %s (%d threads, seed %d)" name
                    (Runtime.Run.name runtime) threads seed
                in
                Obs.Chrome_trace.write_file ~process_name file tracer;
                Printf.printf
                  "perfetto trace (%d spans, %d state intervals as counter tracks) -> %s\n"
                  (Obs.Tracer.span_count tracer)
                  (Obs.Tracer.state_count tracer)
                  file
            | None -> ());
            if json then print_endline doc
            else if out = None then Format.printf "%a@." Prof.Report.pp r;
            if not (Prof.Report.conservation_ok r) then begin
              prerr_endline "state conservation VIOLATED";
              exit 1
            end)
  in
  let benchmark_opt_arg =
    let doc =
      "Benchmark to profile.  Without it, every registry benchmark is profiled and \
       summarized in one line each."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the profile as one JSON document instead of text.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the profile JSON to $(docv).")
  in
  let perfetto_arg =
    Arg.(
      value & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Also capture the run's span timeline and per-thread state counter tracks as \
             Chrome trace-event JSON in $(docv) (load in Perfetto).")
  in
  let whatif_arg =
    Arg.(
      value & flag
      & info [ "whatif" ]
          ~doc:
            "Also record the schedule and replay it under perturbed cost models (2x faster \
             merges, free token handoffs, ...) to measure projected speedups.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Determinism profile: per-thread state attribution, critical path, what-if \
          projection.")
    Term.(
      const action $ runtime_arg $ threads_arg $ seed_arg $ benchmark_opt_arg $ json_arg
      $ out_arg $ perfetto_arg $ whatif_arg)

(* --- bench ------------------------------------------------------------ *)

let bench_cmd =
  let action () =
    List.iter
      (fun e ->
        let p = e.Workload.Registry.program in
        Printf.printf "%-18s %-9s %s\n" p.Api.name
          (Workload.Registry.suite_name e.Workload.Registry.suite)
          p.Api.description)
      Workload.Registry.all
  in
  let doc =
    Printf.sprintf "List the %d registry benchmarks: the paper suite and the KV service shapes."
      (List.length Workload.Registry.all)
  in
  Cmd.v (Cmd.info "bench" ~doc) Term.(const action $ const ())

(* --- litmus ----------------------------------------------------------- *)

let litmus_cmd =
  let action runtime name =
    let tests =
      match name with
      | None -> Tso.Litmus.all
      | Some n -> (
          match List.find_opt (fun t -> t.Tso.Litmus.name = n) Tso.Litmus.all with
          | Some t -> [ t ]
          | None ->
              Printf.eprintf "unknown litmus test %S; known: %s\n" n
                (String.concat ", " (List.map (fun t -> t.Tso.Litmus.name) Tso.Litmus.all));
              exit 1)
    in
    List.iter
      (fun test ->
        let v = Tso.Checker.run_test runtime test in
        Format.printf "%a@." Tso.Checker.pp_verdict v;
        Format.printf "  observed: %a@." Tso.Model.pp_set v.Tso.Checker.observed)
      tests
  in
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"TEST" ~doc:"Litmus test name (default: all).")
  in
  Cmd.v
    (Cmd.info "litmus" ~doc:"Run litmus tests against the TSO/SC operational models.")
    Term.(const action $ runtime_arg $ name_arg)

(* --- lrc -------------------------------------------------------------- *)

let lrc_cmd =
  let action threads seed name =
    match find_program ~threads name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok program ->
        let r = Hb.Lrc_study.run ~seed ~nthreads:threads program in
        Printf.printf
          "%s: TSO propagated %d pages; an LRC system would propagate %d (%.1f%% reduction) over %d acquires / %d commits\n"
          r.Hb.Lrc_study.program r.Hb.Lrc_study.tso_pages r.Hb.Lrc_study.lrc_pages
          (100.0 *. Hb.Lrc_study.reduction r)
          r.Hb.Lrc_study.acquires r.Hb.Lrc_study.commits
  in
  Cmd.v
    (Cmd.info "lrc" ~doc:"Fig 16 memory-propagation study for one benchmark.")
    Term.(const action $ threads_arg $ seed_arg $ benchmark_arg)

(* --- schedule ---------------------------------------------------------- *)

let schedule_cmd =
  let action runtime threads seed name count =
    match find_program ~threads name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok program ->
        let schedule, r = Runtime.Run.schedule runtime ~seed ~nthreads:threads program in
        let total = r.Stats.Run_result.trace_events in
        Printf.printf
          "# %s on %s, %d threads — first %d of %d synchronization events\n"
          name (Runtime.Run.name runtime) threads (min count total) total;
        List.iteri
          (fun i (time, tid, label) ->
            if i < count then Printf.printf "%10d ns  t%-3d %s\n" time tid label)
          schedule
  in
  let count_arg =
    Arg.(value & opt int 60 & info [ "n"; "count" ] ~doc:"Events to print.")
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Print the (deterministic) global synchronization schedule of a run.")
    Term.(const action $ runtime_arg $ threads_arg $ seed_arg $ benchmark_arg $ count_arg)

(* --- stress ------------------------------------------------------------ *)

let stress_cmd =
  let action runtime threads programs seeds jobs =
    apply_jobs jobs;
    let distincts =
      Sim.Par.map_list
        (fun prog_seed ->
          let program = Workload.Synthetic.make ~seed:prog_seed () in
          let witnesses =
            List.init seeds (fun k ->
                Stats.Run_result.deterministic_witness
                  (Runtime.Run.run runtime ~seed:(1 + (97 * k)) ~nthreads:threads program))
          in
          List.length (List.sort_uniq compare witnesses))
        (List.init programs (fun i -> i + 1))
    in
    let failures = ref 0 in
    List.iteri
      (fun i distinct ->
        if distinct > 1 then begin
          incr failures;
          Printf.printf "program %d: %d DISTINCT WITNESSES\n" (i + 1) distinct
        end)
      distincts;
    Printf.printf
      "stress: %d random programs x %d perturbed runs on %s, %d threads -> %d determinism failure(s)\n"
      programs seeds (Runtime.Run.name runtime) threads !failures;
    if !failures > 0 && Runtime.Run.deterministic runtime then exit 1
  in
  let programs_arg =
    Arg.(value & opt int 25 & info [ "p"; "programs" ] ~doc:"Random programs to generate.")
  in
  let seeds_arg =
    Arg.(value & opt int 3 & info [ "k"; "seeds" ] ~doc:"Perturbed runs per program.")
  in
  Cmd.v
    (Cmd.info "stress" ~doc:"Fuzz determinism with seeded random programs.")
    Term.(const action $ runtime_arg $ threads_arg $ programs_arg $ seeds_arg $ jobs_arg)

(* --- races ------------------------------------------------------------ *)

let races_cmd =
  let action runtime threads seed name full_vector json out jobs =
    apply_jobs jobs;
    let mode = if full_vector then Race.Detector.Full_vector else Race.Detector.Epoch in
    match name with
    | Some name -> (
        (* The bank calibration workloads are auditable by name even
           though they are not part of the 19-benchmark suite. *)
        let extras = [ Workload.Bank.racy; Workload.Bank.locked; Workload.Bank.atomic ] in
        let program =
          match List.find_opt (fun p -> p.Api.name = name) extras with
          | Some p -> Ok p
          | None -> find_program ~threads name
        in
        match program with
        | Error e ->
            prerr_endline e;
            exit 1
        | Ok program ->
            let report, _ = Race.Audit.run ~mode ~seed ~nthreads:threads runtime program in
            if json then print_endline (Obs.Json.to_string (Race.Report.to_json report))
            else print_endline (Race.Report.to_string report))
    | None ->
        let fig = Figures.Race_report.run ~threads () in
        Figures.Fig_output.print fig;
        let file = Option.value out ~default:"BENCH_races.json" in
        Obs.Json.to_file file (Figures.Fig_output.to_json fig);
        Printf.printf "[races -> %s]\n" file
  in
  let name_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK"
          ~doc:
            "Benchmark to audit (also bank-racy / bank-locked / bank-atomic).  Without it, \
             sweep the whole suite and write the JSON report.")
  in
  let full_vector_arg =
    Arg.(
      value & flag
      & info [ "full-vector" ]
          ~doc:"Use the full-vector oracle instead of the O(1) epoch verdicts.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the single-benchmark report as JSON.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Output file for the sweep JSON (default BENCH_races.json).")
  in
  Cmd.v
    (Cmd.info "races"
       ~doc:
         "Classify merge conflicts racy vs sync-ordered; the deterministic runtimes make \
          the report byte-identical across seeds.")
    Term.(
      const action $ runtime_arg $ threads_arg $ seed_arg $ name_arg $ full_vector_arg
      $ json_arg $ out_arg $ jobs_arg)

(* --- record / replay / explore ---------------------------------------- *)

let record_cmd =
  let action runtime threads seed name out =
    match find_program ~threads name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok program ->
        let log, res = Replay.Schedule.record runtime ~seed ~nthreads:threads program in
        let out = Option.value out ~default:(name ^ ".schedule.json") in
        (try Replay.Schedule.save log out
         with Sys_error e ->
           prerr_endline e;
           exit 1);
        Format.printf "%a@." Replay.Schedule.pp_meta log;
        Printf.printf "schedule -> %s (%d events, wall %d ns)\n" out
          (Replay.Schedule.length log) res.Stats.Run_result.wall_ns
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Output file for the schedule log (default <benchmark>.schedule.json).")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Record a run's deterministic decisions (chunk boundaries, commit order and \
          hashes) into a schedule log.  On pthreads this pins one seeded interleaving.")
    Term.(const action $ runtime_arg $ threads_arg $ seed_arg $ benchmark_arg $ out_arg)

let schedule_file_arg =
  Arg.(
    required & pos 0 (some file) None
    & info [] ~docv:"SCHEDULE" ~doc:"Schedule log recorded by the record subcommand.")

let load_log_and_program file =
  match Replay.Schedule.load file with
  | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      exit 1
  | Ok log -> (
      match find_program log.Replay.Schedule.meta.Replay.Schedule.program with
      | Error e ->
          prerr_endline e;
          exit 1
      | Ok program -> (log, program))

let replay_cmd =
  let action file =
    let log, program = load_log_and_program file in
    Format.printf "%a@." Replay.Schedule.pp_meta log;
    let o = Replay.Replayer.replay log program in
    Format.printf "%a@." Replay.Replayer.pp_outcome o;
    if not (Replay.Replayer.ok o) then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a recorded schedule (scripted chunk boundaries on the deterministic \
          runtimes, pinned seed on pthreads), checking every event and the final \
          witnesses; the first divergence is localized to thread + chunk.")
    Term.(const action $ schedule_file_arg)

let explore_cmd =
  let action file variants seed json =
    let log, program = load_log_and_program file in
    let r = Replay.Explore.explore ~variants ~seed log program in
    if json then print_endline (Obs.Json.to_string (Replay.Explore.to_json r))
    else Format.printf "%a@." Replay.Explore.pp_report r;
    if not (r.Replay.Explore.deterministic && r.Replay.Explore.conflicts_stable) then exit 1
  in
  let variants_arg =
    Arg.(value & opt int 12 & info [ "n"; "variants" ] ~doc:"Perturbed schedules to run.")
  in
  let explore_seed_arg =
    Arg.(value & opt int 7 & info [ "s"; "seed" ] ~doc:"Perturbation PRNG seed.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the exploration report as JSON.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Bounded schedule exploration: split/merge/shift the recorded chunk boundaries, \
          replay each variant, and cross-check that witnesses and race verdicts are \
          invariant while timings move.")
    Term.(const action $ schedule_file_arg $ variants_arg $ explore_seed_arg $ json_arg)

(* --- tune ------------------------------------------------------------- *)

let tune_search_cmd =
  let action threads seed quick out jobs names =
    apply_jobs jobs;
    (* Profiles record both as provenance, and the profile reader
       rejects values below 1. *)
    if threads < 1 || seed < 1 then begin
      prerr_endline "tune search: -t and -s must be >= 1";
      exit 1
    end;
    let names = if names = [] then Workload.Registry.names else names in
    (match List.find_opt (fun n -> not (List.mem n Workload.Registry.names)) names with
    | Some bad ->
        Printf.eprintf "unknown benchmark %S; known: %s\n" bad
          (String.concat ", " Workload.Registry.names);
        exit 1
    | None -> ());
    let rec mkdir_p dir =
      if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
      then begin
        mkdir_p (Filename.dirname dir);
        Sys.mkdir dir 0o755
      end
    in
    mkdir_p out;
    let results =
      Sim.Par.map_list
        (fun name -> Tune.Search.search ~nthreads:threads ~seed ~quick name)
        names
    in
    let failures = ref 0 in
    List.iter
      (fun (r : Tune.Search.t) ->
        Format.printf "%a@.@." Tune.Search.pp r;
        if r.Tune.Search.replay_checked && not r.Tune.Search.replay_ok then incr failures;
        if not r.Tune.Search.seed_stable then incr failures;
        let profile = Tune.Search.to_profile r in
        let path = Filename.concat out (Tune.Profiles.filename profile) in
        Tune.Profiles.save profile path;
        Printf.printf "[%s -> %s]\n" r.Tune.Search.workload path)
      results;
    if !failures > 0 then begin
      Printf.eprintf "%d winner(s) failed the seed-stability or replay cross-check\n" !failures;
      exit 1
    end
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Skip the exploration floor of the winner check (the CI smoke setting); the \
             search itself is unchanged.")
  in
  let out_arg =
    Arg.(
      value & opt string "tune/profiles"
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Directory for the tuned profiles.")
  in
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"BENCHMARK" ~doc:"Workloads to tune (default: the whole registry).")
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Auto-tune the overflow and coarsening knobs per workload by simulated wall time \
          (hand grid, then a deterministic steepest descent), cross-check each winner \
          (seed stability, scripted replay), and save tuned profiles.")
    Term.(
      const action $ threads_arg $ seed_arg $ quick_arg $ out_arg $ jobs_arg $ names_arg)

let tune_show_cmd =
  let action file =
    match Tune.Profiles.load file with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        exit 1
    | Ok p -> Format.printf "%a@." Tune.Profiles.pp p
  in
  let file_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Tuned profile written by tune search.")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Pretty-print a saved tuned profile.")
    Term.(const action $ file_arg)

let tune_cmd =
  Cmd.group
    (Cmd.info "tune"
       ~doc:
         "Offline auto-tuner: search for per-workload static knob points and inspection \
          of the saved profiles (apply one with run --profile).")
    [ tune_search_cmd; tune_show_cmd ]

(* --- check ------------------------------------------------------------ *)

let check_cmd =
  let action runtime threads name jobs =
    apply_jobs jobs;
    match find_program ~threads name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok program ->
        let seeds = [ 1; 2; 3; 42; 1337 ] in
        let witnesses =
          Sim.Par.map_list
            (fun seed ->
              Stats.Run_result.deterministic_witness
                (Runtime.Run.run runtime ~seed ~nthreads:threads program))
            seeds
        in
        let distinct = List.length (List.sort_uniq compare witnesses) in
        Printf.printf "%s on %s, %d threads, %d seeds: %d distinct witness(es) — %s\n"
          name (Runtime.Run.name runtime) threads (List.length seeds) distinct
          (if distinct = 1 then "deterministic"
           else if Runtime.Run.deterministic runtime then "DETERMINISM VIOLATION"
           else "nondeterministic (expected for pthreads)");
        if distinct > 1 && Runtime.Run.deterministic runtime then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Determinism self-check across perturbed executions.")
    Term.(const action $ runtime_arg $ threads_arg $ benchmark_arg $ jobs_arg)

let () =
  let info =
    Cmd.info "consequence" ~version:"1.0.0"
      ~doc:"Deterministic multithreading with TSO consistency (EuroSys 2015 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            trace_cmd;
            profile_cmd;
            bench_cmd;
            litmus_cmd;
            lrc_cmd;
            check_cmd;
            schedule_cmd;
            stress_cmd;
            races_cmd;
            record_cmd;
            replay_cmd;
            explore_cmd;
            tune_cmd;
          ]))
