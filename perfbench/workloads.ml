(* The benchmark's workloads.

   A workload is a list of items.  An item is one (program, preset,
   threads) configuration and the public entry-point calls made for it;
   running every item once, in order, is one pass.  Each call is wrapped
   in a span, so the traced run attributes host time to the layer the
   call enters. *)

module R = Stats.Run_result

type call = { program : string; preset : string; threads : int; deterministic : bool }

(* What one execution of an item returns: the bare run's result plus the
   outcome of every check-bearing call the item makes. *)
type obs = {
  result : R.t;
  kv_completed : int;  (** completed KV requests; 0 outside the KV workloads *)
  oracle_ok : bool option;  (** [Kv.Oracle.check] verdict *)
  schedule_events : int;  (** events in the recorded schedule log *)
  replay_ok : bool option;  (** [Replayer.ok] *)
  conserved : bool option;  (** [Prof.Report.conservation_ok] *)
  intervals : int;  (** profiler thread-state intervals *)
  states : int array option;  (** simulated ns per thread state, when requested *)
}

type item = {
  call : call;
  exec : seed:int -> states:bool -> obs;
  witness : seed:int -> string;
      (** deterministic witness of the bare run at [seed]; only meaningful
          when [call.deterministic] *)
}

type t = {
  name : string;
  state_shares : bool;  (** attach a thread-state sink in the verification pass *)
  setup : seed:int -> item list;
      (** build every program and make one warm-up call per program *)
}

let label c = Printf.sprintf "%s/%s/t%d" c.program c.preset c.threads
let preset_of_label l = match String.split_on_char '/' l with [ _; p; _ ] -> p | _ -> ""

let instructions (r : R.t) =
  List.fold_left (fun acc (t : R.thread_stat) -> acc + t.instructions) 0 r.per_thread

let run_counts (r : R.t) =
  [
    ("sim_wall_ns", float_of_int r.wall_ns);
    ("instructions", float_of_int (instructions r));
    ("sync_ops", float_of_int r.sync_ops);
    ("trace_events", float_of_int r.trace_events);
  ]

(* A sink that sums simulated ns per thread state and drops the rest. *)
let state_sink () =
  let acc = Array.make Obs.Thread_state.n 0 in
  let sink =
    {
      Obs.Sink.null with
      state =
        (fun iv ->
          let i = Obs.Thread_state.index iv.Obs.Thread_state.state in
          acc.(i) <- acc.(i) + Obs.Thread_state.duration iv);
    }
  in
  (acc, sink)

let bare_run rt call ~seed ?obs program =
  Spans.with_span ~layer:"runtime" ~name:"Run.run" ~label:(label call) ~counts:run_counts
    (fun () -> Runtime.Run.run rt ~seed ~nthreads:call.threads ?obs program)

let with_item call f = Spans.with_span ~layer:"bench" ~name:"item" ~label:(label call) f

let plain result =
  {
    result;
    kv_completed = 0;
    oracle_ok = None;
    schedule_events = 0;
    replay_ok = None;
    conserved = None;
    intervals = 0;
    states = None;
  }

let call_of rt program threads =
  {
    program = program.Api.name;
    preset = Runtime.Run.name rt;
    threads;
    deterministic = Runtime.Run.deterministic rt;
  }

let witness_of rt call program ~seed =
  R.deterministic_witness (Runtime.Run.run rt ~seed ~nthreads:call.threads program)

(* The warm-up call of set-up: one bare 2-thread run of the program.  It
   is kept small so that set-up time is mostly program construction. *)
let warm_up rt ~seed program = ignore (Runtime.Run.run rt ~seed ~nthreads:2 program)

(* ------------------------------------------------------------------ *)
(* paper_suite: the Fig 10 sweep, bare runs                            *)
(* ------------------------------------------------------------------ *)

let paper_threads = [ 2; 4; 8; 16; 32 ]

(* The KV and record_replay thread counts. *)
let high_threads = [ 8; 16; 32 ]

let paper_programs () =
  List.filter_map
    (fun (e : Workload.Registry.entry) ->
      if e.suite = Workload.Registry.Service then None else Some (e.make ()))
    Workload.Registry.all

let paper_items program =
  List.concat_map
    (fun rt ->
      List.map
        (fun threads ->
          let call = call_of rt program threads in
          {
            call;
            exec =
              (fun ~seed ~states:_ ->
                with_item call (fun () -> plain (bare_run rt call ~seed program)));
            witness = witness_of rt call program;
          })
        paper_threads)
    Runtime.Run.all

let paper_suite =
  {
    name = "paper_suite";
    state_shares = false;
    setup =
      (fun ~seed ->
        let programs = paper_programs () in
        List.iter (warm_up Runtime.Run.pthreads ~seed) programs;
        List.concat_map paper_items programs);
  }

(* ------------------------------------------------------------------ *)
(* kv_skewed / kv_spread: the KV service under consequence-ic          *)
(* ------------------------------------------------------------------ *)

let kv_items rt shape (program, outcome) =
  List.map
    (fun threads ->
      let call = { (call_of rt program threads) with program = Kv.Traffic.name shape } in
      let exec ~seed ~states =
        with_item call (fun () ->
            let acc, obs =
              if states then
                let acc, sink = state_sink () in
                (Some acc, Some sink)
              else (None, None)
            in
            let result = bare_run rt call ~seed ?obs program in
            let o = outcome () in
            let verdict =
              Spans.with_span ~layer:"kv" ~name:"Oracle.check" ~label:(label call)
                ~counts:(fun v -> [ ("ok", if Result.is_ok v then 1.0 else 0.0) ])
                (fun () -> Kv.Oracle.check o)
            in
            {
              (plain result) with
              kv_completed = Kv.Oracle.completed o;
              oracle_ok = Some (Result.is_ok verdict && not (Kv.Oracle.snapshot_aborts o));
              states = acc;
            })
      in
      { call; exec; witness = witness_of rt call program })
    high_threads

let kv_workload name shapes =
  {
    name;
    state_shares = true;
    setup =
      (fun ~seed ->
        let rt = Runtime.Run.consequence_ic in
        List.concat_map
          (fun shape ->
            let probe = Kv.Service.probe shape in
            warm_up rt ~seed (fst probe);
            kv_items rt shape probe)
          shapes);
  }

let kv_skewed =
  kv_workload "kv_skewed"
    [ Kv.Traffic.Zipf; Kv.Traffic.Hot; Kv.Traffic.Write_heavy ]

let kv_spread =
  kv_workload "kv_spread"
    [ Kv.Traffic.Read_mostly; Kv.Traffic.Scan; Kv.Traffic.Uniform ]

(* ------------------------------------------------------------------ *)
(* record_replay: record, checked replay and profile of fig13_set      *)
(* ------------------------------------------------------------------ *)

let rr_programs () =
  List.map
    (fun n -> (Workload.Registry.find n).Workload.Registry.make ())
    Workload.Registry.fig13_set

let rr_items rt program =
  List.map
    (fun threads ->
      let call = call_of rt program threads in
      let exec ~seed ~states:_ =
        with_item call (fun () ->
            let result = bare_run rt call ~seed program in
            let log, _ =
              Spans.with_span ~layer:"replay" ~name:"Schedule.record" ~label:(label call)
                ~counts:(fun (log, r) ->
                  ("events", float_of_int (Replay.Schedule.length log)) :: run_counts r)
                (fun () -> Replay.Schedule.record rt ~seed ~nthreads:threads program)
            in
            let replayed =
              Spans.with_span ~layer:"replay" ~name:"Replayer.replay" ~label:(label call)
                ~counts:(fun (o : Replay.Replayer.outcome) ->
                  [ ("checked", float_of_int o.checked) ])
                (fun () -> Replay.Replayer.replay log program)
            in
            let prof =
              Spans.with_span ~layer:"prof" ~name:"Prof.Report.run" ~label:(label call)
                ~counts:(fun (p : Prof.Report.t) ->
                  ("intervals", float_of_int p.profile.Prof.Profile.nintervals)
                  :: run_counts p.result)
                (fun () ->
                  Prof.Report.run ~runtime:rt ~seed ~nthreads:threads ~whatif:false program)
            in
            {
              (plain result) with
              schedule_events = Replay.Schedule.length log;
              replay_ok = Some (Replay.Replayer.ok replayed);
              conserved = Some (Prof.Report.conservation_ok prof);
              intervals = prof.profile.Prof.Profile.nintervals;
            })
      in
      { call; exec; witness = witness_of rt call program })
    high_threads

let record_replay =
  {
    name = "record_replay";
    state_shares = false;
    setup =
      (fun ~seed ->
        let rt = Runtime.Run.consequence_ic in
        let programs = rr_programs () in
        List.iter (warm_up rt ~seed) programs;
        List.concat_map (rr_items rt) programs);
  }

let all = [ paper_suite; kv_skewed; kv_spread; record_replay ]
let find name = List.find_opt (fun w -> w.name = name) all
