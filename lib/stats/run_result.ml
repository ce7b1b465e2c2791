type thread_stat = {
  tid : int;
  thread_name : string;
  breakdown : Breakdown.t;
  instructions : int;
}

type t = {
  program : string;
  runtime : string;
  nthreads : int;
  seed : int;
  wall_ns : int;
  per_thread : thread_stat list;
  sync_ops : int;
  token_acquisitions : int;
  pages_propagated : int;
  pages_committed : int;
  pages_merged : int;
  bytes_merged : int;
  write_faults : int;
  commits : int;
  coarsened_chunks : int;
  overflow_interrupts : int;
  peak_mem_pages : int;
  versions : int;
  mem_hash : string;
  sync_order_hash : string;
  output_hash : string;
  trace_events : int;
  metrics : Obs.Metrics.snapshot;
}

let aggregate_breakdown t =
  List.fold_left (fun acc ts -> Breakdown.merge acc ts.breakdown) (Breakdown.create ())
    t.per_thread

let deterministic_witness t =
  Printf.sprintf "mem:%s|sync:%s|out:%s" t.mem_hash t.sync_order_hash t.output_hash

(* The latency distributions the paper's evaluation discusses; shown in
   this order when present in the run's metrics. *)
let summary_hists =
  [
    ("token_hold_ns", "token hold ns");
    ("determ_wait_ns", "determ wait ns");
    ("commit_ns", "commit ns");
    ("commit_pages", "pages/commit");
    ("chunk_instr", "chunk instr");
  ]

let pp_percentiles fmt (m : Obs.Metrics.snapshot) =
  List.iter
    (fun (key, label) ->
      match Obs.Metrics.find_hist m key with
      | Some h when h.Obs.Metrics.count > 0 ->
          Format.fprintf fmt "@,%-15s p50 %.0f  p95 %.0f  p99 %.0f  max %d  (n=%d)" label
            (Obs.Metrics.percentile h 0.50) (Obs.Metrics.percentile h 0.95)
            (Obs.Metrics.percentile h 0.99) h.Obs.Metrics.max_v h.Obs.Metrics.count
      | Some _ | None -> ())
    summary_hists

let pp_summary fmt t =
  Format.fprintf fmt
    "@[<v>%s / %s: %d threads, seed %d@,\
     wall            %d ns@,\
     sync ops        %d@,\
     token acqs      %d@,\
     commits         %d (%d pages, %d merged, %d bytes)@,\
     faults          %d@,\
     pages propagated %d@,\
     peak memory     %d pages@,\
     versions        %d@,\
     witness         %s%a@]"
    t.program t.runtime t.nthreads t.seed t.wall_ns t.sync_ops t.token_acquisitions t.commits
    t.pages_committed t.pages_merged t.bytes_merged t.write_faults t.pages_propagated
    t.peak_mem_pages t.versions (deterministic_witness t) pp_percentiles t.metrics

let breakdown_to_json bd =
  Obs.Json.Obj
    (List.map
       (fun cat -> (Breakdown.category_name cat, Obs.Json.Int (Breakdown.get bd cat)))
       Breakdown.all)

let to_json t =
  Obs.Json.Obj
    [
      ("program", Obs.Json.String t.program);
      ("runtime", Obs.Json.String t.runtime);
      ("nthreads", Obs.Json.Int t.nthreads);
      ("seed", Obs.Json.Int t.seed);
      ("wall_ns", Obs.Json.Int t.wall_ns);
      ("sync_ops", Obs.Json.Int t.sync_ops);
      ("token_acquisitions", Obs.Json.Int t.token_acquisitions);
      ("pages_propagated", Obs.Json.Int t.pages_propagated);
      ("pages_committed", Obs.Json.Int t.pages_committed);
      ("pages_merged", Obs.Json.Int t.pages_merged);
      ("bytes_merged", Obs.Json.Int t.bytes_merged);
      ("write_faults", Obs.Json.Int t.write_faults);
      ("commits", Obs.Json.Int t.commits);
      ("coarsened_chunks", Obs.Json.Int t.coarsened_chunks);
      ("overflow_interrupts", Obs.Json.Int t.overflow_interrupts);
      ("peak_mem_pages", Obs.Json.Int t.peak_mem_pages);
      ("versions", Obs.Json.Int t.versions);
      ("trace_events", Obs.Json.Int t.trace_events);
      ("mem_hash", Obs.Json.String t.mem_hash);
      ("sync_order_hash", Obs.Json.String t.sync_order_hash);
      ("output_hash", Obs.Json.String t.output_hash);
      ("witness", Obs.Json.String (deterministic_witness t));
      ("breakdown", breakdown_to_json (aggregate_breakdown t));
      ( "per_thread",
        Obs.Json.List
          (List.map
             (fun ts ->
               Obs.Json.Obj
                 [
                   ("tid", Obs.Json.Int ts.tid);
                   ("name", Obs.Json.String ts.thread_name);
                   ("instructions", Obs.Json.Int ts.instructions);
                   ("breakdown", breakdown_to_json ts.breakdown);
                 ])
             t.per_thread) );
      ("metrics", Obs.Metrics.to_json t.metrics);
    ]
