let threads_sweep = [ 2; 4; 8; 16; 32 ]

type row = {
  benchmark : string;
  suite : Workload.Registry.suite;
  ratios : (string * float) list;
}

let in_paper_set row = row.suite <> Workload.Registry.Service

let det_runtimes =
  [ Runtime.Run.dthreads; Runtime.Run.dwc; Runtime.Run.consequence_rr; Runtime.Run.consequence_ic ]

let measure ?(threads = threads_sweep) ?(seed = 1) () =
  (* One job per (benchmark, runtime) pair; results gathered in input
     order, so the assembled rows match the sequential sweep exactly. *)
  let rts = Runtime.Run.pthreads :: det_runtimes in
  let nrts = List.length rts in
  let entries = Workload.Registry.all in
  let jobs =
    List.concat_map (fun entry -> List.map (fun rt -> (entry, rt)) rts) entries
  in
  let walls =
    Array.of_list
      (Sim.Par.map_list
         (fun (entry, rt) ->
           (Runtime.Run.best_over_threads rt ~seed ~threads entry.Workload.Registry.program)
             .Stats.Run_result.wall_ns)
         jobs)
  in
  List.mapi
    (fun k entry ->
      let pthreads_best = walls.(k * nrts) in
      let ratios =
        List.mapi
          (fun j rt ->
            ( Runtime.Run.name rt,
              float_of_int walls.((k * nrts) + 1 + j) /. float_of_int pthreads_best ))
          det_runtimes
      in
      {
        benchmark = entry.Workload.Registry.program.Api.name;
        suite = entry.Workload.Registry.suite;
        ratios;
      })
    entries

let ratio_of row name = List.assoc name row.ratios

let run ?threads ?seed () =
  let all_rows = measure ?threads ?seed () in
  let rows, kv_rows = List.partition in_paper_set all_rows in
  let names = List.map Runtime.Run.name det_runtimes in
  let table_of rows =
    let table = Stats.Table.create ~columns:("benchmark" :: names) in
    List.iter
      (fun row ->
        Stats.Table.add_row table
          (row.benchmark :: List.map (fun n -> Stats.Table.cell_ratio (ratio_of row n)) names))
      rows;
    table
  in
  let max_of name =
    List.fold_left (fun acc row -> max acc (ratio_of row name)) 0.0 rows
  in
  let hardest = Workload.Registry.hardest_five in
  let avg_improvement name =
    let ratios =
      List.filter_map
        (fun row ->
          if List.mem row.benchmark hardest then
            Some (ratio_of row name /. ratio_of row "consequence-ic")
          else None)
        rows
    in
    List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)
  in
  let below_25 =
    List.length (List.filter (fun row -> ratio_of row "consequence-ic" <= 2.5) rows)
  in
  {
    Fig_output.id = "fig10";
    title = "runtime normalized to pthreads (best over thread sweep)";
    tables = [ ("", table_of rows); ("KV service (not in the paper's set)", table_of kv_rows) ];
    notes =
      [
        Printf.sprintf
          "max slowdown over the paper programs: consequence-ic %.1fx (paper: 3.9x), dthreads %.1fx (12.5x), dwc %.1fx (11.0x)"
          (max_of "consequence-ic") (max_of "dthreads") (max_of "dwc");
        Printf.sprintf
          "%d of %d paper programs at or below 2.5x under consequence-ic (paper: 14 of 19)"
          below_25 (List.length rows);
        Printf.sprintf
          "hardest five: consequence-ic beats dthreads by %.1fx (paper: 2.8x) and dwc by %.1fx (paper: 2.2x) on average"
          (avg_improvement "dthreads") (avg_improvement "dwc");
      ];
  }
