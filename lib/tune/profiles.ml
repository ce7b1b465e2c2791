module Cfg = Runtime.Config
module J = Obs.Json

type params = {
  overflow_base : int;
  overflow_cap : int;
  coarsen_initial : int;
  coarsen_floor : int;
  coarsen_cap : int;
}

let with_params p (c : Cfg.t) =
  {
    c with
    Cfg.overflow_base = p.overflow_base;
    overflow_cap = p.overflow_cap;
    coarsen_max_initial = p.coarsen_initial;
    coarsen_max_floor = p.coarsen_floor;
    coarsen_max_cap = p.coarsen_cap;
  }

let validate p =
  if p.overflow_base <= 0 || p.overflow_cap < p.overflow_base then
    Error
      (Printf.sprintf "tune params: need 0 < overflow_base <= overflow_cap, got %d and %d"
         p.overflow_base p.overflow_cap)
  else if
    p.coarsen_floor <= 0 || p.coarsen_initial < p.coarsen_floor || p.coarsen_cap < p.coarsen_initial
  then
    Error
      (Printf.sprintf
         "tune params: need 0 < coarsen_floor <= coarsen_initial <= coarsen_cap, got %d, %d and %d"
         p.coarsen_floor p.coarsen_initial p.coarsen_cap)
  else Ok p

type t = {
  workload : string;
  runtime : string;
  nthreads : int;
  seed : int;
  source : string;
  params : params;
  wall_default_ns : int;
  wall_tuned_ns : int;
}

let apply t cfg = with_params t.params { cfg with Cfg.name = cfg.Cfg.name ^ "-tuned" }

let filename t = t.workload ^ ".tune.json"

let params_to_json p =
  J.Obj
    [
      ("overflow_base", J.Int p.overflow_base);
      ("overflow_cap", J.Int p.overflow_cap);
      ("coarsen_initial", J.Int p.coarsen_initial);
      ("coarsen_floor", J.Int p.coarsen_floor);
      ("coarsen_cap", J.Int p.coarsen_cap);
    ]

let to_json t =
  J.Obj
    [
      ("workload", J.String t.workload);
      ("runtime", J.String t.runtime);
      ("nthreads", J.Int t.nthreads);
      ("seed", J.Int t.seed);
      ("source", J.String t.source);
      ("params", params_to_json t.params);
      ("wall_default_ns", J.Int t.wall_default_ns);
      ("wall_tuned_ns", J.Int t.wall_tuned_ns);
    ]

let ( let* ) = Result.bind

let str j k =
  match Option.bind (J.member k j) J.to_string_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "tune profile: missing or non-string field %S" k)

let int j k =
  match J.member k j with
  | Some (J.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "tune profile: missing or non-integer field %S" k)

(* An int field that must be at least [min]. *)
let int_at_least ~min j k =
  let* i = int j k in
  if i >= min then Ok i
  else Error (Printf.sprintf "tune profile: field %S must be >= %d, got %d" k min i)

let params_of_json j =
  let* overflow_base = int j "overflow_base" in
  let* overflow_cap = int j "overflow_cap" in
  let* coarsen_initial = int j "coarsen_initial" in
  let* coarsen_floor = int j "coarsen_floor" in
  let* coarsen_cap = int j "coarsen_cap" in
  validate { overflow_base; overflow_cap; coarsen_initial; coarsen_floor; coarsen_cap }

let of_json j =
  let* workload = str j "workload" in
  let* runtime = str j "runtime" in
  let* nthreads = int_at_least ~min:1 j "nthreads" in
  let* seed = int_at_least ~min:1 j "seed" in
  let* source = str j "source" in
  let* params =
    match J.member "params" j with
    | Some pj -> params_of_json pj
    | None -> Error "tune profile: missing field \"params\""
  in
  let* wall_default_ns = int_at_least ~min:1 j "wall_default_ns" in
  let* wall_tuned_ns = int_at_least ~min:1 j "wall_tuned_ns" in
  Ok { workload; runtime; nthreads; seed; source; params; wall_default_ns; wall_tuned_ns }

let save t path = J.to_file path (to_json t)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | raw -> Result.bind (J.parse raw) of_json

let load_for ~workload path =
  let* t = load path in
  if String.equal t.workload workload then Ok t
  else
    Error
      (Printf.sprintf "tune profile: tuned for workload %S, not %S" t.workload workload)

let pp_params ppf p =
  Format.fprintf ppf "overflow %d..%d, coarsen %d in [%d, %d]" p.overflow_base p.overflow_cap
    p.coarsen_initial p.coarsen_floor p.coarsen_cap

let pp ppf t =
  Format.fprintf ppf
    "@[<v>tuned profile for %s (%s, %d threads, seed %d; source %s)@,%a@,wall: default %d ns -> tuned %d ns@]"
    t.workload t.runtime t.nthreads t.seed t.source pp_params t.params t.wall_default_ns
    t.wall_tuned_ns
