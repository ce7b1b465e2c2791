(* Tests for lib/tune: the static knob record and its validation, the
   profile reader (round-trip, a seeded mutation fuzzer, and every
   committed profile reproducing its recorded wall time), and an
   end-to-end quick search with its ordering guarantees and winner
   cross-checks. *)

module P = Tune.Profiles
module Cfg = Runtime.Config
module R = Runtime.Run
module Res = Stats.Run_result
module J = Obs.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let program_of name = (Workload.Registry.find name).Workload.Registry.program

(* QCheck properties run from a fixed seed, so a failure replays exactly. *)
let seeded t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 16 |]) t

(* --- params ----------------------------------------------------------- *)

let default_params = List.assoc "hand-default" Tune.Search.hand_grid

let test_validate_rejects_bad_params () =
  let d = default_params in
  check_bool "preset knobs are valid" true (P.validate d = Ok d);
  let reject label p =
    match P.validate p with
    | Ok _ -> Alcotest.failf "%s accepted" label
    | Error _ -> ()
  in
  reject "zero base" { d with P.overflow_base = 0 };
  reject "cap below base" { d with P.overflow_cap = d.P.overflow_base - 1 };
  reject "zero floor" { d with P.coarsen_floor = 0 };
  reject "initial below floor" { d with P.coarsen_initial = d.P.coarsen_floor - 1 };
  reject "cap below initial" { d with P.coarsen_cap = d.P.coarsen_initial - 1 }

let gen_profile =
  let open QCheck.Gen in
  (* Three ascending positive ints, so every generated point is valid. *)
  let ordered3 hi =
    map (fun l -> match List.sort compare l with [ a; b; c ] -> (a, b, c) | _ -> assert false)
      (list_repeat 3 (int_range 1 hi))
  in
  let ordered2 hi = map (fun (a, b, _) -> (a, b)) (ordered3 hi) in
  oneofl Workload.Registry.names >>= fun workload ->
  oneofl R.names >>= fun runtime ->
  int_range 1 256 >>= fun nthreads ->
  int_range 1 1_000 >>= fun seed ->
  oneofl [ "hand-default"; "hand-coarse"; "descent" ] >>= fun source ->
  ordered2 1_000_000 >>= fun (overflow_base, overflow_cap) ->
  ordered3 4_000_000 >>= fun (coarsen_floor, coarsen_initial, coarsen_cap) ->
  ordered2 100_000_000 >>= fun (wall_tuned_ns, wall_default_ns) ->
  return
    {
      P.workload;
      runtime;
      nthreads;
      seed;
      source;
      params = { P.overflow_base; overflow_cap; coarsen_initial; coarsen_floor; coarsen_cap };
      wall_default_ns;
      wall_tuned_ns;
    }

let arb_profile =
  QCheck.make ~print:(fun t -> J.to_string (P.to_json t)) gen_profile

let prop_profile_json_roundtrip =
  QCheck.Test.make ~name:"profile JSON round-trip" ~count:300 arb_profile (fun t ->
      match Result.bind (J.parse (J.to_string (P.to_json t))) P.of_json with
      | Ok t' -> t = t'
      | Error _ -> false)

(* Every single-field mutation of a profile document, labelled by its
   path: each field, at the top level and inside "params", is dropped
   and retyped, and each integer is also zeroed and negated. *)
let edits = function
  | J.Int i ->
      [
        ("drop", None);
        ("as-string", Some (J.String (string_of_int i)));
        ("as-float", Some (J.Float (float_of_int i)));
        ("zero", Some (J.Int 0));
        ("negate", Some (J.Int (-i)));
      ]
  | J.String s -> [ ("drop", None); ("as-int", Some (J.Int (String.length s))) ]
  | J.Obj _ -> [ ("drop", None); ("as-int", Some (J.Int 1)); ("as-string", Some (J.String "")) ]
  | _ -> [ ("drop", None) ]

let rec mutations = function
  | J.Obj fields ->
      List.concat_map
        (fun (key, v) ->
          let replace v' =
            J.Obj
              (List.filter_map
                 (fun (k, old) -> if k = key then Option.map (fun x -> (k, x)) v' else Some (k, old))
                 fields)
          in
          List.map (fun (label, v') -> (key ^ ":" ^ label, replace v')) (edits v)
          @ List.map (fun (label, v') -> (key ^ "." ^ label, replace (Some v'))) (mutations v))
        fields
  | _ -> []

let prop_profile_mutations_rejected =
  QCheck.Test.make ~name:"profile reader rejects every mutation" ~count:200 arb_profile
    (fun t ->
      let doc = P.to_json t in
      let text = J.to_string doc in
      let muts = mutations doc in
      (* 3 strings, 4 ints and the params object at the top level, 5
         ints inside it: guard against the enumeration shrinking. *)
      if List.length muts <> 54 then
        QCheck.Test.fail_reportf "expected 54 field mutations, got %d" (List.length muts);
      List.iter
        (fun (label, j) ->
          match P.of_json j with
          | Ok _ -> QCheck.Test.fail_reportf "mutation %s accepted" label
          | Error _ -> ())
        muts;
      for n = 0 to String.length text - 1 do
        match Result.bind (J.parse (String.sub text 0 n)) P.of_json with
        | Ok _ -> QCheck.Test.fail_reportf "truncation to %d bytes accepted" n
        | Error _ -> ()
      done;
      true)

(* --- tuned profiles --------------------------------------------------- *)

let sample_profile =
  {
    P.workload = "kmeans";
    runtime = "consequence-ic";
    nthreads = 8;
    seed = 1;
    source = "descent";
    params = List.assoc "hand-huge-chunk" Tune.Search.hand_grid;
    wall_default_ns = 1_000_000;
    wall_tuned_ns = 900_000;
  }

let test_profile_file_roundtrip () =
  let path = Filename.temp_file "consequence" ".tune.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      P.save sample_profile path;
      match P.load path with
      | Ok t' -> check_bool "round-trips" true (sample_profile = t')
      | Error e -> Alcotest.failf "load failed: %s" e);
  check_bool "missing file is an Error" true
    (match P.load "/nonexistent/x.tune.json" with Error _ -> true | Ok _ -> false)

let test_profile_for_other_workload_rejected () =
  let path = Filename.temp_file "consequence" ".tune.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      P.save sample_profile path;
      check_bool "own workload loads" true (P.load_for ~workload:"kmeans" path = Ok sample_profile);
      match P.load_for ~workload:"histogram" path with
      | Ok _ -> Alcotest.fail "kmeans profile accepted for histogram"
      | Error e ->
          let mentions w =
            let n = String.length w in
            let rec go i = i + n <= String.length e && (String.sub e i n = w || go (i + 1)) in
            go 0
          in
          check_bool "error names both workloads" true (mentions "kmeans" && mentions "histogram"))

let test_profile_apply () =
  let p = sample_profile.P.params in
  let cfg = P.apply sample_profile Cfg.consequence_ic in
  Alcotest.(check string) "name tagged" "consequence-ic-tuned" cfg.Cfg.name;
  check_bool "knobs set" true
    (cfg.Cfg.overflow_base = p.P.overflow_base
    && cfg.Cfg.overflow_cap = p.P.overflow_cap
    && cfg.Cfg.coarsen_max_initial = p.P.coarsen_initial
    && cfg.Cfg.coarsen_max_floor = p.P.coarsen_floor
    && cfg.Cfg.coarsen_max_cap = p.P.coarsen_cap);
  (* Setting the hand-default point restores the preset exactly. *)
  check_bool "other fields untouched" true
    ({ (P.with_params default_params cfg) with Cfg.name = "consequence-ic" } = Cfg.consequence_ic)

(* The committed profiles are data the CLI applies with [run --profile]:
   each must load, name a deterministic runtime, and reproduce its
   recorded tuned wall time exactly at its recorded threads and seed.
   The directory is found from [dune runtest]'s working directory
   (_build/default/test/tune) or from the project root. *)
let profile_dir =
  Option.value ~default:"tune/profiles"
    (List.find_opt Sys.file_exists [ "../../tune/profiles"; "tune/profiles" ])

let test_committed_profiles_reproduce () =
  let files =
    Sys.readdir profile_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tune.json")
    |> List.sort compare
  in
  check_int "one profile per registry workload" (List.length Workload.Registry.names)
    (List.length files);
  List.iter
    (fun file ->
      match P.load (Filename.concat profile_dir file) with
      | Error e -> Alcotest.failf "%s: %s" file e
      | Ok t -> (
          Alcotest.(check string) (file ^ " names its workload") (P.filename t) file;
          match R.of_name t.P.runtime with
          | Some (R.Det cfg) ->
              let r =
                R.run (R.Det (P.apply t cfg)) ~seed:t.P.seed ~nthreads:t.P.nthreads
                  (program_of t.P.workload)
              in
              check_int (file ^ " wall_tuned_ns") t.P.wall_tuned_ns r.Res.wall_ns
          | _ -> Alcotest.failf "%s: runtime %S is not a simulated deterministic runtime" file
                   t.P.runtime))
    files

(* --- end-to-end search ------------------------------------------------ *)

let test_quick_search_orderings_and_checks () =
  let r = Tune.Search.search ~nthreads:4 ~quick:true "histogram" in
  (* The hand grid is inside the search space, and its default point
     ties the untuned config exactly: both orderings are structural. *)
  check_bool "searched <= hand best" true
    (r.Tune.Search.wall_searched_ns <= r.Tune.Search.wall_hand_best_ns);
  check_bool "hand best <= default" true
    (r.Tune.Search.wall_hand_best_ns <= r.Tune.Search.wall_default_ns);
  check_bool "winner seed-stable" true r.Tune.Search.seed_stable;
  check_bool "winner replay-checked" true r.Tune.Search.replay_checked;
  check_bool "winner replay ok" true r.Tune.Search.replay_ok;
  check_bool "evaluations counted" true (r.Tune.Search.evaluations > 5);
  (* The saved profile reproduces the searched wall time when re-run. *)
  let tuned = P.apply (Tune.Search.to_profile r) Cfg.consequence_ic in
  let res = R.run (R.Det tuned) ~seed:1 ~nthreads:4 (program_of "histogram") in
  check_int "profile reproduces searched wall" r.Tune.Search.wall_searched_ns res.Res.wall_ns

let test_descent_improves_on_grid () =
  (* word_count's best grid point (hand-coarse) is not a local minimum:
     the descent must move off it, strictly faster, and its winner must
     be a valid point that reproduces the searched wall time. *)
  let r = Tune.Search.search ~check:false "word_count" in
  Alcotest.(check string) "moved" "descent" r.Tune.Search.searched_from;
  check_bool "strictly faster than hand best" true
    (r.Tune.Search.wall_searched_ns < r.Tune.Search.wall_hand_best_ns);
  check_bool "winner valid" true (P.validate r.Tune.Search.searched = Ok r.Tune.Search.searched);
  let res =
    R.run (R.Det (P.with_params r.Tune.Search.searched Cfg.consequence_ic)) ~seed:1 ~nthreads:8
      (program_of "word_count")
  in
  check_int "winner reproduces" r.Tune.Search.wall_searched_ns res.Res.wall_ns

let test_hand_default_grid_point_ties_untuned () =
  (* The keystone of the searched <= default guarantee, checked directly:
     the hand-default grid point is bit-identical to the untuned config
     — same witness, same simulated wall time. *)
  let name, params = List.hd Tune.Search.hand_grid in
  Alcotest.(check string) "first grid point" "hand-default" name;
  List.iter
    (fun name ->
      let prog = program_of name in
      List.iter
        (fun (rt, cfg) ->
          let base = R.run rt ~seed:1 ~nthreads:8 prog in
          let tuned = R.run (R.Det (P.with_params params cfg)) ~seed:1 ~nthreads:8 prog in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s witness" name cfg.Cfg.name)
            (Res.deterministic_witness base)
            (Res.deterministic_witness tuned);
          check_int
            (Printf.sprintf "%s/%s wall" name cfg.Cfg.name)
            base.Res.wall_ns tuned.Res.wall_ns)
        [
          (R.consequence_ic, Cfg.consequence_ic);
          (R.consequence_rr, Cfg.consequence_rr);
          (R.dthreads, Cfg.dthreads);
        ])
    [ "kmeans"; "histogram" ]

let () =
  Alcotest.run "tune"
    [
      ( "params",
        [
          Alcotest.test_case "validate rejects bad params" `Quick
            test_validate_rejects_bad_params;
          seeded prop_profile_json_roundtrip;
          seeded prop_profile_mutations_rejected;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "profile file round-trip" `Quick test_profile_file_roundtrip;
          Alcotest.test_case "profile for another workload rejected" `Quick
            test_profile_for_other_workload_rejected;
          Alcotest.test_case "profile apply" `Quick test_profile_apply;
          Alcotest.test_case "committed profiles reproduce" `Quick
            test_committed_profiles_reproduce;
        ] );
      ( "search",
        [
          Alcotest.test_case "quick search orderings + checks" `Quick
            test_quick_search_orderings_and_checks;
          Alcotest.test_case "descent improves on the grid" `Quick test_descent_improves_on_grid;
          Alcotest.test_case "hand-default ties untuned exactly" `Quick
            test_hand_default_grid_point_ties_untuned;
        ] );
    ]
