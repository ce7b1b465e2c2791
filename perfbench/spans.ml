(* In-memory span recorder for the traced run.

   A span is opened around each call the benchmark makes into a layer's
   public entry point.  Spans nest through an explicit parent stack, carry
   the counts their call returned, and stay in memory until the run ends,
   when [to_json] renders them for the spans file.  With recording off,
   [with_span] is a direct call, so the untraced run pays nothing. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;  (** the entry point, e.g. ["Run.run"] *)
  layer : string;  (** the library module it belongs to *)
  label : string;  (** program / preset / threads of the call *)
  workload : string;  (** workload id: workload name and pass number *)
  start_ns : int;
  end_ns : int;
  counts : (string * float) list;
}

let enabled = ref false
let workload = ref ""
let recorded : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let with_span ~layer ~name ?(label = "") ?(counts = fun _ -> []) f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start_ns = now_ns () in
    let close counts =
      let end_ns = now_ns () in
      stack := List.tl !stack;
      recorded :=
        { id; parent; name; layer; label; workload = !workload; start_ns; end_ns; counts }
        :: !recorded
    in
    match f () with
    | v ->
        close (counts v);
        v
    | exception e ->
        close [ ("raised", 1.0) ];
        raise e
  end

let all () = List.rev !recorded
let duration s = s.end_ns - s.start_ns

(* Self time: a span's duration minus the time its direct children
   cover.  Children never overlap (calls are sequential), so summing
   their durations is exact. *)
let self_times spans =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (duration s + Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0))
    spans;
  List.map
    (fun s -> (s, duration s - Option.value (Hashtbl.find_opt child_ns s.id) ~default:0))
    spans

let to_json spans =
  let open Obs.Json in
  List
    (List.map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("parent", Int s.parent);
             ("name", String s.name);
             ("layer", String s.layer);
             ("label", String s.label);
             ("workload", String s.workload);
             ("start_ns", Int s.start_ns);
             ("end_ns", Int s.end_ns);
             ("counts", Obj (List.map (fun (k, v) -> (k, Float v)) s.counts));
           ])
       spans)
