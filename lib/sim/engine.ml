open Effect
open Effect.Deep

type tid = int

exception Deadlock of string
exception Stuck of string

(* Raised inside a fiber to unwind it; caught by the fiber wrapper. *)
exception Fiber_exit

(* Both effects are constant constructors, so performing one allocates
   nothing: the duration of an [Advance] and the reason of a [Block]
   travel on the fiber record instead of in the effect value. *)
type _ Effect.t += Advance : unit Effect.t
type _ Effect.t += Block : unit Effect.t

type _ Effect.t += Capture : unit Effect.t

(* A continuation that is never resumed: the value of a fiber's [cont]
   while it has nothing to resume.  It is a real suspended computation
   (captured once, here), so the field needs no option box. *)
let no_cont : (unit, unit) continuation =
  let captured = ref None in
  try_with perform Capture
    {
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Capture -> Some (fun (k : (unit, unit) continuation) -> captured := Some k)
          | _ -> None);
    };
  Option.get !captured

type fiber_state =
  | Ready (* an event in a queue will resume it *)
  | Running
  | Blocked (* [cont] holds the continuation, [reason] says why *)
  | Finished

(* What to run when a queued event for this fiber is dispatched is kept
   on the fiber record, so the event queues only carry fiber ids
   (immediate ints): scheduling an event allocates no closure and no heap
   entry. *)
type fiber = {
  id : tid;
  name : string;
  mutable state : fiber_state;
  mutable body : (unit -> unit) option; (* [Some] until the first dispatch runs it *)
  mutable cont : (unit, unit) continuation; (* what the next dispatch resumes, or [no_cont] *)
  mutable pending_wakeup : bool;
  mutable advance_ns : int; (* duration of the Advance being performed *)
  mutable reason : string; (* block reason; meaningful while Blocked *)
}

type t = {
  (* Dense fiber table: ids are handed out 0, 1, 2, ... so a flat array
     indexed by id replaces a hashtable on the dispatch hot path.  Slots
     >= next_id hold [dummy_fiber]. *)
  mutable fibers : fiber array;
  queue : tid Heap.t; (* events due at a future instant *)
  (* Ring buffer of events due at the current instant [now].  Entries are
     (fiber id, seq); their key is implicitly [now] — simulated time
     cannot advance while the ring is non-empty, because every heap entry
     is due no earlier.  Scheduling here is O(1) with no sift. *)
  mutable fifo_ids : int array;
  mutable fifo_seqs : int array;
  mutable fifo_head : int;
  mutable fifo_len : int;
  mutable next_seq : int; (* shared tie-break counter for heap + ring *)
  mutable now : int;
  mutable current : tid;
  mutable next_id : tid;
  mutable events : int;
  mutable dispatches : int;
  max_events : int;
  master_prng : Prng.t;
}

let dummy_fiber =
  {
    id = -1;
    name = "";
    state = Finished;
    body = None;
    cont = no_cont;
    pending_wakeup = false;
    advance_ns = 0;
    reason = "";
  }

let create ?(max_events = 50_000_000) ~seed () =
  {
    fibers = Array.make 16 dummy_fiber;
    queue = Heap.create ();
    fifo_ids = Array.make 16 0;
    fifo_seqs = Array.make 16 0;
    fifo_head = 0;
    fifo_len = 0;
    next_seq = 0;
    now = 0;
    current = -1;
    next_id = 0;
    events = 0;
    dispatches = 0;
    max_events;
    master_prng = Prng.create ~seed;
  }

let prng t = t.master_prng
let now t = t.now
let fiber_count t = t.next_id
let events t = t.events
let dispatches t = t.dispatches

let fiber_of t id =
  if id >= 0 && id < t.next_id then t.fibers.(id)
  else invalid_arg (Printf.sprintf "Engine: unknown fiber %d" id)

let name_of t id = (fiber_of t id).name

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* --- due-now ring ------------------------------------------------- *)

let fifo_push t id seq =
  let cap = Array.length t.fifo_ids in
  if t.fifo_len = cap then begin
    let ncap = cap * 2 in
    let ids = Array.make ncap 0 and seqs = Array.make ncap 0 in
    for i = 0 to t.fifo_len - 1 do
      let j = (t.fifo_head + i) land (cap - 1) in
      ids.(i) <- t.fifo_ids.(j);
      seqs.(i) <- t.fifo_seqs.(j)
    done;
    t.fifo_ids <- ids;
    t.fifo_seqs <- seqs;
    t.fifo_head <- 0
  end;
  let cap = Array.length t.fifo_ids in
  let i = (t.fifo_head + t.fifo_len) land (cap - 1) in
  t.fifo_ids.(i) <- id;
  t.fifo_seqs.(i) <- seq;
  t.fifo_len <- t.fifo_len + 1

let fifo_pop t =
  let id = t.fifo_ids.(t.fifo_head) in
  t.fifo_head <- (t.fifo_head + 1) land (Array.length t.fifo_ids - 1);
  t.fifo_len <- t.fifo_len - 1;
  id

(* --- scheduling ---------------------------------------------------- *)

(* Make [fiber] runnable at the current instant: same-timestamp fast
   path, skipping the heap entirely. *)
let schedule_now t fiber =
  fiber.state <- Ready;
  fifo_push t fiber.id (fresh_seq t)

let schedule_at t fiber ~key =
  fiber.state <- Ready;
  if key = t.now then fifo_push t fiber.id (fresh_seq t)
  else Heap.push_seq t.queue ~key ~seq:(fresh_seq t) fiber.id

(* The two effect handlers are built once per fiber, not once per
   perform: each is a closure over [fiber] wrapped in its [Some]. *)
let run_fiber t fiber body =
  let on_advance =
    Some
      (fun (k : (unit, unit) continuation) ->
        fiber.cont <- k;
        schedule_at t fiber ~key:(t.now + fiber.advance_ns))
  in
  let on_block =
    Some
      (fun (k : (unit, unit) continuation) ->
        fiber.cont <- k;
        if fiber.pending_wakeup then begin
          (* A wakeup arrived before we blocked: consume the permit and
             resume at the current instant. *)
          fiber.pending_wakeup <- false;
          schedule_now t fiber
        end
        else fiber.state <- Blocked)
  in
  match_with
    (fun () -> (try body () with Fiber_exit -> ()))
    ()
    {
      retc = (fun () -> fiber.state <- Finished);
      exnc =
        (fun e ->
          fiber.state <- Finished;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with Advance -> on_advance | Block -> on_block | _ -> None);
    }

let spawn t ?name body =
  let id = t.next_id in
  t.next_id <- id + 1;
  let name = match name with Some n -> n | None -> Printf.sprintf "fiber-%d" id in
  let fiber =
    {
      id;
      name;
      state = Ready;
      body = Some body;
      cont = no_cont;
      pending_wakeup = false;
      advance_ns = 0;
      reason = "";
    }
  in
  let cap = Array.length t.fibers in
  if id >= cap then begin
    let grown = Array.make (cap * 2) dummy_fiber in
    Array.blit t.fibers 0 grown 0 cap;
    t.fibers <- grown
  end;
  t.fibers.(id) <- fiber;
  schedule_now t fiber;
  id

let wakeup t id =
  let fiber = fiber_of t id in
  match fiber.state with
  | Blocked -> schedule_now t fiber
  | Finished -> ()
  | Ready | Running -> fiber.pending_wakeup <- true

let blocked_reason t id =
  let fiber = fiber_of t id in
  match fiber.state with
  | Blocked -> Some fiber.reason
  | Ready | Running | Finished -> None

let is_finished t id = (fiber_of t id).state = Finished

let self t =
  if t.current < 0 then invalid_arg "Engine.self: no fiber is running";
  t.current

let advance t ns =
  if ns < 0 then invalid_arg "Engine.advance: negative duration";
  (* Solo fast path: when the due-now ring is empty and every heap event
     is due strictly after [now + ns], the Advance event would be pushed
     and immediately popped with no other dispatch in between — the
     schedule is identical if we bump the clock in place and keep
     running, skipping the effect round-trip entirely.  (Strictness
     matters: an event already queued at exactly [now + ns] carries a
     smaller seq and must run before our continuation.) *)
  if
    t.fifo_len = 0
    && (Heap.is_empty t.queue || Heap.top_key_exn t.queue > t.now + ns)
  then begin
    (* A skipped Advance still counts against the event budget, so a
       fiber spinning in an advance loop with everyone else blocked
       raises Stuck exactly as it would through the queue. *)
    t.events <- t.events + 1;
    if t.events >= t.max_events then
      raise
        (Stuck
           (Printf.sprintf "event budget (%d) exhausted at t=%dns" t.max_events t.now));
    t.now <- t.now + ns
  end
  else begin
    t.fibers.(self t).advance_ns <- ns;
    perform Advance
  end

let block t ~reason =
  t.fibers.(self t).reason <- reason;
  perform Block

let exit_fiber _t = raise Fiber_exit

let stuck_fibers t =
  let acc = ref [] in
  for id = t.next_id - 1 downto 0 do
    let fiber = t.fibers.(id) in
    match fiber.state with
    | Blocked -> acc := (fiber.name, fiber.reason) :: !acc
    | Ready | Running | Finished -> ()
  done;
  !acc

let dispatch t id =
  t.dispatches <- t.dispatches + 1;
  let fiber = Array.unsafe_get t.fibers id in
  let k = fiber.cont in
  fiber.cont <- no_cont;
  fiber.state <- Running;
  t.current <- id;
  match fiber.body with
  | Some body ->
      fiber.body <- None;
      run_fiber t fiber body
  | None ->
      assert (k != no_cont);
      continue k ()

let run t =
  let rec loop () =
    if t.events >= t.max_events then
      raise
        (Stuck
           (Printf.sprintf "event budget (%d) exhausted at t=%dns" t.max_events
              t.now));
    if t.fifo_len = 0 && Heap.is_empty t.queue then begin
      let stuck = stuck_fibers t in
      if stuck <> [] then
        let detail =
          stuck
          |> List.sort compare
          |> List.map (fun (name, reason) -> Printf.sprintf "%s (%s)" name reason)
          |> String.concat ", "
        in
        raise (Deadlock detail)
    end
    else begin
      t.events <- t.events + 1;
      (* The next event is the smaller of (ring head, heap root) in
         (key, seq) order; every ring entry has key = now. *)
      let use_ring =
        t.fifo_len > 0
        && (Heap.is_empty t.queue
           || Heap.top_key_exn t.queue > t.now
           || Heap.top_seq_exn t.queue > t.fifo_seqs.(t.fifo_head))
      in
      let id =
        if use_ring then fifo_pop t
        else begin
          let key = Heap.top_key_exn t.queue in
          (* Simulated time is monotone: an event can never run before an
             already-dispatched one. *)
          if key > t.now then t.now <- key;
          Heap.pop_min_exn t.queue
        end
      in
      dispatch t id;
      loop ()
    end
  in
  loop ()
