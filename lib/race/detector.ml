module Vc = Hb.Vector_clock
module Ev = Runtime.Rt_event

type mode = Epoch | Full_vector

type verdict = Racy | Sync_ordered

type finding = {
  event : Ev.t;
  verdict : verdict;
  winner_clock : Vc.t;
  via : string option;
}

type t = {
  dmode : mode;
  thread_vc : (int, Vc.t) Hashtbl.t;
  obj_vc : (string, Vc.t) Hashtbl.t;
  (* Full_vector only: (tid, k) -> the clock thread [tid] published at
     its k-th Release.  The k-th published clock has own component k, so
     the Epoch verdict below is a single-lookup shortcut over this
     history. *)
  released : (int * int, Vc.t) Hashtbl.t;
  released_count : (int, int) Hashtbl.t;
  last_acq : (int, string) Hashtbl.t;
  mutable findings_rev : finding list;
  mutable n_events : int;
  mutable n_racy : int;
  mutable n_sync : int;
  mutable bytes_all : int;
  mutable bytes_racy : int;
  reg : Obs.Metrics.t;
  m_racy : Obs.Metrics.counter;
  m_sync : Obs.Metrics.counter;
  m_events : Obs.Metrics.counter;
  m_bytes : Obs.Metrics.histogram;
}

let create ?(mode = Epoch) () =
  let reg = Obs.Metrics.create () in
  {
    dmode = mode;
    thread_vc = Hashtbl.create 16;
    obj_vc = Hashtbl.create 64;
    released = Hashtbl.create 256;
    released_count = Hashtbl.create 16;
    last_acq = Hashtbl.create 16;
    findings_rev = [];
    n_events = 0;
    n_racy = 0;
    n_sync = 0;
    bytes_all = 0;
    bytes_racy = 0;
    reg;
    m_racy = Obs.Metrics.counter reg "race:racy";
    m_sync = Obs.Metrics.counter reg "race:sync_ordered";
    m_events = Obs.Metrics.counter reg "race:events";
    m_bytes = Obs.Metrics.histogram reg "race:conflict_bytes";
  }

let mode t = t.dmode

(* A thread's clock starts with its own component at 1: its first
   Release publishes epoch 1 before bumping to 2, matching the
   release-epochs runtimes stamp conflict losers with. *)
let initial_vc tid = Vc.set Vc.empty tid 1

let thread_vc t tid =
  match Hashtbl.find_opt t.thread_vc tid with Some vc -> vc | None -> initial_vc tid

let obj_vc t obj =
  match Hashtbl.find_opt t.obj_vc obj with Some vc -> vc | None -> Vc.empty

let released_count t tid =
  match Hashtbl.find_opt t.released_count tid with Some n -> n | None -> 0

let observer t ev =
  match ev with
  | Ev.Boundary _ | Ev.Commit_hash _ | Ev.Txn_abort _ ->
      (* Scheduling/replay bookkeeping, not happens-before edges: keep
         the detector's event accounting identical to pre-replay runs. *)
      ()
  | Ev.Release _ | Ev.Acquire _ | Ev.Commit _ | Ev.Conflict _ -> (
  t.n_events <- t.n_events + 1;
  Obs.Metrics.count t.m_events 1;
  match ev with
  | Ev.Boundary _ | Ev.Commit_hash _ | Ev.Txn_abort _ -> ()
  | Ev.Release { tid; obj } ->
      let c = thread_vc t tid in
      if t.dmode = Full_vector then begin
        let n = released_count t tid in
        Hashtbl.replace t.released (tid, n + 1) c;
        Hashtbl.replace t.released_count tid (n + 1)
      end;
      Hashtbl.replace t.obj_vc obj (Vc.join (obj_vc t obj) c);
      Hashtbl.replace t.thread_vc tid (Vc.set c tid (Vc.get c tid + 1))
  | Ev.Acquire { tid; obj } ->
      Hashtbl.replace t.last_acq tid obj;
      Hashtbl.replace t.thread_vc tid (Vc.join (thread_vc t tid) (obj_vc t obj))
  | Ev.Commit _ ->
      (* Chunk boundaries are stamped runtime-side (the loser epoch on
         each Conflict), so commits carry no clock state here. *)
      ()
  | Ev.Conflict { tid = w; version = _; page = _; first_byte; last_byte; loser_tid; loser_version }
    ->
      let cw = thread_vc t w in
      (* [loser_version] is the loser's release epoch at the start of the
         chunk that wrote the bytes: the chunks are ordered iff the
         winner has seen that release or a later one of the same thread.
         Epoch mode reads that off the winner's component for the loser;
         Full_vector mode replays the loser's release history — the
         naive oracle the qcheck suite checks the shortcut against. *)
      let ordered =
        match t.dmode with
        | Epoch -> Vc.get cw loser_tid >= loser_version
        | Full_vector ->
            let n = released_count t loser_tid in
            let rec scan j =
              j <= n
              && (Vc.leq (Hashtbl.find t.released (loser_tid, j)) cw || scan (j + 1))
            in
            scan loser_version
      in
      let nbytes = last_byte - first_byte + 1 in
      t.bytes_all <- t.bytes_all + nbytes;
      Obs.Metrics.record t.m_bytes nbytes;
      let verdict =
        if ordered then begin
          t.n_sync <- t.n_sync + 1;
          Obs.Metrics.count t.m_sync 1;
          Sync_ordered
        end
        else begin
          t.n_racy <- t.n_racy + 1;
          t.bytes_racy <- t.bytes_racy + nbytes;
          Obs.Metrics.count t.m_racy 1;
          Racy
        end
      in
      t.findings_rev <-
        { event = ev; verdict; winner_clock = cw; via = Hashtbl.find_opt t.last_acq w }
        :: t.findings_rev)

let findings t = List.rev t.findings_rev
let events t = t.n_events
let conflicts t = t.n_racy + t.n_sync
let racy t = t.n_racy
let sync_ordered t = t.n_sync
let conflict_bytes t = t.bytes_all
let racy_bytes t = t.bytes_racy
let metrics t = Obs.Metrics.snapshot t.reg
