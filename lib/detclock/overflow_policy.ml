type kind =
  | Adaptive of { base : int; cap : int }
  | Fixed of int
  | Scripted of int array

type t = {
  kind : kind;
  mutable interval : int;
  mutable scheduled : int;
  mutable cursor : int;
}

let default_base = 5_000
let default_cap = 60_000

(* Returned when a scripted schedule is exhausted: far beyond any chunk
   length, so the thread publishes only at program-determined sync ops,
   but small enough that interval arithmetic cannot overflow. *)
let horizon = max_int lsr 1

let create kind =
  let interval =
    match kind with Adaptive { base; cap } -> min base cap | Fixed n -> n | Scripted _ -> horizon
  in
  if interval <= 0 then invalid_arg "Overflow_policy.create: interval must be > 0";
  (match kind with
  | Scripted b ->
      let ok = ref true in
      Array.iteri (fun i x -> if x <= 0 || (i > 0 && x <= b.(i - 1)) then ok := false) b;
      if not !ok then
        invalid_arg "Overflow_policy.create: scripted boundaries must be positive and ascending"
  | Adaptive _ | Fixed _ -> ());
  { kind; interval; scheduled = 0; cursor = 0 }

let kind t = t.kind

let begin_chunk t =
  match t.kind with
  | Adaptive { base; cap } -> t.interval <- min base cap
  | Fixed _ | Scripted _ -> ()

let next_interval ~ic t ~waiter_gap =
  t.scheduled <- t.scheduled + 1;
  match t.kind with
  | Fixed n -> n
  | Scripted b ->
      (* Forced-boundary replay (lib/replay): overflow exactly at the
         next recorded retired-instruction count, skipping boundaries the
         thread has already passed (a chunk-end counter read may have
         published at or beyond one). *)
      let n = Array.length b in
      while t.cursor < n && b.(t.cursor) <= ic do
        t.cursor <- t.cursor + 1
      done;
      if t.cursor < n then b.(t.cursor) - ic else horizon
  | Adaptive { cap; _ } ->
      if waiter_gap > 0 then begin
        (* Rule 2: overflow exactly when our clock exceeds the waiter's. *)
        t.interval <- waiter_gap;
        waiter_gap
      end
      else begin
        (* Rule 3: nobody to notify soon; back off exponentially, but
           bounded so waiters are never stranded behind a huge
           interval. *)
        let n = t.interval in
        t.interval <- min cap (t.interval * 2);
        n
      end

let overflows_scheduled t = t.scheduled
