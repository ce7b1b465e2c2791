(* Clock registry with two incremental indexes:

   - the {e active} index, a binary min-heap keyed by (published, tid)
     over live non-departed clocks, so [gmic]/[is_gmic] are O(1) root
     reads instead of a Hashtbl fold per query;
   - the {e waiting} index, the same structure restricted to clocks the
     token has marked as waiting, so the adaptive-overflow gap query is
     also O(1).

   Every mutation ([tick], [fast_forward], [depart], [arrive], [finish],
   [set_waiting]) maintains both heaps in O(log n).  Clocks carry their
   positions in each heap, so removal and re-keying need no search. *)

type clock = {
  tid : int;
  mutable published : int;
  mutable paused : bool;
  mutable departed : bool;
  mutable finished : bool;
  mutable waiting : bool; (* marked by the token while in Token.wait *)
  pos : int array; (* [| active slot; waiting slot |]; -1 = absent *)
  owner : registry;
}

and registry = { clocks : (int, clock) Hashtbl.t; active : index; waitq : index }

and index = { slot : int; mutable heap : clock array; mutable size : int }

type t = registry

let slot_active = 0
let slot_waiting = 1

(* ------------------------------------------------------------------ *)
(* Indexed binary heap over (published, tid)                          *)
(* ------------------------------------------------------------------ *)

let lt a b = a.published < b.published || (a.published = b.published && a.tid < b.tid)

let ix_place ix i c =
  ix.heap.(i) <- c;
  c.pos.(ix.slot) <- i

let rec ix_sift_up ix i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if lt ix.heap.(i) ix.heap.(p) then begin
      let ci = ix.heap.(i) and cp = ix.heap.(p) in
      ix_place ix i cp;
      ix_place ix p ci;
      ix_sift_up ix p
    end
  end

let rec ix_sift_down ix i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < ix.size && lt ix.heap.(l) ix.heap.(i) then l else i in
  let m = if r < ix.size && lt ix.heap.(r) ix.heap.(m) then r else m in
  if m <> i then begin
    let ci = ix.heap.(i) and cm = ix.heap.(m) in
    ix_place ix i cm;
    ix_place ix m ci;
    ix_sift_down ix m
  end

let ix_insert ix c =
  if c.pos.(ix.slot) < 0 then begin
    if ix.size = Array.length ix.heap then begin
      let new_cap = if ix.size = 0 then 8 else ix.size * 2 in
      let fresh = Array.make new_cap c in
      Array.blit ix.heap 0 fresh 0 ix.size;
      ix.heap <- fresh
    end;
    ix_place ix ix.size c;
    ix.size <- ix.size + 1;
    ix_sift_up ix (ix.size - 1)
  end

let ix_remove ix c =
  let p = c.pos.(ix.slot) in
  if p >= 0 then begin
    c.pos.(ix.slot) <- -1;
    ix.size <- ix.size - 1;
    if p < ix.size then begin
      ix_place ix p ix.heap.(ix.size);
      (* The moved entry may violate the heap property in either
         direction relative to its new neighbourhood. *)
      ix_sift_down ix p;
      ix_sift_up ix p
    end
  end

(* The clock's key grew (tick / fast_forward): restore heap order
   downward only. *)
let ix_key_increased ix c =
  let p = c.pos.(ix.slot) in
  if p >= 0 then ix_sift_down ix p

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

let create () =
  {
    clocks = Hashtbl.create 32;
    active = { slot = slot_active; heap = [||]; size = 0 };
    waitq = { slot = slot_waiting; heap = [||]; size = 0 };
  }

let register t ~tid =
  (match Hashtbl.find_opt t.clocks tid with
  | Some c when not c.finished ->
      invalid_arg (Printf.sprintf "Logical_clock.register: tid %d already live" tid)
  | Some _ | None -> ());
  let c =
    {
      tid;
      published = 0;
      paused = false;
      departed = false;
      finished = false;
      waiting = false;
      pos = [| -1; -1 |];
      owner = t;
    }
  in
  Hashtbl.replace t.clocks tid c;
  ix_insert t.active c;
  c

let tid c = c.tid
let published c = c.published

let tick c n =
  if c.paused then invalid_arg "Logical_clock.tick: clock is paused";
  if c.finished then invalid_arg "Logical_clock.tick: clock is finished";
  if n < 0 then invalid_arg "Logical_clock.tick: negative tick";
  c.published <- c.published + n;
  ix_key_increased c.owner.active c;
  ix_key_increased c.owner.waitq c

let pause c = c.paused <- true
let resume c = c.paused <- false
let is_paused c = c.paused

let depart c =
  if not c.departed then begin
    c.departed <- true;
    ix_remove c.owner.active c;
    ix_remove c.owner.waitq c
  end

let arrive c =
  if c.departed then begin
    c.departed <- false;
    if not c.finished then begin
      ix_insert c.owner.active c;
      if c.waiting then ix_insert c.owner.waitq c
    end
  end

let is_departed c = c.departed

let finish c =
  if not c.finished then begin
    c.finished <- true;
    c.waiting <- false;
    ix_remove c.owner.active c;
    ix_remove c.owner.waitq c
  end

let is_finished c = c.finished

let fast_forward c ~to_count =
  if to_count > c.published then begin
    c.published <- to_count;
    ix_key_increased c.owner.active c;
    ix_key_increased c.owner.waitq c;
    true
  end
  else false

let active c = (not c.finished) && not c.departed

(* Lexicographic (published, tid) minimum over active clocks: the root
   of the active index. *)
let gmic t = if t.active.size = 0 then None else Some t.active.heap.(0).tid

let gmic_tid t = if t.active.size = 0 then -1 else t.active.heap.(0).tid

(* The per-operation queries below use [Hashtbl.find] rather than
   [find_opt]: a hit allocates no option. *)
let is_active t ~tid =
  match Hashtbl.find t.clocks tid with c -> active c | exception Not_found -> false

let is_gmic t ~tid = t.active.size > 0 && t.active.heap.(0).tid = tid

let published_or t ~tid ~default =
  match Hashtbl.find t.clocks tid with
  | c -> if c.finished then default else c.published
  | exception Not_found -> default

(* ------------------------------------------------------------------ *)
(* Token-waiter index                                                 *)
(* ------------------------------------------------------------------ *)

let set_waiting t ~tid waiting =
  match Hashtbl.find t.clocks tid with
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Logical_clock.set_waiting: unknown tid %d" tid)
  | c ->
      if waiting && not c.finished then begin
        c.waiting <- true;
        if not c.departed then ix_insert t.waitq c
      end
      else begin
        c.waiting <- false;
        ix_remove t.waitq c
      end

let is_waiting t ~tid =
  match Hashtbl.find t.clocks tid with
  | c -> c.pos.(slot_waiting) >= 0
  | exception Not_found -> false

let waiting_count t = t.waitq.size

let next_waiting_gap t ~tid =
  let n = t.waitq.size in
  if n = 0 then 0
  else begin
    (* Minimal (published, tid) among waiters other than [tid]; when
       [tid] is the root, the runner-up is one of its two children. *)
    let w =
      let root = t.waitq.heap.(0) in
      if root.tid <> tid then root
      else if n = 1 then root
      else begin
        let l = t.waitq.heap.(1) in
        if n > 2 && lt t.waitq.heap.(2) l then t.waitq.heap.(2) else l
      end
    in
    if w.tid = tid then 0
    else
      match Hashtbl.find t.clocks tid with
      | me -> w.published - me.published + 1
      | exception Not_found -> 0
  end

(* ------------------------------------------------------------------ *)
(* Round-robin successor                                              *)
(* ------------------------------------------------------------------ *)

(* First active tid >= turn, wrapping to the smallest active tid; -1 if
   no clock is active.  A single scan over the active index's backing
   array: no list is built (the index is unordered by tid, so a scan is
   as good as it gets without a third index — n is the thread count). *)
let rr_successor t ~turn =
  let best_ge = ref max_int and best_all = ref max_int in
  for i = 0 to t.active.size - 1 do
    let tid = t.active.heap.(i).tid in
    if tid < !best_all then best_all := tid;
    if tid >= turn && tid < !best_ge then best_ge := tid
  done;
  if !best_ge < max_int then !best_ge else if !best_all < max_int then !best_all else -1

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let live_count t =
  Hashtbl.fold (fun _ c n -> if c.finished then n else n + 1) t.clocks 0

let active_count t = t.active.size

let counts t =
  Hashtbl.fold (fun _ c acc -> if c.finished then acc else (c.tid, c.published) :: acc) t.clocks []
  |> List.sort compare
