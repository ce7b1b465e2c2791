type conflict = {
  cpage : int;
  first_byte : int;
  last_byte : int;
  loser_tid : int;
  loser_version : int;
}

type commit_info = {
  version : int;
  pages_committed : int;
  pages_merged : int;
  bytes_merged : int;
  committed_pages : int array;
  conflicts : conflict list;
}

type update_info = {
  from_version : int;
  to_version : int;
  pages_propagated : int;
  pages_refreshed : int;
}

type stats = {
  mutable write_faults : int;
  mutable pages_committed : int;
  mutable pages_merged : int;
  mutable bytes_merged : int;
  mutable pages_propagated : int;
  mutable pages_refreshed : int;
  mutable commits : int;
  mutable updates : int;
}

(* The thread's page table, in two levels.  Page [i] lives in slot
   [i land leaf_mask] of leaf [i lsr leaf_bits] of [dir]; a leaf is
   allocated the first time the thread touches one of its pages, so the
   table costs memory in proportion to the pages the thread touches, not
   to the segment size.  (A flat segment-sized table per thread lands on
   the major heap and is rebuilt for every thread of every run.)

   Resident local copies come in two flavors:
   - owned buffers the thread may mutate (every dirty page is owned);
   - aliases of immutable segment snapshots (bit [slot] of [aliased]),
     installed by commit and update so that clean pages cost no copy.
     An aliased page is copied lazily on the next write fault.
   A page is dirty exactly when its slot holds a twin. *)
let leaf_bits = 5
let leaf_size = 1 lsl leaf_bits
let leaf_mask = leaf_size - 1

type leaf = {
  local : Page.t array; (* resident copy, or [absent] *)
  twin : Page.t array; (* pristine pre-write copy of a dirty page, or [absent] *)
  mutable aliased : int; (* bit [slot]: [local.(slot)] is a segment snapshot *)
}

(* Sentinels: a slot holding [absent] is empty, a [dir] entry holding
   [no_leaf] has no leaf yet.  Compared with [==] only; real pages are
   never empty. *)
let absent : Page.t = Bytes.create 0
let no_leaf = { local = [||]; twin = [||]; aliased = 0 }

type t = {
  seg : Segment.t;
  tid : int;
  mutable base : Segment.version;
  dir : leaf array;
  (* Resident pages in fault order, for [update]'s refresh loop and
     [drop_residents]; [resident.(0 .. nresident-1)]. *)
  mutable resident : int array;
  mutable nresident : int;
  (* Dirty pages in fault order; [seal] sorts the prefix in place. *)
  mutable dirty : int array;
  mutable ndirty : int;
  mutable track_conflicts : bool;
  stats : stats;
}

let create seg ~tid =
  {
    seg;
    tid;
    base = Segment.current_version seg;
    dir = Array.make ((Segment.page_count seg + leaf_mask) lsr leaf_bits) no_leaf;
    resident = [||];
    nresident = 0;
    dirty = [||];
    ndirty = 0;
    track_conflicts = false;
    stats =
      {
        write_faults = 0;
        pages_committed = 0;
        pages_merged = 0;
        bytes_merged = 0;
        pages_propagated = 0;
        pages_refreshed = 0;
        commits = 0;
        updates = 0;
      };
  }

let tid t = t.tid
let segment t = t.seg
let base t = t.base
let stats t = t.stats
let is_dirty t = t.ndirty > 0
let dirty_count t = t.ndirty
let set_track_conflicts t on = t.track_conflicts <- on
let track_conflicts t = t.track_conflicts
let resident_pages t = t.nresident

let page_size t = Segment.page_size t.seg

let check_range t ~addr ~len =
  let limit = Segment.page_count t.seg * page_size t in
  if addr < 0 || len < 0 || addr + len > limit then
    invalid_arg
      (Printf.sprintf "Workspace: access [%d, %d) outside segment of %d bytes" addr (addr + len)
         limit)

(* Append to a grow-by-doubling page stack; returns the stack to store. *)
let push stack n i =
  let stack =
    if n < Array.length stack then stack
    else begin
      let grown = Array.make (max 8 (2 * n)) 0 in
      Array.blit stack 0 grown 0 n;
      grown
    end
  in
  stack.(n) <- i;
  stack

let leaf_of t i =
  let l = t.dir.(i lsr leaf_bits) in
  if l != no_leaf then l
  else begin
    let l =
      { local = Array.make leaf_size absent; twin = Array.make leaf_size absent; aliased = 0 }
    in
    t.dir.(i lsr leaf_bits) <- l;
    l
  end

(* The page content this thread currently sees for [i]: its own local copy
   if resident, else the committed snapshot at its base version. *)
let view_page t i =
  let l = t.dir.(i lsr leaf_bits) in
  let page = if l == no_leaf then absent else l.local.(i land leaf_mask) in
  if page != absent then page else Segment.read_page t.seg ~version:t.base i

(* Fault a page into the local workspace for writing: make sure the
   resident copy is an owned, mutable buffer, keep a twin with the
   pristine pre-write content for later diffing, mark dirty.  The twin
   never needs a copy when the pristine content is itself an immutable
   snapshot (first write to a non-resident or aliased page).  Returns the
   owned buffer. *)
let fault_for_write t i =
  let l = leaf_of t i in
  let slot = i land leaf_mask in
  if l.twin.(slot) != absent then l.local.(slot)
  else begin
    let page = l.local.(slot) in
    let bit = 1 lsl slot in
    let owned =
      if page == absent then begin
        let snap = Segment.read_page t.seg ~version:t.base i in
        t.resident <- push t.resident t.nresident i;
        t.nresident <- t.nresident + 1;
        l.twin.(slot) <- snap;
        Page.copy snap
      end
      else if l.aliased land bit <> 0 then begin
        l.aliased <- l.aliased land lnot bit;
        l.twin.(slot) <- page;
        Page.copy page
      end
      else begin
        l.twin.(slot) <- Page.copy page;
        page
      end
    in
    l.local.(slot) <- owned;
    t.dirty <- push t.dirty t.ndirty i;
    t.ndirty <- t.ndirty + 1;
    t.stats.write_faults <- t.stats.write_faults + 1;
    owned
  end

let read_into t ~addr out =
  let len = Bytes.length out in
  check_range t ~addr ~len;
  let psize = page_size t in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let pg = a / psize and off = a mod psize in
    let n = min (len - !pos) (psize - off) in
    Bytes.blit (view_page t pg) off out !pos n;
    pos := !pos + n
  done

let read t ~addr ~len =
  check_range t ~addr ~len;
  let out = Bytes.create len in
  read_into t ~addr out;
  out

let write t ~addr buf =
  let len = Bytes.length buf in
  check_range t ~addr ~len;
  let psize = page_size t in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let pg = a / psize and off = a mod psize in
    let n = min (len - !pos) (psize - off) in
    Bytes.blit buf !pos (fault_for_write t pg) off n;
    pos := !pos + n
  done

(* 8-byte accessors: the common case (the access stays inside one page)
   reads or writes the resident buffer directly, with no intermediate
   allocation; only page-spanning accesses fall back to the generic
   buffer-based path.  They are inlined into the int forms, so no
   [int64] is boxed on the way. *)
let[@inline] read_int64 t ~addr =
  check_range t ~addr ~len:8;
  let psize = page_size t in
  let off = addr mod psize in
  if off + 8 <= psize then Bytes.get_int64_le (view_page t (addr / psize)) off
  else Bytes.get_int64_le (read t ~addr ~len:8) 0

let[@inline] write_int64 t ~addr v =
  check_range t ~addr ~len:8;
  let psize = page_size t in
  let off = addr mod psize in
  if off + 8 <= psize then Bytes.set_int64_le (fault_for_write t (addr / psize)) off v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write t ~addr b
  end

let read_int t ~addr = Int64.to_int (read_int64 t ~addr)
let write_int t ~addr v = write_int64 t ~addr (Int64.of_int v)

type sealed = {
  sbase : int;  (* segment version the seal merged against *)
  sidxs : int array;  (* the dirty pages, ascending *)
  spages : Page.t array;  (* their snapshots, in the same order *)
  smerged : int;
  smerged_bytes : int;
  sconflicts : conflict list;
}

(* In-place heapsort of [a.(0 .. n-1)], ascending: the dirty stack is
   sorted where it lies.  ([Array.sort] would sort a copy, and its
   sift-down raises an allocated exception per step.) *)
let rec sift a i n =
  let c = (2 * i) + 1 in
  if c < n then begin
    let c = if c + 1 < n && a.(c + 1) > a.(c) then c + 1 else c in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift a c n
    end
  end

let sort_prefix a n =
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift a 0 last
  done

let seal t =
  let n = t.ndirty in
  let latest = Segment.current_version t.seg in
  if n = 0 then
    { sbase = latest; sidxs = [||]; spages = [||]; smerged = 0; smerged_bytes = 0; sconflicts = [] }
  else begin
    sort_prefix t.dirty n;
    let idxs = Array.sub t.dirty 0 n in
    let pages = Array.make n absent in
    let merged = ref 0 and merged_bytes = ref 0 in
    let conflicts = ref [] in
    for k = 0 to n - 1 do
      let i = idxs.(k) in
      let l = t.dir.(i lsr leaf_bits) and slot = i land leaf_mask in
      let local = l.local.(slot) in
      if Segment.last_mod t.seg i > t.base then begin
        (* A concurrent committer beat us to this page: byte-merge our
           modifications onto the newest committed copy. *)
        let target = Page.copy (Segment.read_page t.seg ~version:latest i) in
        let twin = l.twin.(slot) in
        (if t.track_conflicts then begin
           (* Capture before merge_into overwrites [target].  Pages are
              visited in ascending order, so consing then reversing keeps
              conflicts ordered by (page, first_byte). *)
           let loser_version = Segment.last_mod t.seg i in
           let loser_tid = Segment.committer_of t.seg loser_version in
           if loser_tid <> t.tid then
             List.iter
               (fun (first_byte, last_byte) ->
                 conflicts :=
                   { cpage = i; first_byte; last_byte; loser_tid; loser_version } :: !conflicts)
               (Page.conflict_runs ~twin ~local ~target)
         end);
        let nbytes = Page.merge_into ~twin ~local ~target in
        incr merged;
        merged_bytes := !merged_bytes + nbytes;
        pages.(k) <- target
      end
      else begin
        (* Unconflicted: hand the local buffer itself to the segment as
           the immutable snapshot and keep it resident as an alias — no
           copy.  The next write fault copies it back. *)
        l.aliased <- l.aliased lor (1 lsl slot);
        pages.(k) <- local
      end
    done;
    {
      sbase = latest;
      sidxs = idxs;
      spages = pages;
      smerged = !merged;
      smerged_bytes = !merged_bytes;
      sconflicts = List.rev !conflicts;
    }
  end

let sealed_pages s = Array.length s.sidxs
let sealed_merged s = s.smerged

let install t s =
  let committed = Array.length s.sidxs in
  if committed = 0 then
    {
      version = Segment.current_version t.seg;
      pages_committed = 0;
      pages_merged = 0;
      bytes_merged = 0;
      committed_pages = [||];
      conflicts = [];
    }
  else begin
    (* The seal merged against [sbase]; an intervening commit would make
       the sealed snapshots stale.  The runtime installs before releasing
       the token, so this can only trip on caller misuse. *)
    if Segment.current_version t.seg <> s.sbase then
      invalid_arg "Workspace.install: segment advanced since seal";
    let version = Segment.commit t.seg ~committer:t.tid ~idxs:s.sidxs ~pages:s.spages in
    for k = 0 to committed - 1 do
      let i = s.sidxs.(k) in
      t.dir.(i lsr leaf_bits).twin.(i land leaf_mask) <- absent
    done;
    t.ndirty <- 0;
    t.stats.commits <- t.stats.commits + 1;
    t.stats.pages_committed <- t.stats.pages_committed + committed;
    t.stats.pages_merged <- t.stats.pages_merged + s.smerged;
    t.stats.bytes_merged <- t.stats.bytes_merged + s.smerged_bytes;
    {
      version;
      pages_committed = committed;
      pages_merged = s.smerged;
      bytes_merged = s.smerged_bytes;
      committed_pages = s.sidxs;
      conflicts = s.sconflicts;
    }
  end

let commit t = install t (seal t)

let update t =
  if is_dirty t then invalid_arg "Workspace.update: dirty pages present; commit first";
  let from_version = t.base in
  let to_version = Segment.current_version t.seg in
  if to_version = from_version then
    { from_version; to_version; pages_propagated = 0; pages_refreshed = 0 }
  else begin
    let propagated = Segment.modified_since_by_others t.seg ~since:from_version ~tid:t.tid in
    let refreshed = ref 0 in
    (* Refresh stale residents: a resident copy of page [i] can only be
       out of date if some commit in (from_version, to_version] touched
       [i], i.e. if its last modifier is newer than our base — no need to
       materialize the modified-page list. *)
    for r = 0 to t.nresident - 1 do
      let i = t.resident.(r) in
      if Segment.last_mod t.seg i > from_version then begin
        let l = t.dir.(i lsr leaf_bits) and slot = i land leaf_mask in
        let fresh = Segment.read_page t.seg ~version:to_version i in
        if not (Page.equal l.local.(slot) fresh) then begin
          incr refreshed;
          l.local.(slot) <- fresh;
          l.aliased <- l.aliased lor (1 lsl slot)
        end
      end
    done;
    t.base <- to_version;
    t.stats.updates <- t.stats.updates + 1;
    t.stats.pages_propagated <- t.stats.pages_propagated + propagated;
    t.stats.pages_refreshed <- t.stats.pages_refreshed + !refreshed;
    { from_version; to_version; pages_propagated = propagated; pages_refreshed = !refreshed }
  end

let drop_residents t =
  if is_dirty t then invalid_arg "Workspace.drop_residents: dirty pages present";
  for r = 0 to t.nresident - 1 do
    let i = t.resident.(r) in
    let l = t.dir.(i lsr leaf_bits) in
    l.local.(i land leaf_mask) <- absent;
    l.aliased <- 0
  done;
  t.nresident <- 0
