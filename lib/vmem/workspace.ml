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
  committed_pages : int list;
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

(* Resident local copies come in two flavors:
   - owned buffers the thread may mutate (every dirty page is owned);
   - aliases of immutable segment snapshots ([aliased] holds their
     indices), installed by commit and update so that clean pages cost no
     copy.  An aliased page is copied lazily on the next write fault. *)
type t = {
  seg : Segment.t;
  tid : int;
  mutable base : Segment.version;
  local : (int, Page.t) Hashtbl.t; (* resident local copies *)
  aliased : (int, unit) Hashtbl.t; (* local entries that alias snapshots *)
  twins : (int, Page.t) Hashtbl.t; (* pristine copies of dirty pages *)
  dirty : (int, unit) Hashtbl.t;
  mutable track_conflicts : bool;
  stats : stats;
}

let create seg ~tid =
  {
    seg;
    tid;
    base = Segment.current_version seg;
    local = Hashtbl.create 64;
    aliased = Hashtbl.create 64;
    twins = Hashtbl.create 16;
    dirty = Hashtbl.create 16;
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
let is_dirty t = Hashtbl.length t.dirty > 0
let dirty_count t = Hashtbl.length t.dirty
let set_track_conflicts t on = t.track_conflicts <- on
let track_conflicts t = t.track_conflicts
let resident_pages t = Hashtbl.length t.local

let page_size t = Segment.page_size t.seg

let check_range t ~addr ~len =
  let limit = Segment.page_count t.seg * page_size t in
  if addr < 0 || len < 0 || addr + len > limit then
    invalid_arg
      (Printf.sprintf "Workspace: access [%d, %d) outside segment of %d bytes" addr (addr + len)
         limit)

(* The page content this thread currently sees for [i]: its own local copy
   if resident, else the committed snapshot at its base version. *)
let view_page t i =
  match Hashtbl.find_opt t.local i with
  | Some page -> page
  | None -> Segment.read_page t.seg ~version:t.base i

(* Fault a page into the local workspace for writing: make sure the
   resident copy is an owned, mutable buffer, keep a twin with the
   pristine pre-write content for later diffing, mark dirty.  The twin
   never needs a copy when the pristine content is itself an immutable
   snapshot (first write to a non-resident or aliased page). *)
let fault_for_write t i =
  if not (Hashtbl.mem t.dirty i) then begin
    (match Hashtbl.find_opt t.local i with
    | Some page ->
        if Hashtbl.mem t.aliased i then begin
          Hashtbl.replace t.local i (Page.copy page);
          Hashtbl.remove t.aliased i;
          Hashtbl.replace t.twins i page
        end
        else Hashtbl.replace t.twins i (Page.copy page)
    | None ->
        let snap = Segment.read_page t.seg ~version:t.base i in
        Hashtbl.replace t.local i (Page.copy snap);
        Hashtbl.replace t.twins i snap);
    Hashtbl.replace t.dirty i ();
    t.stats.write_faults <- t.stats.write_faults + 1
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
    fault_for_write t pg;
    Bytes.blit buf !pos (Hashtbl.find t.local pg) off n;
    pos := !pos + n
  done

(* 8-byte accessors: the common case (the access stays inside one page)
   reads or writes the resident buffer directly, with no intermediate
   allocation; only page-spanning accesses fall back to the generic
   buffer-based path. *)
let read_int64 t ~addr =
  check_range t ~addr ~len:8;
  let psize = page_size t in
  let off = addr mod psize in
  if off + 8 <= psize then Bytes.get_int64_le (view_page t (addr / psize)) off
  else begin
    let b = read t ~addr ~len:8 in
    Bytes.get_int64_le b 0
  end

let write_int64 t ~addr v =
  check_range t ~addr ~len:8;
  let psize = page_size t in
  let off = addr mod psize in
  if off + 8 <= psize then begin
    let pg = addr / psize in
    fault_for_write t pg;
    Bytes.set_int64_le (Hashtbl.find t.local pg) off v
  end
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write t ~addr b
  end

let read_int t ~addr = Int64.to_int (read_int64 t ~addr)
let write_int t ~addr v = write_int64 t ~addr (Int64.of_int v)

type sealed = {
  sbase : int;  (* segment version the seal merged against *)
  spages : (int * Page.t) list;
  sdirty : int list;
  smerged : int;
  smerged_bytes : int;
  sconflicts : conflict list;
}

let seal t =
  let dirty =
    Hashtbl.fold (fun i () acc -> i :: acc) t.dirty []
    |> List.sort (fun (a : int) b -> compare a b)
  in
  match dirty with
  | [] ->
      {
        sbase = Segment.current_version t.seg;
        spages = [];
        sdirty = [];
        smerged = 0;
        smerged_bytes = 0;
        sconflicts = [];
      }
  | _ ->
      let latest = Segment.current_version t.seg in
      let merged = ref 0 and merged_bytes = ref 0 in
      let conflicts = ref [] in
      let snapshots =
        List.map
          (fun i ->
            let local = Hashtbl.find t.local i in
            if Segment.last_mod t.seg i > t.base then begin
              (* A concurrent committer beat us to this page: byte-merge our
                 modifications onto the newest committed copy. *)
              let target = Page.copy (Segment.read_page t.seg ~version:latest i) in
              let twin = Hashtbl.find t.twins i in
              (if t.track_conflicts then begin
                 (* Capture before merge_into overwrites [target].  The
                    dirty list is ascending, so appending keeps conflicts
                    ordered by (page, first_byte). *)
                 let loser_version = Segment.last_mod t.seg i in
                 let loser_tid = Segment.committer_of t.seg loser_version in
                 if loser_tid <> t.tid then
                   List.iter
                     (fun (first_byte, last_byte) ->
                       conflicts :=
                         { cpage = i; first_byte; last_byte; loser_tid; loser_version }
                         :: !conflicts)
                     (Page.conflict_runs ~twin ~local ~target)
               end);
              let nbytes = Page.merge_into ~twin ~local ~target in
              incr merged;
              merged_bytes := !merged_bytes + nbytes;
              (i, target)
            end
            else begin
              (* Unconflicted: hand the local buffer itself to the segment
                 as the immutable snapshot and keep it resident as an
                 alias — no copy.  The next write fault copies it back. *)
              Hashtbl.replace t.aliased i ();
              (i, local)
            end)
          dirty
      in
      {
        sbase = latest;
        spages = snapshots;
        sdirty = dirty;
        smerged = !merged;
        smerged_bytes = !merged_bytes;
        sconflicts = List.rev !conflicts;
      }

let sealed_pages s = List.length s.sdirty
let sealed_merged s = s.smerged

let install t s =
  match s.sdirty with
  | [] ->
      {
        version = Segment.current_version t.seg;
        pages_committed = 0;
        pages_merged = 0;
        bytes_merged = 0;
        committed_pages = [];
        conflicts = [];
      }
  | _ ->
      (* The seal merged against [sbase]; an intervening commit would make
         the sealed snapshots stale.  The runtime installs before releasing
         the token, so this can only trip on caller misuse. *)
      if Segment.current_version t.seg <> s.sbase then
        invalid_arg "Workspace.install: segment advanced since seal";
      let version = Segment.commit t.seg ~committer:t.tid ~pages:s.spages in
      let committed = List.length s.sdirty in
      Hashtbl.reset t.dirty;
      Hashtbl.reset t.twins;
      t.stats.commits <- t.stats.commits + 1;
      t.stats.pages_committed <- t.stats.pages_committed + committed;
      t.stats.pages_merged <- t.stats.pages_merged + s.smerged;
      t.stats.bytes_merged <- t.stats.bytes_merged + s.smerged_bytes;
      {
        version;
        pages_committed = committed;
        pages_merged = s.smerged;
        bytes_merged = s.smerged_bytes;
        committed_pages = s.sdirty;
        conflicts = s.sconflicts;
      }

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
    Hashtbl.filter_map_inplace
      (fun i local ->
        if Segment.last_mod t.seg i > from_version then begin
          let fresh = Segment.read_page t.seg ~version:to_version i in
          if not (Page.equal local fresh) then begin
            incr refreshed;
            Hashtbl.replace t.aliased i ();
            Some fresh
          end
          else Some local
        end
        else Some local)
      t.local;
    t.base <- to_version;
    t.stats.updates <- t.stats.updates + 1;
    t.stats.pages_propagated <- t.stats.pages_propagated + propagated;
    t.stats.pages_refreshed <- t.stats.pages_refreshed + !refreshed;
    { from_version; to_version; pages_propagated = propagated; pages_refreshed = !refreshed }
  end

let drop_residents t =
  if is_dirty t then invalid_arg "Workspace.drop_residents: dirty pages present";
  Hashtbl.reset t.local;
  Hashtbl.reset t.aliased;
  Hashtbl.reset t.twins
