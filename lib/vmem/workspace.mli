(** Per-thread isolated view of a {!Segment} — the software store buffer.

    Between synchronization operations a thread reads and writes only
    through its workspace (paper section 2.5):

    - reads of untouched pages come from the segment snapshot at the
      workspace's {e base version}, so remote commits stay invisible until
      an explicit {!update};
    - the first write to a page in a chunk triggers a simulated
      copy-on-write fault: the page is copied locally and a pristine
      {e twin} is kept for byte-granularity merging at commit;
    - subsequent reads of a dirty page see the thread's own writes — the
      store-buffer forwarding that TSO permits (a thread may observe its
      own stores before they are globally visible).

    {!commit} publishes the dirty pages as a new segment version (merging
    byte-wise against concurrent committers, last-writer-wins) and
    {!update} advances the base version to the newest committed one.
    Together they implement the paper's [convCommitAndUpdateMem()].

    Clean resident pages may internally {e alias} immutable segment
    snapshots instead of holding private copies: an unconflicted commit
    hands its buffer to the segment and keeps reading it in place, and
    an update that must refresh a stale resident simply re-points it at
    the fresh snapshot.  The next write fault copies the page back into
    private ownership, so the observable semantics (and all counters)
    are exactly those of the always-copy scheme, minus the copies.

    {2 Page table}

    The workspace is the thread's page table, kept in two levels like a
    hardware one.  Page [i] maps to slot [i mod 32] of leaf [i / 32]; a
    leaf holds the 32 slots' resident copies and twins (a page is dirty
    exactly when its slot holds a twin) plus a bitmask of the slots that
    alias segment snapshots.  Leaves are allocated on the thread's first
    write fault in their range, so a table costs one directory word per
    32 segment pages plus about 70 words per touched leaf: memory in
    proportion to what the thread touches, not to the segment.  Beside
    the table sit two int stacks, grown by doubling: the resident pages
    (walked by {!update} and {!drop_residents}) and the dirty pages
    (sorted in place by {!seal}).

    Cost: a resident read, a write to an already-dirty page, {!read_int},
    {!write_int} and {!read_into} are a directory and a slot load and
    allocate nothing; {!update} with no stale resident allocates only its
    result.  A commit allocates the copies the semantics require (the
    first write fault's private copy, a merge target per conflicting
    page) plus its page-index and snapshot arrays and its result. *)

type t

type conflict = {
  cpage : int;  (** page index *)
  first_byte : int;  (** page-relative, inclusive *)
  last_byte : int;  (** page-relative, inclusive *)
  loser_tid : int;  (** committer whose bytes the merge overwrote *)
  loser_version : int;  (** the version those bytes were committed as *)
}
(** One run of bytes the last-writer-wins merge resolved against a
    concurrent committer: both this workspace's thread and some
    intervening commit changed every byte in the run since the twin was
    taken.  The loser is attributed to the newest version that modified
    the page in the conflict window (exact when one concurrent writer
    touched the page, the most recent writer otherwise). *)

type commit_info = {
  version : int;  (** new version number, or the old one if nothing was dirty *)
  pages_committed : int;
  pages_merged : int;  (** pages that hit a concurrent writer and needed a byte merge *)
  bytes_merged : int;
  committed_pages : int array;
      (** indices of the committed pages, ascending; shared with the
          segment's version log, so it must not be mutated *)
  conflicts : conflict list;
      (** byte-exact conflict tuples, ascending by (page, first_byte);
          always [[]] unless {!set_track_conflicts} enabled capture *)
}

type update_info = {
  from_version : int;
  to_version : int;
  pages_propagated : int;
      (** distinct pages committed by {e other} threads in the window —
          the inter-thread propagation volume of Fig 16 *)
  pages_refreshed : int;  (** resident local copies that had to be recopied *)
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

val create : Segment.t -> tid:int -> t
val tid : t -> int
val segment : t -> Segment.t
val base : t -> Segment.version

val read : t -> addr:int -> len:int -> Bytes.t
(** Read [len] bytes at byte address [addr]; may span pages. *)

val read_into : t -> addr:int -> Bytes.t -> unit
(** [read_into t ~addr buf] fills [buf] with the [Bytes.length buf]
    bytes at [addr] — {!read} without the allocation. *)

val write : t -> addr:int -> Bytes.t -> unit
(** Write the buffer at byte address [addr]; may span pages.  Faults in
    (and twins) every page touched for the first time this chunk. *)

val read_int64 : t -> addr:int -> int64
(** Little-endian convenience accessors built on {!read}/{!write}. *)

val write_int64 : t -> addr:int -> int64 -> unit
val read_int : t -> addr:int -> int
val write_int : t -> addr:int -> int -> unit

val is_dirty : t -> bool
val dirty_count : t -> int

val set_track_conflicts : t -> bool -> unit
(** Enable (or disable) conflict capture at commit time.  Off by default:
    the capture adds one extra three-way page scan per merged page, so
    runs that attach no observer pay nothing.  Capture never changes the
    merge result, the counters, or any simulated cost — it only fills
    [commit_info.conflicts]. *)

val track_conflicts : t -> bool

val resident_pages : t -> int
(** Local page copies currently held — the workspace-side contribution to
    Fig 12's memory footprint. *)

val commit : t -> commit_info
(** Publish dirty pages as a new version.  Clears the dirty set and twins;
    local copies stay resident.  Does {e not} move the base version (TSO
    only requires the thread's own stores to be ordered; seeing remote
    stores requires {!update}).  No-op (same version) if nothing dirty.
    [commit t] is exactly [install t (seal t)]. *)

(** {2 Two-phase commit}

    The pipelined runtime splits a commit into the part that must be
    ordered (sealing the write-set: sorting the dirty pages, merging
    against concurrent committers, capturing conflicts) and the part
    that publishes it (installing the snapshots as a new version).  Both
    still run under the token — only the {e cost} of the bulk install is
    charged after the release — so [seal] then [install] with no
    intervening segment commit is byte-identical to {!commit}. *)

type sealed
(** A sealed write-set: snapshots merged against the segment version
    current at seal time, plus the commit metadata.  Must be passed to
    {!install} before any other commit against the segment; {!install}
    raises [Invalid_argument] if the segment advanced since the seal. *)

val seal : t -> sealed
(** Prepare the dirty pages for publication (phase one).  Performs all
    merges and conflict capture; does not create a version or clear the
    dirty set. *)

val install : t -> sealed -> commit_info
(** Publish a sealed write-set (phase two): install the snapshots as a
    new version, clear the dirty set and twins, update the stats.  The
    returned [commit_info] is identical to what {!commit} would have
    returned at seal time. *)

val sealed_pages : sealed -> int
(** Pages in the sealed write-set ([pages_committed] of the eventual
    {!commit_info}). *)

val sealed_merged : sealed -> int
(** Pages in the sealed write-set that needed a byte merge. *)

val update : t -> update_info
(** Advance the base to the newest committed version, refreshing any
    resident local copies that remote commits (or our own merges)
    superseded.  Requires a clean workspace: raises [Invalid_argument] if
    dirty pages exist (commit first, as [convCommitAndUpdateMem] does). *)

val drop_residents : t -> unit
(** Forget all local copies (used when a pooled thread is recycled or a
    fresh process would have an empty page table). *)

val stats : t -> stats
