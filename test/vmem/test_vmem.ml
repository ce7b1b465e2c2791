(* Tests for the Conversion-style versioned memory substrate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_bytes = Alcotest.(check string)

let bytes_of_string = Bytes.of_string
let string_of_bytes = Bytes.to_string

let make_segment ?(pages = 8) ?(page_size = 16) () =
  Vmem.Segment.create ~pages ~page_size ()

(* ------------------------------------------------------------------ *)
(* Page                                                               *)
(* ------------------------------------------------------------------ *)

let test_page_create_zeroed () =
  let p = Vmem.Page.create ~size:8 in
  check_bytes "zeroed" (String.make 8 '\000') (string_of_bytes p)

let test_page_copy_independent () =
  let p = Vmem.Page.create ~size:4 in
  let q = Vmem.Page.copy p in
  Bytes.set q 0 'x';
  check_bool "original untouched" true (Bytes.get p 0 = '\000')

let test_page_diff_count () =
  let twin = bytes_of_string "abcd" and local = bytes_of_string "axcy" in
  check_int "two bytes differ" 2 (Vmem.Page.diff_count ~twin ~local)

let test_page_diff_count_zero () =
  let twin = bytes_of_string "abcd" in
  check_int "identical" 0 (Vmem.Page.diff_count ~twin ~local:(Bytes.copy twin))

let test_page_merge_applies_only_changes () =
  (* Thread changed byte 1 (b->X).  Target meanwhile has byte 3 changed by
     someone else (d->Z).  Merge must keep Z and apply X. *)
  let twin = bytes_of_string "abcd" in
  let local = bytes_of_string "aXcd" in
  let target = bytes_of_string "abcZ" in
  let n = Vmem.Page.merge_into ~twin ~local ~target in
  check_int "one byte merged" 1 n;
  check_bytes "merged result" "aXcZ" (string_of_bytes target)

let test_page_merge_overlap_last_writer_wins () =
  (* Both modified byte 0; merging local over target overwrites: the later
     committer wins at byte granularity. *)
  let twin = bytes_of_string "abcd" in
  let local = bytes_of_string "Lbcd" in
  let target = bytes_of_string "Ebcd" in
  ignore (Vmem.Page.merge_into ~twin ~local ~target);
  check_bytes "later committer wins" "Lbcd" (string_of_bytes target)

let test_page_merge_length_mismatch () =
  let twin = bytes_of_string "abcd" and local = bytes_of_string "abc" in
  Alcotest.check_raises "mismatch raises"
    (Invalid_argument "Page.merge_into: length mismatch (4 vs 3)") (fun () ->
      ignore (Vmem.Page.merge_into ~twin ~local ~target:(Bytes.copy twin)))

(* ------------------------------------------------------------------ *)
(* Segment                                                            *)
(* ------------------------------------------------------------------ *)

let page_str seg ~version i = string_of_bytes (Vmem.Segment.read_page seg ~version i)

let mk_page seg s =
  let p = Vmem.Page.create ~size:(Vmem.Segment.page_size seg) in
  Bytes.blit_string s 0 p 0 (String.length s);
  p

let test_segment_initial_state () =
  let seg = make_segment () in
  check_int "version 0" 0 (Vmem.Segment.current_version seg);
  check_int "no snapshots" 0 (Vmem.Segment.live_snapshots seg);
  check_bytes "zero page" (String.make 16 '\000') (page_str seg ~version:0 3);
  check_int "never modified" 0 (Vmem.Segment.last_mod seg 3)

let test_segment_commit_creates_versions () =
  let seg = make_segment () in
  let v1 = Vmem.Segment.commit seg ~committer:0 ~idxs:[| 1 |] ~pages:[| mk_page seg "one" |] in
  let v2 = Vmem.Segment.commit seg ~committer:1 ~idxs:[| 2 |] ~pages:[| mk_page seg "two" |] in
  check_int "v1" 1 v1;
  check_int "v2" 2 v2;
  check_int "current" 2 (Vmem.Segment.current_version seg);
  check_int "committer v1" 0 (Vmem.Segment.committer_of seg 1);
  check_int "committer v2" 1 (Vmem.Segment.committer_of seg 2)

let test_segment_historical_reads () =
  let seg = make_segment () in
  ignore (Vmem.Segment.commit seg ~committer:0 ~idxs:[| 0 |] ~pages:[| mk_page seg "AAA" |]);
  ignore (Vmem.Segment.commit seg ~committer:0 ~idxs:[| 0 |] ~pages:[| mk_page seg "BBB" |]);
  check_bool "v0 sees zero" true (String.for_all (( = ) '\000') (page_str seg ~version:0 0));
  check_bool "v1 sees AAA" true (String.length (page_str seg ~version:1 0) = 16
                                 && String.sub (page_str seg ~version:1 0) 0 3 = "AAA");
  check_bool "v2 sees BBB" true (String.sub (page_str seg ~version:2 0) 0 3 = "BBB")

let test_segment_last_mod () =
  let seg = make_segment () in
  ignore (Vmem.Segment.commit seg ~committer:0 ~idxs:[| 4 |] ~pages:[| mk_page seg "x" |]);
  ignore (Vmem.Segment.commit seg ~committer:0 ~idxs:[| 5 |] ~pages:[| mk_page seg "y" |]);
  check_int "page 4 at v1" 1 (Vmem.Segment.last_mod seg 4);
  check_int "page 5 at v2" 2 (Vmem.Segment.last_mod seg 5);
  check_int "page 6 never" 0 (Vmem.Segment.last_mod seg 6)

let test_segment_duplicate_page_in_commit () =
  let seg = make_segment () in
  let raised =
    try
      ignore
        (Vmem.Segment.commit seg ~committer:0
           ~idxs:[| 1; 1 |] ~pages:[| mk_page seg "a"; mk_page seg "b" |]);
      false
    with Invalid_argument _ -> true
  in
  check_bool "duplicate rejected" true raised

let test_segment_modified_since () =
  let seg = make_segment () in
  ignore (Vmem.Segment.commit seg ~committer:0 ~idxs:[| 1 |] ~pages:[| mk_page seg "a" |]);
  ignore
    (Vmem.Segment.commit seg ~committer:1 ~idxs:[| 2; 3 |]
       ~pages:[| mk_page seg "b"; mk_page seg "c" |]);
  ignore (Vmem.Segment.commit seg ~committer:0 ~idxs:[| 1 |] ~pages:[| mk_page seg "d" |]);
  Alcotest.(check (list int)) "since 0" [ 1; 2; 3 ] (Vmem.Segment.modified_since seg ~since:0);
  Alcotest.(check (list int)) "since 1" [ 1; 2; 3 ] (Vmem.Segment.modified_since seg ~since:1);
  Alcotest.(check (list int)) "since 2" [ 1 ] (Vmem.Segment.modified_since seg ~since:2);
  Alcotest.(check (list int)) "since 3" [] (Vmem.Segment.modified_since seg ~since:3)

let test_segment_modified_by_others () =
  let seg = make_segment () in
  ignore (Vmem.Segment.commit seg ~committer:0 ~idxs:[| 1 |] ~pages:[| mk_page seg "a" |]);
  ignore (Vmem.Segment.commit seg ~committer:1 ~idxs:[| 2 |] ~pages:[| mk_page seg "b" |]);
  check_int "tid 0 sees only tid 1's page" 1
    (Vmem.Segment.modified_since_by_others seg ~since:0 ~tid:0);
  check_int "tid 1 sees only tid 0's page" 1
    (Vmem.Segment.modified_since_by_others seg ~since:0 ~tid:1);
  check_int "tid 2 sees both" 2 (Vmem.Segment.modified_since_by_others seg ~since:0 ~tid:2)

let test_segment_gc_reclaims_obsolete () =
  let seg = make_segment () in
  ignore (Vmem.Segment.commit seg ~committer:0 ~idxs:[| 0 |] ~pages:[| mk_page seg "v1" |]);
  ignore (Vmem.Segment.commit seg ~committer:0 ~idxs:[| 0 |] ~pages:[| mk_page seg "v2" |]);
  ignore (Vmem.Segment.commit seg ~committer:0 ~idxs:[| 0 |] ~pages:[| mk_page seg "v3" |]);
  check_int "3 snapshots live" 3 (Vmem.Segment.live_snapshots seg);
  (* Everyone is at version >= 2: the v1 snapshot is obsolete, v2 must stay
     (it is the newest <= min_base), v3 stays. *)
  let reclaimed = Vmem.Segment.gc seg ~min_base:2 ~budget:100 in
  check_int "one reclaimed" 1 reclaimed;
  check_int "2 snapshots live" 2 (Vmem.Segment.live_snapshots seg);
  check_bool "v2 still readable" true (String.sub (page_str seg ~version:2 0) 0 2 = "v2");
  check_bool "v3 still readable" true (String.sub (page_str seg ~version:3 0) 0 2 = "v3")

let test_segment_gc_budget () =
  let seg = make_segment ~pages:4 () in
  for _ = 1 to 5 do
    ignore
      (Vmem.Segment.commit seg ~committer:0
         ~idxs:[| 0; 1 |] ~pages:[| mk_page seg "x"; mk_page seg "y" |])
  done;
  check_int "10 snapshots" 10 (Vmem.Segment.live_snapshots seg);
  (* At min_base 5 only the newest snapshot of each page is needed: 8 are
     obsolete, but the budget only allows a few. *)
  let r1 = Vmem.Segment.gc seg ~min_base:5 ~budget:3 in
  (* The page that reaches the budget is collected whole: page 0 alone
     drops 4, overshooting the budget of 3. *)
  check_int "first page collected whole" 4 r1;
  let r2 = Vmem.Segment.gc seg ~min_base:5 ~budget:100 in
  check_int "rest reclaimed" (8 - r1) r2;
  check_int "only newest kept" 2 (Vmem.Segment.live_snapshots seg)

let test_segment_hash_changes () =
  let seg = make_segment () in
  let h0 = Vmem.Segment.hash seg in
  ignore (Vmem.Segment.commit seg ~committer:0 ~idxs:[| 0 |] ~pages:[| mk_page seg "zz" |]);
  check_bool "hash changed" false (h0 = Vmem.Segment.hash seg)

let test_segment_hash_stable_under_gc () =
  let seg = make_segment () in
  ignore (Vmem.Segment.commit seg ~committer:0 ~idxs:[| 0 |] ~pages:[| mk_page seg "a" |]);
  ignore (Vmem.Segment.commit seg ~committer:0 ~idxs:[| 0 |] ~pages:[| mk_page seg "b" |]);
  let h = Vmem.Segment.hash seg in
  ignore (Vmem.Segment.gc seg ~min_base:2 ~budget:100);
  check_bytes "gc does not change current image" h (Vmem.Segment.hash seg)

(* ------------------------------------------------------------------ *)
(* Sharded commit / incremental GC                                    *)
(* ------------------------------------------------------------------ *)

let test_segment_shard_ranges () =
  let seg = make_segment ~pages:10 () in
  Vmem.Segment.set_shards seg 4;
  check_int "4 shards" 4 (Vmem.Segment.shards seg);
  (* shard_of_page must be monotone, start at 0, end at nshards-1, and
     cover every shard for a 10-page / 4-shard split. *)
  let shards = List.init 10 (Vmem.Segment.shard_of_page seg) in
  check_int "first page in shard 0" 0 (List.hd shards);
  check_int "last page in shard 3" 3 (List.nth shards 9);
  check_bool "monotone" true
    (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < 9) shards) (List.tl shards));
  Alcotest.(check (list int)) "all shards populated" [ 0; 1; 2; 3 ]
    (List.sort_uniq compare shards);
  (* Clamped: more shards than pages degenerates to one page per shard. *)
  Vmem.Segment.set_shards seg 64;
  check_int "clamped to page count" 10 (Vmem.Segment.shards seg)

(* Apply the same commit list to a serial (1-shard) and an n-shard
   segment and require byte-identical state: same hash, same versions,
   same committers, same content at every version. *)
let apply_commits seg commits =
  List.iteri
    (fun i pages ->
      let idxs = Array.of_list (List.map fst pages) in
      let pages =
        Array.of_list
          (List.map
             (fun (_, c) ->
               let p = Vmem.Page.create ~size:(Vmem.Segment.page_size seg) in
               Bytes.fill p 0 (Bytes.length p) c;
               p)
             pages)
      in
      ignore (Vmem.Segment.commit seg ~committer:(i mod 4) ~idxs ~pages))
    commits

let segments_equal ?(from_version = 0) sa sb =
  let va = Vmem.Segment.current_version sa in
  va = Vmem.Segment.current_version sb
  && Vmem.Segment.hash sa = Vmem.Segment.hash sb
  && List.for_all
       (fun v ->
         List.for_all
           (fun pg ->
             Bytes.equal
               (Vmem.Segment.read_page sa ~version:v pg)
               (Vmem.Segment.read_page sb ~version:v pg))
           (List.init (Vmem.Segment.page_count sa) Fun.id))
       (List.init (va - from_version + 1) (fun k -> from_version + k))
  && List.for_all
       (fun v -> Vmem.Segment.committer_of sa v = Vmem.Segment.committer_of sb v)
       (List.init va (fun k -> k + 1))

let test_segment_parallel_install_path () =
  (* A single commit of >= 64 distinct pages on a multi-shard segment
     takes the pool fan-out install; it must be indistinguishable from
     the serial install of the same pages. *)
  let mk () = Vmem.Segment.create ~pages:128 ~page_size:32 () in
  let serial = mk () and sharded = mk () in
  Vmem.Segment.set_shards sharded 8;
  let commit = List.init 100 (fun k -> ((k * 5) mod 128, Char.chr (33 + (k mod 90)))) in
  let commit = List.sort_uniq (fun (a, _) (b, _) -> compare a b) commit in
  check_bool "covers parallel threshold" true (List.length commit >= 64);
  apply_commits serial [ commit ];
  apply_commits sharded [ commit ];
  check_bool "byte-identical" true (segments_equal serial sharded)

let test_segment_gc_step_equivalence () =
  (* Incremental per-shard gc_step, run to quiescence, reclaims exactly
     what one monolithic gc pass reclaims, and leaves identical state. *)
  let mk () = Vmem.Segment.create ~pages:16 ~page_size:8 () in
  let serial = mk () and sharded = mk () in
  Vmem.Segment.set_shards sharded 4;
  let commits =
    List.init 6 (fun r -> List.init 16 (fun pg -> (pg, Char.chr (65 + r))))
  in
  apply_commits serial commits;
  apply_commits sharded commits;
  let min_base = Vmem.Segment.current_version serial - 1 in
  let reclaimed_serial = Vmem.Segment.gc serial ~min_base ~budget:max_int in
  let reclaimed_sharded = ref 0 in
  (* Each step scans at most 8 pages of one shard; 4 shards x 4 pages
     means a handful of rotations reach quiescence. *)
  for _ = 1 to 16 do
    reclaimed_sharded :=
      !reclaimed_sharded + Vmem.Segment.gc_step sharded ~min_base ~max_pages:8
  done;
  check_int "same total reclaimed" reclaimed_serial !reclaimed_sharded;
  check_int "same live snapshots" (Vmem.Segment.live_snapshots serial)
    (Vmem.Segment.live_snapshots sharded);
  check_bool "identical from min_base" true (segments_equal ~from_version:min_base serial sharded)

let test_segment_gc_step_bound () =
  let seg = make_segment ~pages:8 () in
  Vmem.Segment.set_shards seg 2;
  for _ = 1 to 5 do
    ignore
      (Vmem.Segment.commit seg ~committer:0
         ~idxs:(Array.init 8 Fun.id)
         ~pages:(Array.init 8 (fun _ -> mk_page seg "x")))
  done;
  let min_base = Vmem.Segment.current_version seg in
  (* max_pages bounds pages *scanned*, and each page holds 4 obsolete
     snapshots: a 1-page step reclaims at most 4. *)
  let r = Vmem.Segment.gc_step seg ~min_base ~max_pages:1 in
  check_bool "per-step work bounded" true (r <= 4);
  check_bool "made progress" true (r > 0)

(* A resident page is a page-table load away: reads of it, writes to it
   once dirty, and [read_into] allocate nothing; so do reads of a page
   the thread never touched (straight from the segment snapshot). *)
let test_ws_resident_access_allocates_nothing () =
  let seg = make_segment ~pages:64 ~page_size:64 () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  (* Page 40 sits in the table's second leaf. *)
  let addr = (40 * 64) + 8 and untouched = 50 * 64 in
  Vmem.Workspace.write_int ws ~addr 1;
  let buf = Bytes.create 16 in
  let check what f =
    Alcotest.(check (float 0.0)) what 0.0
      (Alloc_probe.words_beyond_probe (fun () ->
           for i = 1 to 1_000 do
             f i
           done))
  in
  check "dirty page" (fun i ->
      Vmem.Workspace.write_int ws ~addr (Vmem.Workspace.read_int ws ~addr + i);
      Vmem.Workspace.read_into ws ~addr buf);
  ignore (Vmem.Workspace.commit ws);
  check "clean resident page" (fun _ ->
      ignore (Sys.opaque_identity (Vmem.Workspace.read_int ws ~addr));
      Vmem.Workspace.read_into ws ~addr buf);
  check "untouched page" (fun _ ->
      ignore (Sys.opaque_identity (Vmem.Workspace.read_int ws ~addr:untouched));
      Vmem.Workspace.read_into ws ~addr:untouched buf);
  check_int "value" (1 + (1_000 * 1_001 / 2)) (Vmem.Workspace.read_int ws ~addr)

(* An update that finds no stale resident walks the resident pages and
   the version log in plain loops: it allocates only its 5-word result. *)
let test_ws_update_allocates_only_result () =
  let seg = make_segment ~pages:64 ~page_size:64 () in
  let a = Vmem.Workspace.create seg ~tid:0 and b = Vmem.Workspace.create seg ~tid:1 in
  for pg = 0 to 9 do
    Vmem.Workspace.write_int a ~addr:(pg * 64) pg
  done;
  ignore (Vmem.Workspace.commit a);
  ignore (Vmem.Workspace.update a);
  Vmem.Workspace.write_int b ~addr:(50 * 64) 7;
  ignore (Vmem.Workspace.commit b);
  let result = ref None in
  let words =
    Alloc_probe.words_beyond_probe (fun () -> result := Some (Vmem.Workspace.update a))
  in
  let ui = Option.get !result in
  check_int "propagated" 1 ui.Vmem.Workspace.pages_propagated;
  check_int "refreshed" 0 ui.Vmem.Workspace.pages_refreshed;
  (* 5 words for the record and 2 for the test's own [Some]. *)
  Alcotest.(check (float 0.0)) "minor words" 7.0 words

let test_ws_seal_install_equals_commit () =
  (* Two-phase seal/install must be observably identical to the fused
     commit: same commit_info, same committed bytes. *)
  let seg_a = make_segment () and seg_b = make_segment () in
  let wa = Vmem.Workspace.create seg_a ~tid:0 in
  let wb = Vmem.Workspace.create seg_b ~tid:0 in
  List.iter
    (fun ws ->
      Vmem.Workspace.write ws ~addr:3 (bytes_of_string "fused-vs-staged");
      Vmem.Workspace.write ws ~addr:40 (bytes_of_string "q"))
    [ wa; wb ];
  let ca = Vmem.Workspace.commit wa in
  let sealed = Vmem.Workspace.seal wb in
  check_int "sealed_pages" ca.pages_committed (Vmem.Workspace.sealed_pages sealed);
  check_int "sealed_merged" ca.pages_merged (Vmem.Workspace.sealed_merged sealed);
  let cb = Vmem.Workspace.install wb sealed in
  check_int "same version" ca.version cb.version;
  check_int "same pages" ca.pages_committed cb.pages_committed;
  check_int "same merges" ca.pages_merged cb.pages_merged;
  check_bool "same segment bytes" true (Vmem.Segment.hash seg_a = Vmem.Segment.hash seg_b);
  (* Dirty state was reset by install: a second commit is empty. *)
  check_int "workspace drained" 0 (Vmem.Workspace.commit wb).pages_committed

let test_ws_install_stale_seal_rejected () =
  (* The sealed write-set pins the base version; if the segment advanced
     between seal and install the twin diffs are stale and install must
     refuse rather than silently misinstall. *)
  let seg = make_segment () in
  let w0 = Vmem.Workspace.create seg ~tid:0 in
  let w1 = Vmem.Workspace.create seg ~tid:1 in
  Vmem.Workspace.write w0 ~addr:0 (bytes_of_string "early");
  let sealed = Vmem.Workspace.seal w0 in
  Vmem.Workspace.write w1 ~addr:64 (bytes_of_string "sneak");
  ignore (Vmem.Workspace.commit w1);
  let raised =
    try ignore (Vmem.Workspace.install w0 sealed); false
    with Invalid_argument _ -> true
  in
  check_bool "stale install raises" true raised

(* ------------------------------------------------------------------ *)
(* Workspace                                                          *)
(* ------------------------------------------------------------------ *)

let test_ws_read_initial_zero () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  check_bytes "zero read" (String.make 10 '\000')
    (string_of_bytes (Vmem.Workspace.read ws ~addr:37 ~len:10))

let test_ws_reads_own_writes () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  Vmem.Workspace.write ws ~addr:5 (bytes_of_string "hello");
  check_bytes "store-buffer forwarding" "hello"
    (string_of_bytes (Vmem.Workspace.read ws ~addr:5 ~len:5))

let test_ws_isolation_before_update () =
  let seg = make_segment () in
  let w0 = Vmem.Workspace.create seg ~tid:0 in
  let w1 = Vmem.Workspace.create seg ~tid:1 in
  Vmem.Workspace.write w0 ~addr:0 (bytes_of_string "secret");
  ignore (Vmem.Workspace.commit w0);
  (* w1 has not updated: the commit must be invisible. *)
  check_bytes "isolated" (String.make 6 '\000')
    (string_of_bytes (Vmem.Workspace.read w1 ~addr:0 ~len:6));
  ignore (Vmem.Workspace.update w1);
  check_bytes "visible after update" "secret"
    (string_of_bytes (Vmem.Workspace.read w1 ~addr:0 ~len:6))

let test_ws_commit_then_own_view () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  Vmem.Workspace.write ws ~addr:0 (bytes_of_string "mine");
  ignore (Vmem.Workspace.commit ws);
  (* After commit (even before update) the thread still sees its own data:
     local copies stay resident. *)
  check_bytes "own writes persist" "mine"
    (string_of_bytes (Vmem.Workspace.read ws ~addr:0 ~len:4))

let test_ws_cross_page_write_read () =
  let seg = make_segment ~pages:4 ~page_size:8 () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  let s = "0123456789abcdef" in
  Vmem.Workspace.write ws ~addr:4 (bytes_of_string s);
  check_bytes "spans pages" s (string_of_bytes (Vmem.Workspace.read ws ~addr:4 ~len:16));
  check_int "three pages dirtied" 3 (Vmem.Workspace.dirty_count ws)

let test_ws_write_fault_once_per_chunk () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  Vmem.Workspace.write ws ~addr:0 (bytes_of_string "a");
  Vmem.Workspace.write ws ~addr:1 (bytes_of_string "b");
  Vmem.Workspace.write ws ~addr:2 (bytes_of_string "c");
  check_int "one fault" 1 (Vmem.Workspace.stats ws).write_faults;
  ignore (Vmem.Workspace.commit ws);
  (* New chunk: writing the same page faults again. *)
  Vmem.Workspace.write ws ~addr:3 (bytes_of_string "d");
  check_int "fault in next chunk" 2 (Vmem.Workspace.stats ws).write_faults

let test_ws_disjoint_byte_merge () =
  (* Two threads write different bytes of the same page; both updates must
     survive (byte-granularity merging, paper section 2.5). *)
  let seg = make_segment () in
  let w0 = Vmem.Workspace.create seg ~tid:0 in
  let w1 = Vmem.Workspace.create seg ~tid:1 in
  Vmem.Workspace.write w0 ~addr:0 (bytes_of_string "AA");
  Vmem.Workspace.write w1 ~addr:8 (bytes_of_string "BB");
  let c0 = Vmem.Workspace.commit w0 in
  let c1 = Vmem.Workspace.commit w1 in
  check_int "w0 clean commit" 0 c0.pages_merged;
  check_int "w1 merged" 1 c1.pages_merged;
  check_int "w1 merged 2 bytes" 2 c1.bytes_merged;
  let w2 = Vmem.Workspace.create seg ~tid:2 in
  check_bytes "both writes survive" "AA\000\000\000\000\000\000BB"
    (string_of_bytes (Vmem.Workspace.read w2 ~addr:0 ~len:10))

let test_ws_overlapping_merge_last_writer_wins () =
  let seg = make_segment () in
  let w0 = Vmem.Workspace.create seg ~tid:0 in
  let w1 = Vmem.Workspace.create seg ~tid:1 in
  Vmem.Workspace.write w0 ~addr:0 (bytes_of_string "first");
  Vmem.Workspace.write w1 ~addr:0 (bytes_of_string "SECON");
  ignore (Vmem.Workspace.commit w0);
  ignore (Vmem.Workspace.commit w1);
  let w2 = Vmem.Workspace.create seg ~tid:2 in
  check_bytes "last committer wins" "SECON"
    (string_of_bytes (Vmem.Workspace.read w2 ~addr:0 ~len:5))

let test_ws_merge_preserves_untouched_remote_bytes () =
  (* w1 writes bytes 0-1 and commits; w0, still at the old base, writes
     byte 4 of the same page and commits.  The merge must keep w1's bytes. *)
  let seg = make_segment () in
  let w0 = Vmem.Workspace.create seg ~tid:0 in
  let w1 = Vmem.Workspace.create seg ~tid:1 in
  Vmem.Workspace.write w1 ~addr:0 (bytes_of_string "XY");
  ignore (Vmem.Workspace.commit w1);
  Vmem.Workspace.write w0 ~addr:4 (bytes_of_string "Q");
  ignore (Vmem.Workspace.commit w0);
  let w2 = Vmem.Workspace.create seg ~tid:2 in
  check_bytes "union of both" "XY\000\000Q"
    (string_of_bytes (Vmem.Workspace.read w2 ~addr:0 ~len:5))

let test_ws_update_with_dirty_raises () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  Vmem.Workspace.write ws ~addr:0 (bytes_of_string "x");
  let raised = try ignore (Vmem.Workspace.update ws); false with Invalid_argument _ -> true in
  check_bool "raises" true raised

let test_ws_update_refreshes_residents () =
  let seg = make_segment () in
  let w0 = Vmem.Workspace.create seg ~tid:0 in
  let w1 = Vmem.Workspace.create seg ~tid:1 in
  (* Make page 0 resident in w0 by writing it and committing. *)
  Vmem.Workspace.write w0 ~addr:0 (bytes_of_string "old");
  ignore (Vmem.Workspace.commit w0);
  ignore (Vmem.Workspace.update w0);
  (* w1 overwrites the page. *)
  ignore (Vmem.Workspace.update w1);
  Vmem.Workspace.write w1 ~addr:0 (bytes_of_string "new");
  ignore (Vmem.Workspace.commit w1);
  let info = Vmem.Workspace.update w0 in
  check_int "one page refreshed" 1 info.pages_refreshed;
  check_bytes "sees new content" "new"
    (string_of_bytes (Vmem.Workspace.read w0 ~addr:0 ~len:3))

let test_ws_propagation_excludes_own_commits () =
  let seg = make_segment () in
  let w0 = Vmem.Workspace.create seg ~tid:0 in
  Vmem.Workspace.write w0 ~addr:0 (bytes_of_string "self");
  ignore (Vmem.Workspace.commit w0);
  let info = Vmem.Workspace.update w0 in
  check_int "own commit not propagation" 0 info.pages_propagated;
  check_int "base advanced" 1 info.to_version

let test_ws_propagation_counts_remote () =
  let seg = make_segment () in
  let w0 = Vmem.Workspace.create seg ~tid:0 in
  let w1 = Vmem.Workspace.create seg ~tid:1 in
  Vmem.Workspace.write w1 ~addr:0 (bytes_of_string "a");
  Vmem.Workspace.write w1 ~addr:20 (bytes_of_string "b");
  ignore (Vmem.Workspace.commit w1);
  let info = Vmem.Workspace.update w0 in
  check_int "two remote pages" 2 info.pages_propagated

let test_ws_empty_commit_noop () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  let c = Vmem.Workspace.commit ws in
  check_int "no pages" 0 c.pages_committed;
  check_int "version unchanged" 0 c.version;
  check_int "no commit counted" 0 (Vmem.Workspace.stats ws).commits

let test_ws_int64_roundtrip () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  Vmem.Workspace.write_int64 ws ~addr:12 0x1122334455667788L;
  Alcotest.(check int64) "roundtrip" 0x1122334455667788L (Vmem.Workspace.read_int64 ws ~addr:12);
  Vmem.Workspace.write_int ws ~addr:40 (-123456);
  check_int "int roundtrip" (-123456) (Vmem.Workspace.read_int ws ~addr:40)

let test_ws_int64_across_page_boundary () =
  let seg = make_segment ~pages:4 ~page_size:8 () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  Vmem.Workspace.write_int64 ws ~addr:5 0x0102030405060708L;
  Alcotest.(check int64) "spans boundary" 0x0102030405060708L
    (Vmem.Workspace.read_int64 ws ~addr:5)

let test_ws_out_of_range () =
  let seg = make_segment ~pages:2 ~page_size:8 () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  let raised =
    try ignore (Vmem.Workspace.read ws ~addr:12 ~len:8); false
    with Invalid_argument _ -> true
  in
  check_bool "read oob raises" true raised;
  let raised =
    try Vmem.Workspace.write ws ~addr:(-1) (bytes_of_string "x"); false
    with Invalid_argument _ -> true
  in
  check_bool "write oob raises" true raised

let test_ws_drop_residents () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  Vmem.Workspace.write ws ~addr:0 (bytes_of_string "x");
  ignore (Vmem.Workspace.commit ws);
  check_int "one resident" 1 (Vmem.Workspace.resident_pages ws);
  Vmem.Workspace.drop_residents ws;
  check_int "none resident" 0 (Vmem.Workspace.resident_pages ws);
  (* Reads fall back to the committed state. *)
  ignore (Vmem.Workspace.update ws);
  check_bytes "still reads committed" "x"
    (string_of_bytes (Vmem.Workspace.read ws ~addr:0 ~len:1))

let test_ws_read_does_not_fault () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  ignore (Vmem.Workspace.read ws ~addr:0 ~len:64);
  check_int "reads don't fault" 0 (Vmem.Workspace.stats ws).write_faults;
  check_int "reads don't make residents" 0 (Vmem.Workspace.resident_pages ws)

let test_page_diff_word_boundary () =
  (* A single mismatching byte at every word boundary (first/last byte of
     each 8-byte word) must be found by the word-level scan. *)
  let size = 32 in
  let twin = Bytes.make size 'a' in
  List.iter
    (fun i ->
      let local = Bytes.copy twin in
      Bytes.set local i 'b';
      check_int (Printf.sprintf "mismatch at byte %d" i) 1
        (Vmem.Page.diff_count ~twin ~local))
    [ 0; 7; 8; 15; 16; 23; 24; 31 ]

let test_page_diff_unaligned_tail () =
  (* Sizes that are not a multiple of 8 exercise the byte-tail loop. *)
  List.iter
    (fun size ->
      let twin = Bytes.make size 'a' in
      let local = Bytes.copy twin in
      if size > 0 then Bytes.set local (size - 1) 'b';
      check_int
        (Printf.sprintf "last byte of %d-byte page" size)
        (if size > 0 then 1 else 0)
        (Vmem.Page.diff_count ~twin ~local))
    [ 0; 1; 3; 7; 9; 15; 17; 63; 65 ]

(* ------------------------------------------------------------------ *)
(* Property tests                                                     *)
(* ------------------------------------------------------------------ *)

(* Reference model: a flat byte array with the same write sequence. *)
let prop_single_thread_matches_flat_memory =
  QCheck.Test.make ~name:"single-thread workspace behaves like flat memory" ~count:100
    QCheck.(list (pair (int_bound 111) (string_of_size (Gen.int_range 1 16))))
    (fun writes ->
      let seg = Vmem.Segment.create ~pages:8 ~page_size:16 () in
      let ws = Vmem.Workspace.create seg ~tid:0 in
      let model = Bytes.make 128 '\000' in
      List.iter
        (fun (addr, s) ->
          let len = min (String.length s) (128 - addr) in
          if len > 0 then begin
            let b = Bytes.of_string (String.sub s 0 len) in
            Vmem.Workspace.write ws ~addr b;
            Bytes.blit b 0 model addr len
          end)
        writes;
      Vmem.Workspace.read ws ~addr:0 ~len:128 = model)

let prop_commit_update_preserves_content =
  QCheck.Test.make ~name:"commit+update round-trips content to a fresh reader" ~count:100
    QCheck.(list (pair (int_bound 111) (string_of_size (Gen.int_range 1 16))))
    (fun writes ->
      let seg = Vmem.Segment.create ~pages:8 ~page_size:16 () in
      let ws = Vmem.Workspace.create seg ~tid:0 in
      let model = Bytes.make 128 '\000' in
      List.iter
        (fun (addr, s) ->
          let len = min (String.length s) (128 - addr) in
          if len > 0 then begin
            let b = Bytes.of_string (String.sub s 0 len) in
            Vmem.Workspace.write ws ~addr b;
            Bytes.blit b 0 model addr len
          end)
        writes;
      ignore (Vmem.Workspace.commit ws);
      let reader = Vmem.Workspace.create seg ~tid:1 in
      ignore (Vmem.Workspace.update reader);
      Vmem.Workspace.read reader ~addr:0 ~len:128 = model)

let prop_disjoint_writers_merge_to_union =
  (* Threads write to disjoint byte ranges (same pages allowed); after all
     commit, memory is the union regardless of commit order. *)
  QCheck.Test.make ~name:"disjoint writers merge to union in any commit order" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 1 8) (int_bound 15)) bool)
    (fun (slots, flip) ->
      let slots = List.sort_uniq compare slots in
      let seg = Vmem.Segment.create ~pages:2 ~page_size:64 () in
      (* Even slots -> thread 0, odd -> thread 1; each slot is 8 bytes. *)
      let w0 = Vmem.Workspace.create seg ~tid:0 in
      let w1 = Vmem.Workspace.create seg ~tid:1 in
      let model = Bytes.make 128 '\000' in
      List.iter
        (fun slot ->
          let addr = slot * 8 in
          let ws = if slot mod 2 = 0 then w0 else w1 in
          let tag = Bytes.make 8 (Char.chr (65 + slot)) in
          Vmem.Workspace.write ws ~addr tag;
          Bytes.blit tag 0 model addr 8)
        slots;
      let first, second = if flip then (w1, w0) else (w0, w1) in
      ignore (Vmem.Workspace.commit first);
      ignore (Vmem.Workspace.commit second);
      let reader = Vmem.Workspace.create seg ~tid:2 in
      ignore (Vmem.Workspace.update reader);
      Vmem.Workspace.read reader ~addr:0 ~len:128 = model)

let prop_workspace_gc_interplay =
  (* Interleave writes/commits/updates from two workspaces with aggressive
     GC at the true min base: contents must match a flat reference model
     that applies the same committed stores in commit order. *)
  QCheck.Test.make ~name:"workspaces + gc match a flat commit-order model" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 24) (pair (int_bound 1) (pair (int_bound 30) (int_bound 255))))
    (fun ops ->
      let seg = Vmem.Segment.create ~pages:8 ~page_size:16 () in
      let w = [| Vmem.Workspace.create seg ~tid:0; Vmem.Workspace.create seg ~tid:1 |] in
      let model = Bytes.make 128 '\000' in
      (* Writers touch disjoint byte ranges (even/odd 4-byte slots) so the
         committed image is schedule-independent. *)
      List.iteri
        (fun i (who, (slot, v)) ->
          let ws = w.(who) in
          let addr = (slot / 2 * 8) + (who * 4) in
          let buf = Bytes.make 4 (Char.chr v) in
          Vmem.Workspace.write ws ~addr buf;
          Bytes.blit buf 0 model addr 4;
          (* Commit and update every few steps; GC hard after each. *)
          if i mod 3 = who then begin
            ignore (Vmem.Workspace.commit ws);
            ignore (Vmem.Workspace.update ws);
            let min_base = min (Vmem.Workspace.base w.(0)) (Vmem.Workspace.base w.(1)) in
            ignore (Vmem.Segment.gc seg ~min_base ~budget:max_int)
          end)
        ops;
      ignore (Vmem.Workspace.commit w.(0));
      ignore (Vmem.Workspace.commit w.(1));
      let reader = Vmem.Workspace.create seg ~tid:2 in
      ignore (Vmem.Workspace.update reader);
      Vmem.Workspace.read reader ~addr:0 ~len:128 = model)

let prop_page_table_spans_leaves =
  (* The per-thread page table is two-level (32-page leaves); write
     pages in any order across many leaves and check the committed page
     list (sorted from the dirty stack), the resident count and every
     view against flat models.  Writers own disjoint bytes of each page,
     so the committed image does not depend on the commit order. *)
  QCheck.Test.make ~name:"page table across leaves" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (pair (int_bound 1) (pair (int_bound 199) bool)))
    (fun ops ->
      let pages = 200 and page_size = 8 in
      let seg = Vmem.Segment.create ~pages ~page_size () in
      let w = [| Vmem.Workspace.create seg ~tid:0; Vmem.Workspace.create seg ~tid:1 |] in
      let model = Bytes.make (pages * page_size) '\000' in
      let pending = [| []; [] |] and touched = [| []; [] |] in
      let ok = ref true in
      let commit who =
        let ci = Vmem.Workspace.commit w.(who) in
        let expect = List.sort_uniq compare pending.(who) in
        if Array.to_list ci.Vmem.Workspace.committed_pages <> expect then ok := false;
        pending.(who) <- [];
        ignore (Vmem.Workspace.update w.(who))
      in
      List.iteri
        (fun i (who, (pg, sync)) ->
          let addr = (pg * page_size) + (who * 4) in
          let v = Bytes.make 4 (Char.chr (i land 0xff)) in
          Vmem.Workspace.write w.(who) ~addr v;
          Bytes.blit v 0 model addr 4;
          pending.(who) <- pg :: pending.(who);
          touched.(who) <- pg :: touched.(who);
          if sync then commit who)
        ops;
      commit 0;
      commit 1;
      commit 0;
      let reader = Vmem.Workspace.create seg ~tid:2 in
      ignore (Vmem.Workspace.update reader);
      !ok
      && Array.for_all2
           (fun ws t ->
             Vmem.Workspace.resident_pages ws = List.length (List.sort_uniq compare t))
           w touched
      && Array.for_all
           (fun ws -> Vmem.Workspace.read ws ~addr:0 ~len:(pages * page_size) = model)
           [| w.(0); w.(1); reader |])

let prop_gc_never_affects_readers_at_min_base =
  QCheck.Test.make ~name:"gc preserves all reads at versions >= min_base" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 10) (pair (int_bound 3) (int_bound 255)))
    (fun commits ->
      let seg = Vmem.Segment.create ~pages:4 ~page_size:4 () in
      List.iter
        (fun (pg, byte) ->
          let p = Vmem.Page.create ~size:4 in
          Bytes.fill p 0 4 (Char.chr byte);
          ignore (Vmem.Segment.commit seg ~committer:0 ~idxs:[| pg |] ~pages:[| p |]))
        commits;
      let vmax = Vmem.Segment.current_version seg in
      let min_base = max 0 (vmax - 2) in
      let snapshot v =
        List.init 4 (fun i -> Bytes.to_string (Vmem.Segment.read_page seg ~version:v i))
      in
      let before = List.init (vmax - min_base + 1) (fun k -> snapshot (min_base + k)) in
      ignore (Vmem.Segment.gc seg ~min_base ~budget:max_int);
      let after = List.init (vmax - min_base + 1) (fun k -> snapshot (min_base + k)) in
      before = after)

let prop_sharded_commit_matches_serial =
  (* The tentpole equivalence: for random page sets (with overlaps
     across commits), random shard counts, and commits large enough to
     take the pool fan-out install, the sharded segment is byte-for-byte
     the serial segment — same hash, same per-version content, same
     committers — and stays so after incremental vs monolithic GC. *)
  QCheck.Test.make ~name:"sharded commit + incremental gc match serial segment" ~count:60
    QCheck.(
      triple (int_range 2 9)
        (list_of_size (Gen.int_range 1 5)
           (list_of_size (Gen.int_range 1 120) (pair (int_bound 127) printable_char)))
        (int_bound 3))
    (fun (nshards, commits, gc_lag) ->
      let commits =
        List.map (List.sort_uniq (fun (a, _) (b, _) -> compare a b)) commits
      in
      let mk () = Vmem.Segment.create ~pages:128 ~page_size:16 () in
      let serial = mk () and sharded = mk () in
      Vmem.Segment.set_shards sharded nshards;
      apply_commits serial commits;
      apply_commits sharded commits;
      let eq_before = segments_equal serial sharded in
      let min_base = max 0 (Vmem.Segment.current_version serial - gc_lag) in
      let rs = Vmem.Segment.gc serial ~min_base ~budget:max_int in
      let rb = ref 0 in
      (* Enough bounded steps to reach quiescence: at most 9 shards of
         <= 64 pages each, 64 scanned per step. *)
      for _ = 1 to 4 * nshards do
        rb := !rb + Vmem.Segment.gc_step sharded ~min_base ~max_pages:64
      done;
      eq_before && rs = !rb
      && Vmem.Segment.live_snapshots serial = Vmem.Segment.live_snapshots sharded
      && segments_equal ~from_version:min_base serial sharded)

let prop_seal_install_equals_commit =
  (* Random write batches through two workspaces against a sharded
     segment: the staged seal/install path and the fused commit must
     produce identical commit_infos and identical committed images. *)
  QCheck.Test.make ~name:"seal/install equals fused commit on sharded segment" ~count:80
    QCheck.(
      list_of_size (Gen.int_range 1 20)
        (triple bool (int_bound 111) (string_of_size (Gen.int_range 1 16))))
    (fun writes ->
      let mk () =
        let seg = Vmem.Segment.create ~pages:8 ~page_size:16 () in
        Vmem.Segment.set_shards seg 4;
        (seg, Vmem.Workspace.create seg ~tid:0, Vmem.Workspace.create seg ~tid:1)
      in
      let seg_a, a0, a1 = mk () and seg_b, b0, b1 = mk () in
      List.iter
        (fun (who, addr, s) ->
          let len = min (String.length s) (128 - addr) in
          if len > 0 then begin
            let b = Bytes.of_string (String.sub s 0 len) in
            Vmem.Workspace.write (if who then a1 else a0) ~addr (Bytes.copy b);
            Vmem.Workspace.write (if who then b1 else b0) ~addr b
          end)
        writes;
      (* Segment A: fused commits.  Segment B: staged, in the same
         order (t0 then t1 — the second may merge over the first). *)
      let ca0 = Vmem.Workspace.commit a0 in
      let ca1 = Vmem.Workspace.commit a1 in
      let cb0 = Vmem.Workspace.install b0 (Vmem.Workspace.seal b0) in
      let cb1 = Vmem.Workspace.install b1 (Vmem.Workspace.seal b1) in
      let same (x : Vmem.Workspace.commit_info) (y : Vmem.Workspace.commit_info) =
        x.version = y.version
        && x.pages_committed = y.pages_committed
        && x.pages_merged = y.pages_merged
        && x.bytes_merged = y.bytes_merged
      in
      same ca0 cb0 && same ca1 cb1 && Vmem.Segment.hash seg_a = Vmem.Segment.hash seg_b)

(* Byte-at-a-time oracles for the word-level page scans. *)
let oracle_diff_count ~twin ~local =
  let n = ref 0 in
  for i = 0 to Bytes.length twin - 1 do
    if Bytes.get twin i <> Bytes.get local i then incr n
  done;
  !n

let oracle_merge ~twin ~local ~target =
  let t = Bytes.copy target in
  let n = ref 0 in
  for i = 0 to Bytes.length twin - 1 do
    if Bytes.get twin i <> Bytes.get local i then begin
      Bytes.set t i (Bytes.get local i);
      incr n
    end
  done;
  (t, !n)

(* Page sizes deliberately straddle multiples of 8 so both the word loop
   and the byte tail are exercised; mutation positions are arbitrary, so
   word-boundary mismatches occur routinely. *)
let mutate base muts =
  let b = Bytes.copy base in
  let size = Bytes.length b in
  if size > 0 then List.iter (fun (pos, c) -> Bytes.set b (pos mod size) c) muts;
  b

let prop_word_diff_matches_byte_oracle =
  QCheck.Test.make ~name:"word-level diff_count matches byte-at-a-time oracle" ~count:300
    QCheck.(pair (int_range 0 67) (small_list (pair small_nat printable_char)))
    (fun (size, muts) ->
      let twin = Bytes.init size (fun i -> Char.chr (((i * 131) + 7) land 0xff)) in
      let local = mutate twin muts in
      Vmem.Page.diff_count ~twin ~local = oracle_diff_count ~twin ~local)

let prop_word_merge_matches_byte_oracle =
  QCheck.Test.make ~name:"word-level merge_into matches byte-at-a-time oracle" ~count:300
    QCheck.(
      triple (int_range 0 67)
        (small_list (pair small_nat printable_char))
        (small_list (pair small_nat printable_char)))
    (fun (size, muts, tmuts) ->
      let twin = Bytes.init size (fun i -> Char.chr ((i * 37) land 0xff)) in
      let local = mutate twin muts in
      let target = mutate twin tmuts in
      let expected, expected_n = oracle_merge ~twin ~local ~target in
      let actual = Bytes.copy target in
      let n = Vmem.Page.merge_into ~twin ~local ~target:actual in
      n = expected_n && Bytes.equal actual expected)

(* ------------------------------------------------------------------ *)
(* Collector model: the full-scan gc loop                              *)
(* ------------------------------------------------------------------ *)

(* Test-local reference for [Segment.gc]: per-page histories as
   ascending (version, contents) lists, collected by a scan of every page
   from the cursor — the loop the flagged-page collector replaced.  Its
   cursor is part of the model, so budgeted runs must drop the same
   snapshots in the same order. *)
type gc_model = {
  m_hist : (int * string) list array;
  m_written : bool array;
  mutable m_cursor : int;
  mutable m_version : int;
}

let model_create pages =
  { m_hist = Array.make pages []; m_written = Array.make pages false; m_cursor = 0; m_version = 0 }

let model_live m = Array.fold_left (fun acc h -> acc + List.length h) 0 m.m_hist
let model_touched m = Array.fold_left (fun acc w -> if w then acc + 1 else acc) 0 m.m_written

let model_commit m pages =
  m.m_version <- m.m_version + 1;
  List.iter
    (fun (pg, s) ->
      m.m_hist.(pg) <- m.m_hist.(pg) @ [ (m.m_version, s) ];
      m.m_written.(pg) <- true)
    pages

let model_read m ~zero ~version pg =
  List.fold_left (fun acc (v, s) -> if v <= version then s else acc) zero m.m_hist.(pg)

(* Keep the newest snapshot at [<= min_base] plus everything newer. *)
let model_gc_page m ~min_base pg =
  let h = m.m_hist.(pg) in
  let dropped = List.length (List.filter (fun (v, _) -> v <= min_base) h) - 1 in
  if dropped <= 0 then 0
  else begin
    m.m_hist.(pg) <- List.filteri (fun k _ -> k >= dropped) h;
    dropped
  end

let model_gc m ~min_base ~budget =
  let n = Array.length m.m_hist in
  if model_live m = 0 then 0
  else begin
    let reclaimed = ref 0 and scanned = ref 0 in
    while !reclaimed < budget && !scanned < n do
      let i = m.m_cursor in
      m.m_cursor <- (i + 1) mod n;
      reclaimed := !reclaimed + model_gc_page m ~min_base i;
      incr scanned
    done;
    !reclaimed
  end

type gc_step = Commit of (int * char) list | Collect of int * int  (* min_base pick, budget *)

(* Apply one step to both; [Error] names the first disagreement. *)
let model_step seg m step =
  let zero = String.make (Vmem.Segment.page_size seg) '\000' in
  let disagree what = Error (Printf.sprintf "%s differs after v%d" what m.m_version) in
  let reclaimed_ok =
    match step with
    | Commit pages ->
        let pages = List.sort_uniq (fun (a, _) (b, _) -> compare a b) pages in
        model_commit m
          (List.map (fun (pg, c) -> (pg, String.make (String.length zero) c)) pages);
        apply_commits seg [ pages ];
        true
    | Collect (pick, budget) ->
        let min_base = pick mod (m.m_version + 1) in
        Vmem.Segment.gc seg ~min_base ~budget = model_gc m ~min_base ~budget
  in
  if not reclaimed_ok then disagree "reclaimed count"
  else if Vmem.Segment.live_snapshots seg <> model_live m then disagree "live_snapshots"
  else if Vmem.Segment.touched_pages seg <> model_touched m then disagree "touched_pages"
  else begin
    let reads_ok = ref true in
    for version = 0 to m.m_version do
      for pg = 0 to Array.length m.m_hist - 1 do
        if Bytes.to_string (Vmem.Segment.read_page seg ~version pg) <> model_read m ~zero ~version pg
        then reads_ok := false
      done
    done;
    if !reads_ok then Ok () else disagree "read_page"
  end

let model_run seg steps =
  let m = model_create (Vmem.Segment.page_count seg) in
  List.fold_left
    (fun acc step -> match acc with Error _ -> acc | Ok () -> model_step seg m step)
    (Ok ()) steps

let gen_gc_steps pages =
  let open QCheck.Gen in
  let commit =
    map
      (fun l -> Commit l)
      (list_size (int_range 1 pages) (pair (int_bound (pages - 1)) (char_range 'a' 'z')))
  in
  let budget = frequency [ (4, int_bound 4); (1, return max_int) ] in
  let collect = map2 (fun pick budget -> Collect (pick, budget)) nat budget in
  list_size (int_range 1 40) (frequency [ (3, commit); (2, collect) ])

let print_gc_steps (pages, steps) =
  Printf.sprintf "%d pages: %s" pages
    (String.concat "; "
       (List.map
          (function
            | Commit l ->
                "commit " ^ String.concat "," (List.map (fun (pg, c) -> Printf.sprintf "%d=%c" pg c) l)
            | Collect (pick, budget) -> Printf.sprintf "gc pick=%d budget=%d" pick budget)
          steps))

let prop_gc_matches_full_scan_model =
  QCheck.Test.make ~name:"gc matches the full-scan collector model" ~count:1000
    (QCheck.make ~print:print_gc_steps
       QCheck.Gen.(int_range 1 12 >>= fun pages -> map (fun s -> (pages, s)) (gen_gc_steps pages)))
    (fun (pages, steps) ->
      match model_run (Vmem.Segment.create ~pages ~page_size:4 ()) steps with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let test_segment_gc_model_sharded () =
  (* Commits of >= 64 pages spanning several shards take the pool
     fan-out install, so the accounting the collector relies on
     (touched pages, reclaimable flags) must not depend on which path
     installed the pages. *)
  let seg = Vmem.Segment.create ~pages:128 ~page_size:8 () in
  Vmem.Segment.set_shards seg 8;
  let wide r = Commit (List.init 100 (fun k -> ((k * 5 + r) mod 128, Char.chr (97 + r)))) in
  let steps =
    [ wide 0; wide 1; Collect (1, 3); wide 2; Collect (2, 0); wide 3; Collect (3, 4);
      Collect (3, 2); wide 4; Collect (5, max_int); wide 5; Collect (6, 1) ]
  in
  match model_run seg steps with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_segment_gc_allocates_nothing () =
  let seg = Vmem.Segment.create ~pages:256 ~page_size:8 () in
  let history () =
    (* Three snapshots of every fourth page; the rest stay untouched. *)
    apply_commits seg (List.init 3 (fun _ -> List.init 64 (fun k -> (k * 4, 'x'))))
  in
  let reclaimed = ref 0 in
  let collect budget () =
    reclaimed := Vmem.Segment.gc seg ~min_base:(Vmem.Segment.current_version seg) ~budget
  in
  history ();
  collect 5 ();
  collect max_int ();
  history ();
  let budgeted = collect 5 and unbounded = collect max_int in
  let baseline = Alloc_probe.minor_words_during ignore in
  let words = Alloc_probe.minor_words_during budgeted in
  (* Each page now drops 3, so a budget of 5 finishes the second page. *)
  check_int "budgeted gc collects whole pages" 6 !reclaimed;
  Alcotest.(check (float 0.0)) "budgeted gc" baseline words;
  let words = Alloc_probe.minor_words_during unbounded in
  check_int "unbounded gc reclaims the rest" ((64 * 3) - 6) !reclaimed;
  Alcotest.(check (float 0.0)) "unbounded gc" baseline words

let () =
  Alcotest.run "vmem"
    [
      ( "page",
        [
          Alcotest.test_case "create zeroed" `Quick test_page_create_zeroed;
          Alcotest.test_case "copy independent" `Quick test_page_copy_independent;
          Alcotest.test_case "diff count" `Quick test_page_diff_count;
          Alcotest.test_case "diff count zero" `Quick test_page_diff_count_zero;
          Alcotest.test_case "merge applies only changes" `Quick test_page_merge_applies_only_changes;
          Alcotest.test_case "merge overlap last-writer-wins" `Quick
            test_page_merge_overlap_last_writer_wins;
          Alcotest.test_case "merge length mismatch" `Quick test_page_merge_length_mismatch;
          Alcotest.test_case "diff at word boundaries" `Quick test_page_diff_word_boundary;
          Alcotest.test_case "diff unaligned tail" `Quick test_page_diff_unaligned_tail;
        ] );
      ( "segment",
        [
          Alcotest.test_case "initial state" `Quick test_segment_initial_state;
          Alcotest.test_case "commit creates versions" `Quick test_segment_commit_creates_versions;
          Alcotest.test_case "historical reads" `Quick test_segment_historical_reads;
          Alcotest.test_case "last_mod" `Quick test_segment_last_mod;
          Alcotest.test_case "duplicate page rejected" `Quick test_segment_duplicate_page_in_commit;
          Alcotest.test_case "modified_since" `Quick test_segment_modified_since;
          Alcotest.test_case "modified by others" `Quick test_segment_modified_by_others;
          Alcotest.test_case "gc reclaims obsolete" `Quick test_segment_gc_reclaims_obsolete;
          Alcotest.test_case "gc budget" `Quick test_segment_gc_budget;
          Alcotest.test_case "hash changes" `Quick test_segment_hash_changes;
          Alcotest.test_case "hash stable under gc" `Quick test_segment_hash_stable_under_gc;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "shard ranges" `Quick test_segment_shard_ranges;
          Alcotest.test_case "parallel install path" `Quick test_segment_parallel_install_path;
          Alcotest.test_case "gc_step equivalence" `Quick test_segment_gc_step_equivalence;
          Alcotest.test_case "gc_step work bound" `Quick test_segment_gc_step_bound;
          Alcotest.test_case "gc model through pool install" `Quick test_segment_gc_model_sharded;
          Alcotest.test_case "gc allocates nothing" `Quick test_segment_gc_allocates_nothing;
          Alcotest.test_case "seal/install equals commit" `Quick
            test_ws_seal_install_equals_commit;
          Alcotest.test_case "stale seal rejected" `Quick test_ws_install_stale_seal_rejected;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "read initial zero" `Quick test_ws_read_initial_zero;
          Alcotest.test_case "reads own writes" `Quick test_ws_reads_own_writes;
          Alcotest.test_case "isolation before update" `Quick test_ws_isolation_before_update;
          Alcotest.test_case "own view after commit" `Quick test_ws_commit_then_own_view;
          Alcotest.test_case "cross-page write/read" `Quick test_ws_cross_page_write_read;
          Alcotest.test_case "fault once per chunk" `Quick test_ws_write_fault_once_per_chunk;
          Alcotest.test_case "disjoint byte merge" `Quick test_ws_disjoint_byte_merge;
          Alcotest.test_case "overlap last-writer-wins" `Quick
            test_ws_overlapping_merge_last_writer_wins;
          Alcotest.test_case "merge preserves remote bytes" `Quick
            test_ws_merge_preserves_untouched_remote_bytes;
          Alcotest.test_case "update with dirty raises" `Quick test_ws_update_with_dirty_raises;
          Alcotest.test_case "update refreshes residents" `Quick test_ws_update_refreshes_residents;
          Alcotest.test_case "propagation excludes own" `Quick
            test_ws_propagation_excludes_own_commits;
          Alcotest.test_case "propagation counts remote" `Quick test_ws_propagation_counts_remote;
          Alcotest.test_case "empty commit noop" `Quick test_ws_empty_commit_noop;
          Alcotest.test_case "int64 roundtrip" `Quick test_ws_int64_roundtrip;
          Alcotest.test_case "int64 across boundary" `Quick test_ws_int64_across_page_boundary;
          Alcotest.test_case "out of range" `Quick test_ws_out_of_range;
          Alcotest.test_case "drop residents" `Quick test_ws_drop_residents;
          Alcotest.test_case "reads don't fault" `Quick test_ws_read_does_not_fault;
          Alcotest.test_case "resident access allocates nothing" `Quick
            test_ws_resident_access_allocates_nothing;
          Alcotest.test_case "update allocates only its result" `Quick
            test_ws_update_allocates_only_result;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_single_thread_matches_flat_memory;
          QCheck_alcotest.to_alcotest prop_commit_update_preserves_content;
          QCheck_alcotest.to_alcotest prop_disjoint_writers_merge_to_union;
          QCheck_alcotest.to_alcotest prop_gc_never_affects_readers_at_min_base;
          QCheck_alcotest.to_alcotest prop_gc_matches_full_scan_model;
          QCheck_alcotest.to_alcotest prop_workspace_gc_interplay;
          QCheck_alcotest.to_alcotest prop_page_table_spans_leaves;
          QCheck_alcotest.to_alcotest prop_sharded_commit_matches_serial;
          QCheck_alcotest.to_alcotest prop_seal_install_equals_commit;
          QCheck_alcotest.to_alcotest prop_word_diff_matches_byte_oracle;
          QCheck_alcotest.to_alcotest prop_word_merge_matches_byte_oracle;
        ] );
    ]
