(* Heap geometry of the KV store.  The keyspace is a dense array of
   fixed-size slots at the bottom of the heap; behind it sit four status
   pages (one word per server thread each) and one page-aligned intent
   region per thread.  Keys hash onto page ranges implicitly — 16 keys
   share a 256-byte page — so neighbouring keys contend at page
   granularity exactly as the paper's merge machinery expects, and the
   segment's shard map (PR 7) splits the key range across commit locks. *)

let page_size = 256
let n_keys = 256

(* 8-byte value followed by an 8-byte version word (counts the
   committed writes to the key). *)
let key_bytes = 16
let value_addr k = k * key_bytes
let ver_addr k = (k * key_bytes) + 8
let data_pages = n_keys * key_bytes / page_size

(* One word per server thread on each status page; written only by the
   owning thread (disjoint 8-byte words, so concurrent phase-B commits
   byte-merge cleanly) and read by everyone after the round barrier. *)
let max_threads = page_size / 8
let status_addr page tid = (page * page_size) + (tid * 8)
let remaining_addr tid = status_addr data_pages tid
let checksum_addr tid = status_addr (data_pages + 1) tid
let commits_addr tid = status_addr (data_pages + 2) tid
let reexecs_addr tid = status_addr (data_pages + 3) tid

(* Per-thread intent region: the round's published intents every thread
   folds in phase B.  8 pages = 256 words, above the worst-case round
   footprint of 137 words ([Service.batch] updates of [Txn.max_reads]
   ranges and [Txn.max_writes] keys). *)
let intent_pages = 8
let intent_base_page = data_pages + 4
let intent_addr tid = (intent_base_page + (tid * intent_pages)) * page_size
let intent_bytes = intent_pages * page_size
let heap_pages = intent_base_page + (max_threads * intent_pages)

(* Initial value of key [k]; non-trivial so read sums depend on real
   state from round 0. *)
let initial_value k = (k * 13) + 7
