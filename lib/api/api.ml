type mutex = int
type cond = int
type barrier = int
type thread = int

type ops = {
  tid : int;
  self_name : string;
  work : int -> unit;
  read : addr:int -> len:int -> Bytes.t;
  read_into : addr:int -> Bytes.t -> unit;
  write : addr:int -> Bytes.t -> unit;
  read_int : addr:int -> int;
  write_int : addr:int -> int -> unit;
  fetch_add : addr:int -> int -> int;
  atomic_fetch_add : addr:int -> int -> int;
  lock : mutex -> unit;
  unlock : mutex -> unit;
  cond_wait : cond -> mutex -> unit;
  cond_signal : cond -> unit;
  cond_broadcast : cond -> unit;
  barrier_init : barrier -> int -> unit;
  barrier_wait : barrier -> unit;
  spawn : ?name:string -> (ops -> unit) -> thread;
  join : thread -> unit;
  log_output : string -> unit;
  yield : unit -> unit;
  base_version : unit -> int;
  snapshot_read : version:int -> addr:int -> len:int -> Bytes.t;
  now_ns : unit -> int;
  metric_incr : string -> int -> unit;
  metric_observe : string -> int -> unit;
  txn_validate : keys:int -> unit;
  txn_abort : seq:int -> retries:int -> unit;
}

type t = {
  name : string;
  description : string;
  default_threads : int;
  heap_pages : int;
  page_size : int;
  max_threads : int;
  main : nthreads:int -> ops -> unit;
}

let make ~name ?(description = "") ?(default_threads = 8) ?(heap_pages = 256)
    ?(page_size = 256) ?(max_threads = max_int) main =
  if heap_pages <= 0 || page_size <= 0 then invalid_arg "Api.make: bad heap geometry";
  if default_threads <= 0 || max_threads < default_threads then
    invalid_arg "Api.make: bad thread count";
  { name; description; default_threads; heap_pages; page_size; max_threads; main }

let check_threads t n =
  if n < 1 then Error (Printf.sprintf "%s needs at least 1 thread; %d requested" t.name n)
  else if n > t.max_threads then
    Error
      (Printf.sprintf "%s supports at most %d threads; %d requested" t.name t.max_threads n)
  else Ok ()
