(** Fig 10: runtime of each deterministic library normalized to pthreads,
    per benchmark, best configuration over a thread-count sweep.

    Paper headline claims this figure carries:
    - worst-case Consequence-IC slowdown 3.9x (DThreads 12.5x, DWC 11.0x);
    - 14 of 19 programs at or below 2.5x under Consequence-IC;
    - 2.8x / 2.2x average improvement over DThreads / DWC on the five
      most challenging programs.

    The notes and the main table cover the 19 paper programs only; the
    six KV service shapes get a table of their own. *)

val threads_sweep : int list
(** [2; 4; 8; 16; 32] — the paper measured 2-32 threads. *)

type row = {
  benchmark : string;
  suite : Workload.Registry.suite;
  ratios : (string * float) list;  (** runtime name, best-wall / pthreads-best-wall *)
}

val in_paper_set : row -> bool
(** The row is one of the paper's 19 programs (every suite but
    [Service]); the headline notes are computed over exactly these. *)

val measure : ?threads:int list -> ?seed:int -> unit -> row list
(** One row per registry program, in registry order: the 19 paper
    programs, then the six KV traffic shapes. *)

val run : ?threads:int list -> ?seed:int -> unit -> Fig_output.t
