(* The SplitMix64 state lives unboxed in an 8-byte buffer: an [int64]
   record field would box a fresh value at every draw.  The draws below
   are marked [@inline] so the 64-bit arithmetic stays in registers
   within each exported function; only [next_int64] (whose result is an
   [int64]) and the float-returning draws box, and each boxes nothing
   but its result. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)
let copy t = Bytes.copy t

(* SplitMix64 output function (Steele, Lea, Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

let next_int64 t = next t
let split t = of_state (next t)

let int t ~bound =
  assert (bound > 0);
  (* Mask to 62 bits so the value is a nonnegative OCaml int. *)
  let r = Int64.to_int (next t) land max_int in
  r mod bound

(* 53 random bits mapped to [0, 1). *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. (1.0 /. 9007199254740992.0)

let float t = unit_float t

let[@inline] jitter_factor t amplitude =
  assert (amplitude >= 0.0 && amplitude < 1.0);
  1.0 -. amplitude +. (2.0 *. amplitude *. unit_float t)

let jitter t ~amplitude = jitter_factor t amplitude

let jittered t ~amplitude ~scale n =
  int_of_float (float_of_int n *. scale *. jitter_factor t amplitude)

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let exponential t ~mean =
  assert (mean > 0.0);
  let u = unit_float t in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u
