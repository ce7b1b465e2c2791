(* The untimed and timed FNV-1a states live unboxed in [st] (bytes 0-7
   and 8-15): an [Fnv.t] field would box a fresh int64 at every fold
   step.  [record] folds exactly the bytes [Fnv.int]/[Fnv.string] would,
   in the same order, so the digests are plain FNV-1a over the stream. *)
type t = { mutable count : int; st : Bytes.t }

let create () =
  let st = Bytes.create 16 in
  Bytes.set_int64_le st 0 Fnv.init;
  Bytes.set_int64_le st 8 Fnv.init;
  { count = 0; st }

(* [Fnv.byte], restated here so it inlines: dune's dev profile compiles
   libraries [-opaque], and a cross-module call would box both ends. *)
let[@inline] byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) Fnv.prime

(* Fold one event; with [numbered], the decimal digits of [n] follow
   [label], exactly as if the label were [label ^ string_of_int n]. *)
let fold t ~time ~tid ~label ~numbered n =
  t.count <- t.count + 1;
  let h = ref (Bytes.get_int64_le t.st 0) and th = ref (Bytes.get_int64_le t.st 8) in
  for shift = 0 to 7 do
    th := byte !th (time lsr (shift * 8))
  done;
  for shift = 0 to 7 do
    let b = tid lsr (shift * 8) in
    h := byte !h b;
    th := byte !th b
  done;
  for i = 0 to String.length label - 1 do
    let b = Char.code (String.unsafe_get label i) in
    h := byte !h b;
    th := byte !th b
  done;
  if numbered then begin
    if n < 0 then begin
      h := byte !h (Char.code '-');
      th := byte !th (Char.code '-')
    end;
    (* [p] is the place value of [n]'s leading digit. *)
    let p = ref 1 in
    while n / !p >= 10 || n / !p <= -10 do
      p := !p * 10
    done;
    while !p > 0 do
      let b = Char.code '0' + abs (n / !p mod 10) in
      h := byte !h b;
      th := byte !th b;
      p := !p / 10
    done
  end;
  Bytes.set_int64_le t.st 0 !h;
  Bytes.set_int64_le t.st 8 !th

let record t ~time ~tid ~label = fold t ~time ~tid ~label ~numbered:false 0
let record_int t ~time ~tid ~label n = fold t ~time ~tid ~label ~numbered:true n

let length t = t.count
let hash t = Fnv.to_hex (Bytes.get_int64_le t.st 0)
let timed_hash t = Fnv.to_hex (Bytes.get_int64_le t.st 8)
