(* Coverage sink: an AFL-style fixed-size bitmap over protocol features.
   Each emitted span is hashed — span kind × the discriminating tags
   (exit reason, run mode, switch leg, transform direction, ring command,
   fault outcome) — into one of [size] slots; a set bit means "this
   handler path ran at least once". Hashing into a fixed map (rather
   than interning first-seen keys) keeps maps produced by different
   worker domains directly comparable, which is what lets the fuzzer
   merge per-input coverage into a global map deterministically.

   The sink rides the Probe like any other subscriber: installing it
   costs the usual one-branch [is_on] test per site and never advances
   virtual time. *)

type t = { bits : Bytes.t; mutable marks : int }

(* 8192 slots (1 KiB). The protocol feature space (12 span kinds × ~35
   exit reasons × a handful of modes/legs) is a few thousand keys, so
   collisions stay rare while serialized maps stay one ledger row wide. *)
let size = 8192

let create () = { bits = Bytes.make (size / 8) '\000'; marks = 0 }

(* FNV-1a on native ints, folded to a slot index. OCaml ints wrap mod
   2^63, which agrees with the 64-bit hash on every bit but the top one,
   so the 13 bits a slot reads are exactly 64-bit FNV-1a's. *)
let fnv_prime = 0x100000001b3
let fnv_offset = Int64.to_int 0xcbf29ce484222325L

let fnv_fold h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
  done;
  (* separate the concatenated key parts *)
  (!h lxor 0x1f) * fnv_prime

(* Fold the first value of tag [key], if any. *)
let rec fold_tag h key = function
  | [] -> h
  | (k, v) :: rest -> if String.equal k key then fnv_fold h v else fold_tag h key rest

let rec fold_keys h tags = function
  | [] -> h
  | key :: keys -> fold_keys (fold_tag h key tags) tags keys

(* Every key starts with the span kind's name, so its hash is folded once
   per kind here rather than once per span. *)
let kind_prefixes =
  let a = Array.make Span.n_kinds 0 in
  List.iter
    (fun k -> a.(Span.kind_index k) <- fnv_fold fnv_offset (Span.kind_name k))
    Span.all_kinds;
  a

let kind_prefix k = kind_prefixes.(Span.kind_index k)

let slot_of_span (span : Span.t) =
  fold_keys (kind_prefix span.Span.kind) span.Span.tags Span.key_tags
  land (size - 1)

let mark t slot =
  let byte = slot lsr 3 and bit = slot land 7 in
  let old = Char.code (Bytes.get t.bits byte) in
  Bytes.set t.bits byte (Char.chr (old lor (1 lsl bit)));
  t.marks <- t.marks + 1

let observe t span = mark t (slot_of_span span)
let attach t probe = Probe.subscribe probe (observe t)
let marks t = t.marks

let popcount_byte = Array.init 256 (fun n ->
    let c = ref 0 in
    for b = 0 to 7 do
      if n land (1 lsl b) <> 0 then incr c
    done;
    !c)

let bits t =
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount_byte.(Char.code c)) t.bits;
  !n

let mem t slot = Char.code (Bytes.get t.bits (slot lsr 3)) land (1 lsl (slot land 7)) <> 0

(* [merge_into ~into t]: OR [t]'s bits into [into]; the number of bits
   newly set in [into] is the fuzzer's "new coverage" signal. *)
let merge_into ~into t =
  let added = ref 0 in
  for i = 0 to Bytes.length t.bits - 1 do
    let a = Char.code (Bytes.get into.bits i)
    and b = Char.code (Bytes.get t.bits i) in
    let merged = a lor b in
    if merged <> a then begin
      added := !added + popcount_byte.(merged lxor a);
      Bytes.set into.bits i (Char.chr merged)
    end
  done;
  !added

let adds_coverage ~global t =
  let fresh = ref false in
  (try
     for i = 0 to Bytes.length t.bits - 1 do
       let a = Char.code (Bytes.get global.bits i)
       and b = Char.code (Bytes.get t.bits i) in
       if b land lnot a land 0xFF <> 0 then begin
         fresh := true;
         raise Exit
       end
     done
   with Exit -> ());
  !fresh

let equal a b = Bytes.equal a.bits b.bits

(* Hex (de)serialization, for persisting a kept input's map in its
   corpus-ledger row so resume can rebuild the global map without
   re-executing anything. *)

let to_hex t =
  let b = Buffer.create (2 * Bytes.length t.bits) in
  Bytes.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) t.bits;
  Buffer.contents b

let of_hex s =
  if String.length s <> size / 4 then
    invalid_arg "Coverage.of_hex: wrong length";
  let t = create () in
  for i = 0 to (size / 8) - 1 do
    let v = int_of_string ("0x" ^ String.sub s (2 * i) 2) in
    Bytes.set t.bits i (Char.chr v)
  done;
  t
