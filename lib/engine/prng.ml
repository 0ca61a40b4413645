(* Deterministic pseudo-random numbers: xoshiro256++ seeded via splitmix64.
   Every stochastic component of the simulator draws from an explicitly
   threaded generator so that experiments are reproducible bit-for-bit. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed seed64 =
  let state = ref seed64 in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let create seed = of_seed (Int64.of_int seed)

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next_int64 g =
  let open Int64 in
  let result = add (rotl (add g.s0 g.s3) 23) g.s0 in
  let t = shift_left g.s1 17 in
  g.s2 <- logxor g.s2 g.s0;
  g.s3 <- logxor g.s3 g.s1;
  g.s1 <- logxor g.s1 g.s2;
  g.s0 <- logxor g.s0 g.s3;
  g.s2 <- logxor g.s2 t;
  g.s3 <- rotl g.s3 45;
  result

(* Keyed splitting: child [index] of a parent *seed*, a pure function of
   (parent, index). Child i is the same stream whether or not children
   0..i-1 were ever built, which is what per-kind fault streams and
   per-input fuzz streams need to stay replay-stable. Multiplying the index by an odd constant keeps sibling
   pre-mix states distinct; two splitmix64 rounds decorrelate them. *)
let split_seed parent ~index =
  let state =
    ref
      (Int64.logxor parent
         (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (index + 1))))
  in
  let (_ : int64) = splitmix64 state in
  splitmix64 state

let of_split parent ~index = of_seed (split_seed parent ~index)

(* Uniform float in [0, 1). Uses the top 53 bits. *)
let float g =
  let bits = Int64.shift_right_logical (next_int64 g) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let mask = Int64.of_int (bound - 1) in
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (next_int64 g) mask)
  else
    let rec draw () =
      let v = Int64.to_int (Int64.shift_right_logical (next_int64 g) 1) in
      let r = v mod bound in
      if v - r + (bound - 1) < 0 then draw () else r
    in
    draw ()

let int_in_range g ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in_range";
  lo + int g (hi - lo + 1)

let bernoulli g p = float g < p

let exponential g ~mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential";
  -. mean *. log (1.0 -. float g)

let normal g ~mean ~stddev =
  (* Box–Muller; uses one of the pair for simplicity. *)
  let u1 = 1.0 -. float g and u2 = float g in
  mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let pick g arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int g (Array.length arr))

let shuffle g arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Zipf-distributed ranks in [1, n] with exponent [s], via a precomputed
   cumulative table and binary search. Suits key-popularity skews like the
   Facebook ETC workload. *)
module Zipf = struct
  type dist = { cdf : float array }

  let create ~n ~s =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    let cdf = Array.make n 0.0 in
    let total = ref 0.0 in
    for k = 1 to n do
      total := !total +. (1.0 /. Float.pow (float_of_int k) s);
      cdf.(k - 1) <- !total
    done;
    for k = 0 to n - 1 do
      cdf.(k) <- cdf.(k) /. !total
    done;
    { cdf }

  let draw dist g =
    let u = float g in
    let cdf = dist.cdf in
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo + 1
end
