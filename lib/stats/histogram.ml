(* Log-bucketed latency histogram in the style of HdrHistogram: values are
   grouped into buckets whose width doubles every [sub_buckets] entries,
   giving a bounded relative error at every magnitude. Good enough for the
   paper's tail-latency (99th percentile) reporting. *)

type t = {
  counts : int array;
  mutable total : int;
  mutable sum : float;
  mutable max_v : int;
}

let buckets = 64

(* log2 of sub-buckets per doubling: 32 per doubling, ≈3% worst-case
   relative error *)
let sb = 5

let create () =
  { counts = Array.make ((buckets + 1) lsl sb) 0;
    total = 0; sum = 0.0; max_v = 0 }

(* Values in [2^k, 2^(k+1)) for k >= sb are subdivided into 2^sb
   sub-buckets of width 2^(k - sb); values below 2^sb get exact unit
   buckets. *)
let index v =
  if v < 0 then invalid_arg "Histogram.add: negative value";
  let sub = 1 lsl sb in
  if v < sub then v
  else begin
    let rec top_bit b = if v lsr b > 1 then top_bit (b + 1) else b in
    let k = top_bit 0 in
    let block = k - sb + 1 in
    (block lsl sb) + ((v lsr (k - sb)) - sub)
  end

(* Upper-bound value for a bucket index. *)
let value_of_index idx =
  let sub = 1 lsl sb in
  if idx < sub then idx
  else begin
    let block = idx lsr sb in
    let k = block + sb - 1 in
    let mantissa = (idx land (sub - 1)) + sub in
    ((mantissa + 1) lsl (k - sb)) - 1
  end

let add t v =
  (* Values beyond the top bucket are clamped into it rather than
     dropped: count/mean/max must see every sample, and the percentile
     scan already caps bucket upper bounds at the observed max. *)
  let idx = Stdlib.min (index v) (Array.length t.counts - 1) in
  t.counts.(idx) <- t.counts.(idx) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum +. float_of_int v;
  if v > t.max_v then t.max_v <- v

let count t = t.total
let mean t = if t.total = 0 then nan else t.sum /. float_of_int t.total
let max_value t = if t.total = 0 then 0 else t.max_v

(* The rank is clamped to [1, total]: p <= 0 reads the lowest non-empty
   bucket. *)
let percentile t p =
  if t.total = 0 then 0
  else begin
    let rank =
      Stdlib.max 1
        (Stdlib.min t.total
           (int_of_float (ceil (p /. 100.0 *. float_of_int t.total))))
    in
    let rec scan idx seen =
      if idx >= Array.length t.counts then t.max_v
      else begin
        let seen = seen + t.counts.(idx) in
        if seen >= rank then Stdlib.min (value_of_index idx) t.max_v
        else scan (idx + 1) seen
      end
    in
    scan 0 0
  end

let p99 t = percentile t 99.0
