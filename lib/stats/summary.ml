(* Streaming summary statistics using Welford's online algorithm, which is
   numerically stable for the long accumulation runs the convergence
   procedure performs. *)

type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { n = 0; mean = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)

let stderr_of_mean t =
  if t.n < 2 then nan else stddev t /. sqrt (float_of_int t.n)

let merge a b =
  (* Chan et al. parallel combination; used when merging per-vCPU stats. *)
  if b.n = 0 then a
  else if a.n = 0 then b
  else begin
    let n = a.n + b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.n *. float_of_int b.n
          /. float_of_int n)
    in
    { n; mean; m2;
      min_v = Stdlib.min a.min_v b.min_v;
      max_v = Stdlib.max a.max_v b.max_v }
  end

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t
