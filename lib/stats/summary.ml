(* Streaming summary statistics using Welford's online algorithm, which is
   numerically stable for the long accumulation runs the convergence
   procedure performs. *)

type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
}

let create () = { n = 0; mean = 0.0; m2 = 0.0 }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)

let stderr_of_mean t =
  if t.n < 2 then nan else stddev t /. sqrt (float_of_int t.n)

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t
