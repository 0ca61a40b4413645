(* The paper's measurement procedure (§2.3, §6.1): repeat an experiment
   until the standard deviation (and timing overhead) is below 1% of the
   mean with 2-sigma confidence, after removing outliers with 4-sigma
   confidence. We reproduce it literally so micro-benchmarks report means
   with the same statistical discipline. *)

let target_rel_error = 0.01 (* CI half-width / mean threshold *)
let confidence_sigma = 2.0 (* z for the CI *)
let outlier_sigma = 4.0 (* rejection threshold *)
let min_samples = 16
let max_samples = 100_000

type result = { mean : float; samples_used : int; converged : bool }

let reject_outliers samples =
  let s = Summary.of_list samples in
  let mu = Summary.mean s and sd = Summary.stddev s in
  if Float.is_nan sd || sd = 0.0 then (samples, 0)
  else begin
    let keep x = Float.abs (x -. mu) <= outlier_sigma *. sd in
    let kept = List.filter keep samples in
    (kept, List.length samples - List.length kept)
  end

let summarize samples =
  let kept, _ = reject_outliers samples in
  let s = Summary.of_list kept in
  let mu = Summary.mean s in
  let half_width = confidence_sigma *. Summary.stderr_of_mean s in
  let converged =
    Summary.count s >= min_samples
    && (not (Float.is_nan half_width))
    && mu <> 0.0
    && Float.abs (half_width /. mu) <= target_rel_error
  in
  { mean = mu; samples_used = Summary.count s; converged }

(* Repeatedly run [sample] in batches until converged. *)
let run sample =
  let samples = ref [] in
  let count = ref 0 in
  let batch = Stdlib.max min_samples 8 in
  let result = ref None in
  while !result = None do
    for _ = 1 to batch do
      samples := sample () :: !samples;
      incr count
    done;
    let r = summarize !samples in
    if r.converged || !count >= max_samples then result := Some r
  done;
  Option.get !result
