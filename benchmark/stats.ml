(* Order statistics with the conventions of Python's [statistics]
   module ([median], and [quantiles] with its default "exclusive"
   method), so the medians and quartiles printed here match the ones
   recomputed from results.json with Python. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The [k - 1] cut points of [statistics.quantiles xs ~n:k]. A single
   sample is its own every cut point. *)
let cuts k xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then List.init (k - 1) (fun _ -> nan)
  else if n = 1 then List.init (k - 1) (fun _ -> a.(0))
  else
    let m = n + 1 in
    List.init (k - 1) (fun i ->
        let i = i + 1 in
        let j = max 1 (min (n - 1) (i * m / k)) in
        let delta = (i * m) - (j * k) in
        ((a.(j - 1) *. float_of_int (k - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int k)

let p90 xs = List.nth (cuts 10 xs) 8
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** A reported number: its value, the quartiles of the samples it was
    drawn from, and how many samples there were. *)
type summary = { value : float; q1 : float; q3 : float; n : int }

let summarize ?(value = median) xs =
  match cuts 4 xs with
  | [ q1; _; q3 ] -> { value = value xs; q1; q3; n = List.length xs }
  | _ -> assert false

let single v = { value = v; q1 = v; q3 = v; n = 1 }
