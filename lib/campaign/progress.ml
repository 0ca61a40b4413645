(* Redraws are rate-limited to one per [min_interval_s] of wall time,
   plus always the final one. *)
let min_interval_s = 0.1

type t = {
  label : string;
  total : int;
  started_at : float;
  mutable done_ : int;
  mutable failed : int;
  mutable last_draw : float;
}

let create ~label ~total =
  {
    label;
    total;
    started_at = Unix.gettimeofday ();
    done_ = 0;
    failed = 0;
    last_draw = 0.0;
  }

let draw t now =
  let elapsed = now -. t.started_at in
  let rate = if elapsed > 0.0 then float_of_int t.done_ /. elapsed else 0.0 in
  Printf.eprintf "\r%s: %*d/%d done, %d failed, %.1f runs/s%!" t.label
    (String.length (string_of_int t.total))
    t.done_ t.total t.failed rate;
  t.last_draw <- now

let step t ~ok =
  t.done_ <- t.done_ + 1;
  if not ok then t.failed <- t.failed + 1;
  let now = Unix.gettimeofday () in
  if now -. t.last_draw >= min_interval_s || t.done_ = t.total then draw t now

let finish t =
  draw t (Unix.gettimeofday ());
  Printf.eprintf "\n%!"
