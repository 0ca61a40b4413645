(* Human-readable fault summary, deterministic (Outcome.all order). *)
