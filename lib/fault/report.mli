(** Deterministic, human-readable summary of an injector's outcome
    counts (stable {!Outcome.all} order). *)
