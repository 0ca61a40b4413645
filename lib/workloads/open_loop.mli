(** The synthetic per-tenant load of the consolidation host
    ({!Svt_sched.Host}): an endless CPU-bound compute/trap loop. Programs
    never terminate — the host scheduler advances them in bounded
    slices. *)

(** Shared per-tenant progress counter; every vCPU of a tenant mutates
    the same record (single-threaded within one simulator). *)
type counters = { mutable ops : int }

val counters : unit -> counters

val spawn : counters -> Svt_hyp.Vcpu.t -> unit
(** Install the endless tenant program on [vcpu]: 200 µs of guest
    compute, then one cpuid (a full nested trap episode) per op. *)
