(** Synthetic per-tenant load shapes for the consolidation host
    ({!Svt_sched.Host}): an endless CPU-bound compute/trap loop, or an
    open-loop request server with exponential arrivals. Programs never
    terminate — the host scheduler advances them in bounded slices. *)

type shape =
  | Cpu_bound of { burst : Svt_engine.Time.t }
      (** always runnable: [burst] of guest compute, then one cpuid (a
          full nested trap episode) per op *)
  | Open_arrivals of {
      mean_gap : Svt_engine.Time.t;
      burst : Svt_engine.Time.t;
    }
      (** exponential inter-arrival gaps; idles (timer + hlt) between
          requests and records per-request latency *)

val cpu_bound : shape
(** [Cpu_bound] with a 200 µs burst. *)

(** Shared per-tenant progress counters; every vCPU of a tenant mutates
    the same record (single-threaded within one simulator). *)
type counters = {
  mutable ops : int;
  latency : Svt_stats.Histogram.t;
      (** arrival→completion in ns; only [Open_arrivals] adds samples *)
}

val counters : unit -> counters

val spawn : shape:shape -> seed:int -> counters -> Svt_hyp.Vcpu.t -> unit
(** Install the endless tenant program on [vcpu]; [seed] must differ
    per vCPU for independent arrival streams. *)
