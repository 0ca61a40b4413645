(** Figure 10: soft-realtime video playback (mplayer with a 4K movie
    re-packaged at 24/60/120 FPS). Each frame decodes, arms the
    TSC-deadline timer for its vsync and halts; frames that slip past
    their deadline are dropped. Drops come from two virtualization-bound
    mechanisms: knife-edge heavy frames whose decode sits within the
    per-frame trap overhead of the 120 FPS budget, and periodic
    exit-burst stalls that only fit the budget when traps are cheap. *)

type result = {
  frames : int;
  dropped : int;
  idle_fraction : float;
      (** paper §6.3.3: L2 idles 61 % of the time at 120 FPS *)
}

val heavy_frame_rate : float
val decode_time : Svt_engine.Prng.t -> heavy:bool -> Svt_engine.Time.t

val run : ?seconds:int -> fps:int -> Svt_core.System.t -> result
(** Play [seconds] of video at [fps] on the system's vCPU 0 (default the
    paper's 5 minutes). *)
