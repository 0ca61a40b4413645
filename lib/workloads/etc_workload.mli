(** Figure 8: memcached under Facebook's ETC workload, driven by a
    mutilate-style open-loop client from the separate machine.

    The server runs a real {!Kvstore} inside the guest, one worker per
    vCPU with its own virtio-net queue; the client draws Zipfian keys and
    ETC value sizes and issues requests with exponential gaps at the
    target load. *)

val key_space : int
(** The Zipfian key ranks run [1 .. key_space]; the store is pre-warmed
    with every one. *)

val key_of : int -> string
(** The store key of a rank: ["etc:key:"] and the rank in seven
    zero-padded digits. Raises [Invalid_argument] outside
    [0 .. 9_999_999]. *)

val value_size : Svt_engine.Prng.t -> int
(** Draw from the ETC value-size mix (tens of bytes to a few KB, heavy
    tail). *)

type request = { is_get : bool; id : int; rank : int; vsize : int }

val encode_request : is_get:bool -> id:int -> rank:int -> vsize:int -> string
val decode_request : bytes -> request

type point = {
  offered_qps : float;
  achieved_qps : float;
  avg_us : float;
  p99_us : float;
  requests : int;
}

val run_point :
  ?duration:Svt_engine.Time.t -> qps:float -> Svt_core.System.t -> point
(** One load point on an already-built (multi-vCPU) nested system. *)

val sweep :
  ?loads:float list ->
  ?duration:Svt_engine.Time.t ->
  mode:Svt_core.Mode.t ->
  unit ->
  point list
(** The Figure 8 load sweep (5–22.5 k qps by default), each point on a
    fresh 2-vCPU system. *)

val capacity_within_sla : sla_us:float -> point list -> float
(** Highest offered load whose p99 met the SLA, a p99 bound in µs. *)
