(** Point-to-point network fabric: the 10 GbE link between the host NIC
    and the separate client machine of Table 4. Delivery pays one-way
    propagation (wire + switch + remote stack) plus serialization at
    link rate with per-MSS framing; a busy link queues. *)

type endpoint
type t

val create : Svt_engine.Simulator.t -> cost:Svt_arch.Cost_model.t -> t

val endpoint_a : t -> endpoint
val endpoint_b : t -> endpoint

val on_deliver : endpoint -> (string -> unit) -> unit
(** Callback invoked at arrival time (scheduler context, not a process). *)

val send : t -> from:endpoint -> string -> unit
(** Transmit toward the other endpoint; returns immediately (the wire
    occupancy is tracked internally). Packets are immutable, so one
    packet may be in flight many times over and no receiver can change
    what another event still holds. *)
