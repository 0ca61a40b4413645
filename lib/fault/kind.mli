(** Fault kinds: what can go wrong at each injection site. The [name] of a
    kind is its plan-grammar token ([drop-ring:0.01]). *)

type t =
  | Drop_ring  (** a posted ring command is silently lost *)
  | Dup_ring  (** a posted ring command is delivered twice *)
  | Delay_ring  (** ring delivery delayed by {!param_ns} virtual ns *)
  | Corrupt_ring  (** the serialized command code is smashed *)
  | Corrupt_vmcs12
      (** a vmcs12 field is corrupted before the entry transform *)
  | Drop_irq  (** a guest vector is lost before injection *)
  | Spurious_irq  (** an extra, unsolicited vector is injected *)
  | Stall_blocked  (** the SVT_BLOCKED handshake leg stalls *)

val all : t list
val n : int

val index : t -> int
(** Dense 0-based index, for per-kind arrays. *)

val name : t -> string
val of_name : string -> t option

val param_ns : t -> int
(** Fixed virtual-clock magnitude of the kind (delay/stall/recovery
    span); 0 for kinds without one. Part of the model, not of the plan,
    so plans stay comparable. *)
