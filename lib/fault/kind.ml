(* Concrete fault kinds, each anchored at one injection site. Names
   double as the plan-grammar tokens (`drop-ring:0.01`). Kinds with a
   magnitude (delays, stalls, recovery timeouts) carry a fixed
   virtual-clock parameter: rates vary per plan, magnitudes are part of
   the model, so two plans with the same rates are comparable. *)

type t =
  | Drop_ring (* a posted command is silently lost *)
  | Dup_ring (* a posted command is delivered twice *)
  | Delay_ring (* delivery is delayed by a fixed virtual span *)
  | Corrupt_ring (* the serialized command code is smashed *)
  | Corrupt_vmcs12 (* a vmcs12 field is corrupted before the entry transform *)
  | Drop_irq (* a guest vector is lost before injection *)
  | Spurious_irq (* an extra, unsolicited vector is injected *)
  | Stall_blocked (* the SVT_BLOCKED handshake leg stalls *)

let all =
  [ Drop_ring; Dup_ring; Delay_ring; Corrupt_ring; Corrupt_vmcs12; Drop_irq;
    Spurious_irq; Stall_blocked ]

let n = List.length all

let index = function
  | Drop_ring -> 0
  | Dup_ring -> 1
  | Delay_ring -> 2
  | Corrupt_ring -> 3
  | Corrupt_vmcs12 -> 4
  | Drop_irq -> 5
  | Spurious_irq -> 6
  | Stall_blocked -> 7

let name = function
  | Drop_ring -> "drop-ring"
  | Dup_ring -> "dup-ring"
  | Delay_ring -> "delay-ring"
  | Corrupt_ring -> "corrupt-ring"
  | Corrupt_vmcs12 -> "corrupt-vmcs12"
  | Drop_irq -> "drop-irq"
  | Spurious_irq -> "spurious-irq"
  | Stall_blocked -> "stall-blocked"

let of_name s = List.find_opt (fun k -> name k = s) all

(* Fixed virtual-clock magnitudes. A dropped IRQ is re-delivered only
   after the guest driver's own timeout/retransmit path kicks in, hence
   the much larger recovery span. *)
let param_ns = function
  | Delay_ring -> 2_000
  | Stall_blocked -> 5_000
  | Drop_irq -> 50_000
  | Drop_ring | Dup_ring | Corrupt_ring | Corrupt_vmcs12 | Spurious_irq -> 0
