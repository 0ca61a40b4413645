(* The trust boundaries of the SVt protocol where faults are injected —
   the surface NecoFuzz-style fuzzers exercise on real nested stacks:
   the command rings of §5.2 (both directions), the vmcs12 descriptor L1
   hands to L0, the interrupt-injection path, and the SVT_BLOCKED
   handshake of §5.3. *)

type t = Ring_send | Ring_recv | Vmcs12 | Irq | Blocked
