(** Injection sites: the trust boundaries of the SVt protocol (command
    rings, the guest-supplied vmcs12, interrupt injection, and the
    SVT_BLOCKED handshake). Each {!Kind.t} of fault anchors at exactly
    one site. *)

type t = Ring_send | Ring_recv | Vmcs12 | Irq | Blocked
