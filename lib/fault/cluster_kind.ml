(* Cluster-scope fault kinds. Where [Kind] anchors faults at injection
   sites inside one nested stack, these strike whole simulated hosts in
   a fleet: a host crashes and loses its tenants, degrades (its
   scheduling quantum buys less tenant progress — quantum inflation), or
   flaps (a short outage that repeats, the classic quarantine bait).
   Names double as plan-grammar tokens (`host-crash:0.01`), sharing the
   `kind:rate` spelling with the stack-level grammar so one campaign
   fault axis can carry both vocabularies.

   Magnitudes (outage lengths, the inflation factor) are fixed model
   parameters, like [Kind.param_ns]: rates vary per plan, magnitudes do
   not, so two plans with the same rates are comparable. They are
   denominated in fleet epochs — the cluster's scheduling round — not
   nanoseconds, because that is the granularity at which a fleet
   observes and repairs them. *)

type t =
  | Host_crash (* the host dies; every tenant on it is evacuated *)
  | Host_degrade (* quantum inflation: entitlement per round shrinks *)
  | Host_flap (* a short, repeating outage *)

let all = [ Host_crash; Host_degrade; Host_flap ]
let n = List.length all
let index = function Host_crash -> 0 | Host_degrade -> 1 | Host_flap -> 2

let name = function
  | Host_crash -> "host-crash"
  | Host_degrade -> "host-degrade"
  | Host_flap -> "host-flap"

(* Outage spans, in fleet epochs. A crash needs detection, reboot and
   rejoin (long); a flap is a blip that clears almost immediately — its
   danger is the repetition, which the failure-window quarantine exists
   to catch. Degrade has no outage: the host stays up, slower. *)
let outage_epochs = function
  | Host_crash -> 40
  | Host_flap -> 2
  | Host_degrade -> 0

(* How long a degrade episode lasts, and how much it inflates the
   quantum: granted entitlement per round is divided by the factor. *)
let degrade_epochs = 25
let degrade_inflation = 4.0
