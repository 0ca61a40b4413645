(* Architectural semantics of emulated operations — what the handling
   hypervisor actually *does*, as opposed to what it costs (the cost model)
   or who pays it (the trap path). Shared by every run mode and by both
   the single-level and nested paths, which is what keeps the modes
   behaviourally identical: SVt only changes how control and state move,
   never what the emulation computes (paper §3). *)

module Time = Svt_engine.Time
module Msr = Svt_arch.Msr
module Lapic = Svt_interrupt.Lapic

(* The simulated TSC runs at 1 GHz: TSC ticks == simulated nanoseconds.
   Keeps IA32_TSC_DEADLINE arithmetic transparent. *)
let tsc_of_time t = Int64.of_int (Time.to_ns t)
let time_of_tsc v = Time.of_ns (Int64.to_int v)

let apply (vcpu : Vcpu.t) (action : Exit.action) =
  match action with
  | Exit.Emulate_cpuid { leaf; subleaf; reply } ->
      reply :=
        Some (Svt_arch.Cpuid_db.query (Vm.cpuid_db (Vcpu.vm vcpu)) ~leaf ~subleaf)
  | Wrmsr { msr; value } -> (
      Msr.File.write (Vcpu.msrs vcpu) msr value;
      match msr with
      | Msr.Ia32_tsc_deadline ->
          Lapic.arm_deadline (Vcpu.lapic vcpu) ~deadline:(time_of_tsc value)
      | _ -> ())
  | Rdmsr { msr; reply } -> (
      match msr with
      | Msr.Ia32_tsc ->
          reply :=
            Some (tsc_of_time (Machine.now (Vcpu.machine vcpu)))
      | _ -> reply := Some (Msr.File.read (Vcpu.msrs vcpu) msr))
  | Mmio_write { gpa; value; size } ->
      ignore (Vm.handle_mmio (Vcpu.vm vcpu) gpa value size)
  | Mmio_read { gpa; size; reply } ->
      reply :=
        Some (Option.value ~default:0L (Vm.handle_mmio (Vcpu.vm vcpu) gpa 0L size))
  (* No port-I/O device and no hypercall service is modelled: a PIO read
     answers 0, a write is dropped, and a vmcall gets no reply. *)
  | Io_read { reply; _ } -> reply := Some 0L
  | Io_write _ -> ()
  | Vmcall { reply; _ } -> reply := None
  | Eoi -> Lapic.eoi (Vcpu.lapic vcpu)
  | Page_fault _ | Halt | Interrupt_window | External_interrupt _ | Pause -> ()
