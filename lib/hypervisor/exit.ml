(* A VM exit: the architectural reason plus the semantic action the
   trapping instruction was performing. The action carries enough payload
   for the emulating hypervisor to actually complete the operation (reply
   cells for reads), not just account for its cost. *)

module Exit_reason = Svt_arch.Exit_reason

type action =
  | Emulate_cpuid of { leaf : int; subleaf : int; reply : Svt_arch.Cpuid_db.regs option ref }
  | Wrmsr of { msr : Svt_arch.Msr.t; value : int64 }
  | Rdmsr of { msr : Svt_arch.Msr.t; reply : int64 option ref }
  | Mmio_write of { gpa : Svt_mem.Addr.Gpa.t; value : int64; size : int }
  | Mmio_read of { gpa : Svt_mem.Addr.Gpa.t; size : int; reply : int64 option ref }
  | Io_write of { port : int; value : int64; size : int }
  | Io_read of { port : int; size : int; reply : int64 option ref }
  | Halt
  | Page_fault of { gpa : Svt_mem.Addr.Gpa.t }
    (* first touch of an unmapped guest page: EPT violation *)
  | Vmcall of { nr : int; arg : int64; reply : int64 option ref }
  | Eoi
  | Interrupt_window
  | External_interrupt of { vector : int }
  | Pause

type info = { reason : Exit_reason.t; qualification : int64; action : action }

let reason_of_action = function
  | Emulate_cpuid _ -> Exit_reason.Cpuid
  | Wrmsr _ -> Exit_reason.Msr_write
  | Rdmsr _ -> Exit_reason.Msr_read
  | Mmio_write _ | Mmio_read _ -> Exit_reason.Ept_misconfig
  | Io_write _ | Io_read _ -> Exit_reason.Io_instruction
  | Halt -> Exit_reason.Hlt
  | Page_fault _ -> Exit_reason.Ept_violation
  | Vmcall _ -> Exit_reason.Vmcall
  | Eoi -> Exit_reason.Eoi_induced
  | Interrupt_window -> Exit_reason.Interrupt_window
  | External_interrupt _ -> Exit_reason.External_interrupt
  | Pause -> Exit_reason.Pause_exit

let of_action ?(qualification = 0L) action =
  { reason = reason_of_action action; qualification; action }
