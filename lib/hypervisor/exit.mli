(** A VM exit: the architectural reason plus the semantic action the
    trapping instruction was performing. Actions carry enough payload
    (including reply cells for reads) for the emulating hypervisor to
    actually complete the operation, not just account for its cost. *)

type action =
  | Emulate_cpuid of {
      leaf : int;
      subleaf : int;
      reply : Svt_arch.Cpuid_db.regs option ref;
    }
  | Wrmsr of { msr : Svt_arch.Msr.t; value : int64 }
  | Rdmsr of { msr : Svt_arch.Msr.t; reply : int64 option ref }
  | Mmio_write of { gpa : Svt_mem.Addr.Gpa.t; value : int64; size : int }
  | Mmio_read of {
      gpa : Svt_mem.Addr.Gpa.t;
      size : int;
      reply : int64 option ref;
    }
  | Io_write of { port : int; value : int64; size : int }
  | Io_read of { port : int; size : int; reply : int64 option ref }
  | Halt
  | Page_fault of { gpa : Svt_mem.Addr.Gpa.t }
      (** first touch of an unmapped guest page: EPT violation *)
  | Vmcall of { nr : int; arg : int64; reply : int64 option ref }
  | Eoi
  | Interrupt_window
  | External_interrupt of { vector : int }
  | Pause

type info = {
  reason : Svt_arch.Exit_reason.t;
  qualification : int64;
  action : action;
}

val of_action : ?qualification:int64 -> action -> info
(** Build the [info] with the architecturally matching exit reason. *)
