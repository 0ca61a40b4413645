(* Tests for the architectural model: registers, the shared physical
   register file with rename maps, MSRs and intercept bitmaps, CPUID
   views, exit reasons, the SMT/SVt core state machine and the cross-
   context access instructions, and cost-model internals. *)

module Reg = Svt_arch.Reg
module Backend = Svt_arch.Backend
module Regfile = Svt_arch.Regfile
module Msr = Svt_arch.Msr
module Cpuid_db = Svt_arch.Cpuid_db
module Exit_reason = Svt_arch.Exit_reason
module Smt_core = Svt_arch.Smt_core
module Cost_model = Svt_arch.Cost_model

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

(* --- Reg ----------------------------------------------------------------- *)

let test_reg_switched_set () =
  checki "16 GPRs" 16 (List.length Reg.all_gprs);
  (* "dozens of registers" (§1): the switched set must be large *)
  checkb "dozens" true (Reg.switched_count >= 24);
  checkb "rip included" true (List.mem Reg.Rip Reg.switched_set);
  checkb "cr3 included" true (List.mem (Reg.Cr 3) Reg.switched_set)

let test_reg_names_unique () =
  let names = List.map Reg.name Reg.switched_set in
  checki "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_reg_slots () =
  List.iteri
    (fun i r -> checki ("slot of " ^ Reg.name r) i (Reg.slot r))
    Reg.switched_set;
  List.iter
    (fun r -> checki ("unswitched " ^ Reg.name r) (-1) (Reg.slot r))
    [ Reg.Cr 2; Reg.Dr 0; Reg.Segment "gdtr" ]

(* --- Regfile ------------------------------------------------------------- *)

let make_rf () = Regfile.create ~contexts:3 ~physical_entries:168

let test_regfile_isolated_contexts () =
  let rf = make_rf () in
  Regfile.write rf ~ctx:0 (Reg.Gpr Reg.RAX) 11L;
  Regfile.write rf ~ctx:1 (Reg.Gpr Reg.RAX) 22L;
  Regfile.write rf ~ctx:2 (Reg.Gpr Reg.RAX) 33L;
  check64 "ctx0" 11L (Regfile.read rf ~ctx:0 (Reg.Gpr Reg.RAX));
  check64 "ctx1" 22L (Regfile.read rf ~ctx:1 (Reg.Gpr Reg.RAX));
  check64 "ctx2" 33L (Regfile.read rf ~ctx:2 (Reg.Gpr Reg.RAX))

let test_regfile_cross_context_read_is_shared_file () =
  let rf = make_rf () in
  Regfile.write rf ~ctx:1 Reg.Rip 0xCAFEL;
  (* "cross-context" access = reading through the other context's map *)
  let phys = Regfile.phys_of rf ~ctx:1 Reg.Rip in
  checkb "physical index valid" true (phys >= 0 && phys < 168);
  check64 "read via ctx1 map" 0xCAFEL (Regfile.read rf ~ctx:1 Reg.Rip)

let test_regfile_too_small_rejected () =
  Alcotest.check_raises "sizing"
    (Invalid_argument "Regfile.create: physical file too small for all contexts")
    (fun () -> ignore (Regfile.create ~contexts:4 ~physical_entries:32))

let test_regfile_bad_context () =
  let rf = make_rf () in
  Alcotest.check_raises "bad ctx" (Invalid_argument "Regfile: bad context index")
    (fun () -> ignore (Regfile.read rf ~ctx:9 Reg.Rip))

(* Model-based check: random operation sequences against a reference
   register file built from an ordered map per context. *)
module Ref_regfile = struct
  module M = Map.Make (struct
    type t = Reg.t

    let compare = compare
  end)

  type t = { entries : int64 array; maps : int M.t array }

  let create ~contexts ~physical_entries =
    let next = ref 0 in
    let maps =
      Array.init contexts (fun _ ->
          List.fold_left
            (fun m reg ->
              let idx = !next in
              incr next;
              M.add reg idx m)
            M.empty Reg.switched_set)
    in
    { entries = Array.make physical_entries 0L; maps }

  let phys_of t ~ctx reg = M.find_opt reg t.maps.(ctx)
end

type rf_op = Rf_write of int * Reg.t * int64

let rf_pool = Reg.switched_set @ [ Reg.Cr 2; Reg.Dr 0; Reg.Segment "gdtr" ]

let rf_op_to_string = function
  | Rf_write (c, r, v) -> Printf.sprintf "write %d %s %Ld" c (Reg.name r) v

let rf_case =
  let open QCheck.Gen in
  let* contexts = int_range 1 4 in
  let* spare = int_range 0 8 in
  let ctx = int_bound (contexts - 1) and reg = oneofl rf_pool in
  let op = map3 (fun c r v -> Rf_write (c, r, Int64.of_int v)) ctx reg small_nat in
  let+ ops = list_size (int_bound 60) op in
  (contexts, (contexts * Reg.switched_count) + spare, ops)

let prop_regfile_matches_model =
  QCheck.Test.make ~name:"regfile agrees with map+list model" ~count:300
    (QCheck.make rf_case
       ~print:(fun (c, n, ops) ->
         Printf.sprintf "contexts=%d entries=%d: %s" c n
           (String.concat "; " (List.map rf_op_to_string ops))))
    (fun (contexts, physical_entries, ops) ->
      let rf = Regfile.create ~contexts ~physical_entries in
      let m = Ref_regfile.create ~contexts ~physical_entries in
      let apply = function
        | Rf_write (ctx, reg, v) -> (
            match Ref_regfile.phys_of m ~ctx reg with
            | Some idx ->
                m.Ref_regfile.entries.(idx) <- v;
                Regfile.write rf ~ctx reg v;
                true
            | None -> (
                try
                  Regfile.write rf ~ctx reg v;
                  false
                with Invalid_argument _ -> true))
      in
      let agrees () =
        List.for_all
             (fun ctx ->
               List.for_all
                 (fun reg ->
                   match Ref_regfile.phys_of m ~ctx reg with
                   | Some idx ->
                       Regfile.phys_of rf ~ctx reg = idx
                       && Regfile.read rf ~ctx reg = m.Ref_regfile.entries.(idx)
                   | None -> (
                       try
                         ignore (Regfile.read rf ~ctx reg);
                         false
                       with Invalid_argument _ -> true))
                 rf_pool)
             (List.init contexts Fun.id)
      in
      List.for_all (fun op -> apply op && agrees ()) ops)

(* --- MSRs ---------------------------------------------------------------- *)

let test_msr_file () =
  let f = Msr.File.create () in
  check64 "default zero" 0L (Msr.File.read f Msr.Ia32_efer);
  Msr.File.write f Msr.Ia32_efer 0xD01L;
  check64 "written" 0xD01L (Msr.File.read f Msr.Ia32_efer)

(* --- CPUID --------------------------------------------------------------- *)

(* Leaf 1 ECX feature bits. *)
let has_ecx_bit bit db =
  let r = Cpuid_db.query db ~leaf:1 ~subleaf:0 in
  Int64.logand r.Cpuid_db.ecx (Int64.shift_left 1L bit) <> 0L

let has_vmx = has_ecx_bit 5
let has_hypervisor_bit = has_ecx_bit 31

let test_cpuid_host_has_vmx_no_hv_bit () =
  let db = Cpuid_db.host () in
  checkb "vmx" true (has_vmx db);
  checkb "no hypervisor bit on bare metal" false (has_hypervisor_bit db)

let test_cpuid_guest_views () =
  let host = Cpuid_db.host () in
  let l1 = Cpuid_db.guest_view host ~expose_vmx:true in
  let l2 = Cpuid_db.guest_view l1 ~expose_vmx:false in
  checkb "l1 sees vmx (can nest)" true (has_vmx l1);
  checkb "l1 sees hypervisor" true (has_hypervisor_bit l1);
  checkb "l2 has no vmx" false (has_vmx l2);
  checkb "l2 sees hypervisor" true (has_hypervisor_bit l2)

let test_cpuid_vendor_string () =
  let db = Cpuid_db.host () in
  let r = Cpuid_db.query db ~leaf:0 ~subleaf:0 in
  (* "Genu" "ineI" "ntel" packed little-endian in EBX/EDX/ECX *)
  check64 "ebx" 0x756E6547L r.Cpuid_db.ebx;
  check64 "edx" 0x49656E69L r.Cpuid_db.edx

let test_cpuid_unknown_leaf_zero () =
  let db = Cpuid_db.host () in
  let r = Cpuid_db.query db ~leaf:0x1234 ~subleaf:9 in
  check64 "zeros" 0L r.Cpuid_db.eax

(* --- Exit reasons --------------------------------------------------------- *)

let test_exit_reason_numbers_match_sdm () =
  checki "CPUID" 10 (Exit_reason.basic_number Exit_reason.Cpuid);
  checki "HLT" 12 (Exit_reason.basic_number Exit_reason.Hlt);
  checki "VMRESUME" 24 (Exit_reason.basic_number Exit_reason.Vmresume);
  checki "EPT_MISCONFIG" 49 (Exit_reason.basic_number Exit_reason.Ept_misconfig);
  checki "MSR_WRITE" 32 (Exit_reason.basic_number Exit_reason.Msr_write)

let test_exit_reason_vmx_class () =
  checkb "vmread is vmx" true (Exit_reason.is_vmx_instruction Exit_reason.Vmread);
  checkb "invept is vmx" true (Exit_reason.is_vmx_instruction Exit_reason.Invept);
  checkb "cpuid is not" false (Exit_reason.is_vmx_instruction Exit_reason.Cpuid)

(* --- SMT core / SVt ------------------------------------------------------- *)

let make_core () = Smt_core.create ~id:0 ~n_contexts:3 ()

let test_core_trap_resume_switch_fetch_target () =
  let core = make_core () in
  Smt_core.load_svt_fields core ~visor:0 ~vm:1;
  checki "starts at ctx0" 0 (Smt_core.current core);
  Smt_core.vm_resume core;
  checki "resume fetches from SVt_vm" 1 (Smt_core.current core);
  Smt_core.vm_trap core;
  checki "trap fetches from SVt_visor" 0 (Smt_core.current core);
  checki "two switches" 2 (Smt_core.switches core)

let test_core_single_active_context () =
  let core = make_core () in
  Smt_core.load_svt_fields core ~visor:0 ~vm:2;
  Smt_core.vm_resume core;
  checki "ctx2 is the one fetching" 2 (Smt_core.current core)

let test_core_interference_model () =
  let core = make_core () in
  Alcotest.(check (float 1e-9)) "no pollers" 1.0 (Smt_core.interference_factor core);
  Smt_core.set_polling_siblings core 1;
  checkb "poller slows compute" true (Smt_core.interference_factor core > 1.0);
  checki "scaled" 135 (Smt_core.scale_compute core 100);
  Smt_core.set_polling_siblings core 0;
  checki "back to nominal" 100 (Smt_core.scale_compute core 100)

let test_core_resume_without_vm_rejected () =
  let core = make_core () in
  Smt_core.load_svt_fields core ~visor:0 ~vm:Smt_core.invalid_ctx;
  Alcotest.check_raises "no SVt_vm"
    (Invalid_argument "Smt_core.vm_resume: no SVt_vm") (fun () ->
      Smt_core.vm_resume core)

(* --- Cost model ------------------------------------------------------------ *)

let test_cost_model_table1_structure () =
  let cm = Cost_model.paper_machine in
  (* the calibration identities behind Table 1 *)
  checki "part 1 = trap + resume" 810 (cm.trap_hw + cm.resume_hw);
  checki "part 4 = world switch pair" 1400
    (cm.resume_hw + cm.l1_world_extra + cm.trap_hw + cm.l1_world_extra)

let test_cost_model_profiles () =
  let cm = Cost_model.paper_machine in
  let cpuid = Cost_model.profile cm Svt_arch.Exit_reason.Cpuid in
  let ept = Cost_model.profile cm Svt_arch.Exit_reason.Ept_misconfig in
  checki "cpuid is the best case: one aux exit" 1
    cpuid.Cost_model.l1_aux_exits;
  checkb "I/O handlers trap many more times (§2.3)" true
    (ept.Cost_model.l1_aux_exits > 5);
  let vmread = Cost_model.profile cm Svt_arch.Exit_reason.Vmread in
  checki "vmx instructions have no own aux exits" 0
    vmread.Cost_model.l1_aux_exits

let test_cost_model_transform_cost_scales () =
  let cm = Cost_model.paper_machine in
  let transform =
    [ Svt_hyp.Cost.charge Svt_hyp.Breakdown.Transform
        "transform_base+transform_per_field*fields" ]
  in
  let cost fields = Svt_hyp.Cost.total cm Svt_hyp.Cost.no_exit fields transform in
  let c8 = cost 8 and c16 = cost 16 in
  checkb "more fields cost more" true (c16 > c8);
  checki "linear in fields" (8 * cm.transform_per_field) (c16 - c8)

(* --- Arch backend ---------------------------------------------------------- *)

let test_backend_string_tables () =
  List.iter
    (fun k ->
      checkb (Backend.to_string k) true
        (Backend.of_string (Backend.to_string k) = Ok k))
    Backend.all;
  List.iter
    (fun (s, k) -> checkb s true (Backend.of_string s = Ok k))
    [ ("x86", Backend.X86); ("x86_64", Backend.X86); ("vmx", Backend.X86);
      ("intel", Backend.X86); ("arm", Backend.Arm); ("arm64", Backend.Arm);
      ("aarch64", Backend.Arm); ("nv", Backend.Arm) ];
  checkb "unknown rejected" true (Result.is_error (Backend.of_string "riscv"))

(* Round trip over the whole arch x mode plane: both halves of any
   point's textual identity must parse back, including through the
   joint "arch:mode" spelling the fuzzer's point labels use. *)
let backend_arch_mode_roundtrip =
  let pairs =
    List.concat_map
      (fun a -> List.map (fun m -> (a, m)) Svt_core.Mode.all)
      Backend.all
  in
  QCheck.Test.make ~name:"arch x mode string round trip" ~count:200
    (QCheck.oneofl pairs)
    (fun (a, m) ->
      let s = Backend.to_string a ^ ":" ^ Svt_core.Mode.to_string m in
      let i = String.index s ':' in
      Backend.of_string (String.sub s 0 i) = Ok a
      && Svt_core.Mode.of_string
           (String.sub s (i + 1) (String.length s - i - 1))
         = Ok m)

(* Exhaustiveness: every exit reason on every backend must resolve to a
   real cost-model entry (no silently free exits) and a nonempty
   backend-native spelling. *)
let test_backend_exit_exhaustive () =
  List.iter
    (fun k ->
      let cm = Backend.cost_of k in
      List.iter
        (fun r ->
          let label =
            Printf.sprintf "%s/%s" (Backend.to_string k)
              (Exit_reason.name r)
          in
          let p = Cost_model.profile cm r in
          checkb (label ^ ": costed") true (p.Cost_model.l0_pure > 0);
          checkb
            (label ^ ": named")
            true
            (String.length (Backend.exit_name k r) > 0))
        Exit_reason.all)
    Backend.all

let test_backend_capabilities () =
  checkb "x86 has shadow vmcs" true (Backend.has_shadow_vmcs Backend.X86);
  checkb "x86 has hw svt" true (Backend.has_hw_svt Backend.X86);
  checkb "arm has no shadow vmcs" false (Backend.has_shadow_vmcs Backend.Arm);
  checkb "arm has no hw svt" false (Backend.has_hw_svt Backend.Arm);
  (* the trap-or-memory model: only ARM grants the SVt thread direct
     sysreg-image access *)
  checkb "x86 svt access is aux-trap" true
    ((Backend.cost_of Backend.X86).Cost_model.svt_sysreg_direct = None);
  checkb "arm svt access is memory" true
    ((Backend.cost_of Backend.Arm).Cost_model.svt_sysreg_direct <> None)

(* The per-exit recalibration behind the headline claim: on ARM every
   driveable exit's baseline cost exceeds x86's (more auxiliary sysreg
   round trips per episode, no shadow-VMCS shortcut). *)
let test_backend_arm_costlier_baseline () =
  let x86 = Backend.cost_of Backend.X86 and arm = Backend.cost_of Backend.Arm in
  List.iter
    (fun r ->
      let px = Cost_model.profile x86 r and pa = Cost_model.profile arm r in
      checkb (Exit_reason.name r) true
        (pa.Cost_model.l1_aux_exits >= px.Cost_model.l1_aux_exits))
    [ Exit_reason.Cpuid; Exit_reason.Msr_write; Exit_reason.Io_instruction;
      Exit_reason.Vmcall ]

let test_cost_model_wire_overhead () =
  let cm = Cost_model.paper_machine in
  (* 16 KB on a 10 Gb wire: >13.1us raw, plus per-MSS framing *)
  let t = Cost_model.wire_serialize cm ~bytes:16384 in
  checkb "above raw serialization" true (t > 13_100);
  checkb "below 16us" true (t < 16_000);
  (* a 1-byte packet still pays a minimum frame *)
  checkb "min frame" true (Cost_model.wire_serialize cm ~bytes:1 > 50)

let () =
  Alcotest.run "svt_arch"
    [
      ( "registers",
        [
          Alcotest.test_case "switched set" `Quick test_reg_switched_set;
          Alcotest.test_case "names unique" `Quick test_reg_names_unique;
          Alcotest.test_case "slots follow the switched set" `Quick test_reg_slots;
        ] );
      ( "regfile",
        [
          Alcotest.test_case "contexts isolated" `Quick test_regfile_isolated_contexts;
          Alcotest.test_case "cross-context via rename map" `Quick
            test_regfile_cross_context_read_is_shared_file;
          Alcotest.test_case "sizing check" `Quick test_regfile_too_small_rejected;
          Alcotest.test_case "bad context rejected" `Quick test_regfile_bad_context;
          QCheck_alcotest.to_alcotest prop_regfile_matches_model;
        ] );
      ( "msr",
        [
          Alcotest.test_case "msr file" `Quick test_msr_file;
        ] );
      ( "cpuid",
        [
          Alcotest.test_case "host leaves" `Quick test_cpuid_host_has_vmx_no_hv_bit;
          Alcotest.test_case "guest views mask VMX" `Quick test_cpuid_guest_views;
          Alcotest.test_case "vendor string" `Quick test_cpuid_vendor_string;
          Alcotest.test_case "unknown leaf reads zero" `Quick
            test_cpuid_unknown_leaf_zero;
        ] );
      ( "exit-reasons",
        [
          Alcotest.test_case "SDM numbers" `Quick test_exit_reason_numbers_match_sdm;
          Alcotest.test_case "vmx classification" `Quick test_exit_reason_vmx_class;
        ] );
      ( "smt-core",
        [
          Alcotest.test_case "trap/resume switch fetch target" `Quick
            test_core_trap_resume_switch_fetch_target;
          Alcotest.test_case "single active context" `Quick
            test_core_single_active_context;
          Alcotest.test_case "polling interference" `Quick test_core_interference_model;
          Alcotest.test_case "resume without SVt_vm rejected" `Quick
            test_core_resume_without_vm_rejected;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "table-1 identities" `Quick test_cost_model_table1_structure;
          Alcotest.test_case "per-reason profiles" `Quick test_cost_model_profiles;
          Alcotest.test_case "transform cost scales" `Quick
            test_cost_model_transform_cost_scales;
          Alcotest.test_case "wire framing overhead" `Quick test_cost_model_wire_overhead;
        ] );
      ( "backend",
        [
          Alcotest.test_case "string tables + aliases" `Quick
            test_backend_string_tables;
          QCheck_alcotest.to_alcotest backend_arch_mode_roundtrip;
          Alcotest.test_case "every exit costed and named on every backend"
            `Quick test_backend_exit_exhaustive;
          Alcotest.test_case "capability table" `Quick test_backend_capabilities;
          Alcotest.test_case "arm baseline exits dearer" `Quick
            test_backend_arm_costlier_baseline;
        ] );
    ]
