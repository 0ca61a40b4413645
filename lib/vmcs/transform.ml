(* The vmcs12 ↔ vmcs02 transformations of paper §2.1/§2.2 (Algorithm 1
   steps ②): L0 emulates the virtualization hardware it exposes to L1, so
   before running L2 it must turn L1's descriptor (shadowed as vmcs12)
   into a descriptor valid on real hardware (vmcs02), and after L2 exits
   it must reflect hardware-written state back.

   Two things make this expensive and non-shadowable in hardware:
   - physical pointers in vmcs12 are L1-guest-physical and must be
     translated through L1's EPT to host-physical addresses;
   - execution controls must be *merged*: L0 forces its own trap policy on
     top of whatever L1 asked for (e.g. L0 keeps virtualizing the TSC
     deadline even if L1 would let L2 touch it — §2.1). *)

module Ept = Svt_mem.Ept
module Addr = Svt_mem.Addr

type result = {
  fields_copied : int;
  pointers_translated : int;
  controls_merged : int;
}

exception Invalid_pointer of Field.t * int64

(* Translate a guest-physical pointer field through [l1_ept]. *)
let translate_pointer ~l1_ept field v =
  if v = 0L then 0L
  else begin
    let gpa = Addr.Gpa.of_int (Int64.to_int v) in
    match Ept.translate l1_ept ~gpa ~access:Ept.Read with
    | Ok hpa -> Int64.of_int (Addr.Hpa.to_int hpa)
    | Error _ -> raise (Invalid_pointer (field, v))
  end

(* Controls L0 always forces on in vmcs02 regardless of vmcs12 (bit
   positions are internal to this model). *)
let l0_forced_controls = 0x5L (* intercept TSC-deadline MSR + ext-int exits *)

(* Build/refresh vmcs02 from vmcs12 before resuming L2 (the "entry"
   transform, Algorithm 1 line 14). Only dirty vmcs12 fields are copied.
   [l0_ept_pointer] replaces L1's EPT pointer with the shadow EPT L0
   maintains for L2. *)
let entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer =
  let copied = ref 0 and translated = ref 0 and merged = ref 0 in
  List.iter
    (fun f ->
      let v = Vmcs.peek vmcs12 f in
      let v' =
        if Field.equal f Field.Ept_pointer then begin
          incr translated;
          l0_ept_pointer
        end
        else if Field.is_physical_pointer f then begin
          incr translated;
          translate_pointer ~l1_ept f v
        end
        else if Field.is_control f then begin
          incr merged;
          Int64.logor v l0_forced_controls
        end
        else v
      in
      Vmcs.write vmcs02 f v';
      incr copied)
    (Vmcs.dirty_fields vmcs12);
  Vmcs.clean vmcs12;
  { fields_copied = !copied; pointers_translated = !translated;
    controls_merged = !merged }

(* The fields the exit transform reflects: exit information and guest
   state, in [Field.all] order. *)
let exit_fields =
  List.filter (fun f -> Field.is_exit_info f || Field.is_guest_state f) Field.all

(* Reflect hardware-written exit state from vmcs02 back into vmcs12 after
   an L2 exit (the "exit" transform, Algorithm 1 line 3), so L1 sees the
   trap as if its own hardware had taken it. *)
let exit ~vmcs02 ~vmcs12 =
  List.iter (fun f -> Vmcs.write vmcs12 f (Vmcs.peek vmcs02 f)) exit_fields;
  Vmcs.clean vmcs02;
  { fields_copied = List.length exit_fields; pointers_translated = 0;
    controls_merged = 0 }

(* Cost of a transform in the calibrated model, from the amount of work
   actually performed. *)
let cost (cm : Svt_arch.Cost_model.t) result =
  Svt_arch.Cost_model.transform_cost cm ~fields:result.fields_copied

(* Observability payload: how much work this transform did, as span tags
   for the obs layer (emitted by the nested path, which also knows the
   charged cost). *)
let span_tags ~direction result =
  [
    ("dir", direction);
    ("fields", string_of_int result.fields_copied);
    ("pointers", string_of_int result.pointers_translated);
    ("controls", string_of_int result.controls_merged);
  ]
