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

(* How the entry transform treats a field, by [Field.index]. *)
type kind = Plain | Ept_ptr | Pointer | Control

let kinds =
  Array.of_list
    (List.map
       (fun f ->
         if Field.equal f Field.Ept_pointer then Ept_ptr
         else if Field.is_physical_pointer f then Pointer
         else if Field.is_control f then Control
         else Plain)
       Field.all)

(* Controls L0 always forces on in vmcs02 regardless of vmcs12 (bit
   positions are internal to this model). *)
let l0_forced_controls = 0x5L (* intercept TSC-deadline MSR + ext-int exits *)

(* Translate a guest-physical pointer field through [l1_ept], with
   [Ept.resolve] (which decides exactly as [Ept.translate]). A negative
   pointer is no address at all and raises [Invalid_argument] from
   [Addr.Gpa.of_int]. The result is mostly the value vmcs02 already holds
   ([current]), so it is compared unboxed with that first, and a fresh
   box is made only for a new value; [merge_controls] does the same. *)
let translate_pointer ~l1_ept ~current field (v : int64) =
  if v = 0L then 0L
  else begin
    let gpa = Addr.Gpa.of_int (Int64.to_int v) in
    let h = Ept.resolve l1_ept ~gpa ~access:Ept.Read in
    if h < 0 then raise (Invalid_pointer (field, v));
    if (current : int64) = Int64.of_int h then current else Int64.of_int h
  end

let merge_controls ~current (v : int64) =
  if (current : int64) = Int64.logor v l0_forced_controls then current
  else Int64.logor v l0_forced_controls

(* Build/refresh vmcs02 from vmcs12 before resuming L2 (the "entry"
   transform, Algorithm 1 line 14). Only dirty vmcs12 fields are copied,
   newest first. [l0_ept_pointer] replaces L1's EPT pointer with the
   shadow EPT L0 maintains for L2. *)
let entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer =
  let n = Vmcs.dirty_count vmcs12 in
  let translated = ref 0 and merged = ref 0 in
  for k = n - 1 downto 0 do
    let i = Vmcs.dirty_index vmcs12 k in
    let f = Field.of_index i in
    match kinds.(i) with
    | Plain -> Vmcs.copy ~src:vmcs12 ~dst:vmcs02 f
    | Ept_ptr ->
        incr translated;
        Vmcs.write vmcs02 f l0_ept_pointer
    | Pointer ->
        incr translated;
        Vmcs.write vmcs02 f
          (translate_pointer ~l1_ept ~current:(Vmcs.peek vmcs02 f) f
             (Vmcs.peek vmcs12 f))
    | Control ->
        incr merged;
        Vmcs.write vmcs02 f
          (merge_controls ~current:(Vmcs.peek vmcs02 f) (Vmcs.peek vmcs12 f))
  done;
  Vmcs.clean vmcs12;
  { fields_copied = n; pointers_translated = !translated;
    controls_merged = !merged }

(* The fields the exit transform reflects: exit information and guest
   state, in [Field.all] order. *)
let exit_fields =
  Array.of_list
    (List.filter (fun f -> Field.is_exit_info f || Field.is_guest_state f) Field.all)

let exit_result =
  { fields_copied = Array.length exit_fields; pointers_translated = 0;
    controls_merged = 0 }

(* Reflect hardware-written exit state from vmcs02 back into vmcs12 after
   an L2 exit (the "exit" transform, Algorithm 1 line 3), so L1 sees the
   trap as if its own hardware had taken it. *)
let exit ~vmcs02 ~vmcs12 =
  for k = 0 to Array.length exit_fields - 1 do
    Vmcs.copy ~src:vmcs02 ~dst:vmcs12 exit_fields.(k)
  done;
  Vmcs.clean vmcs02;
  exit_result

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
