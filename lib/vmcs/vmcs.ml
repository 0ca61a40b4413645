(* A VM state descriptor (VMCS in Intel terms). Each vCPU of each guest VM
   has one per managing hypervisor level, following the paper's naming:
   vmcs01 (L0's descriptor for L1), vmcs01' (L1's own descriptor for L2,
   which L0 sees as vmcs12), and vmcs02 (L0's descriptor used to actually
   run L2). Dirty-field tracking feeds the transform cost model: only
   fields written since the last transform need to be copied/translated.

   Field values live in an array indexed by [Field.index]. The dirty set
   is kept twice: as a bitmask over the same index, for the membership
   test on every write, and as a stack of field indices in first-write
   order, because newest-first is the order the entry transform copies
   (and so validates) fields in. Each field enters the stack at most once
   per clean, so it never holds more than [n_fields] entries. *)

type t = {
  values : int64 array;
  dirty : int array; (* field indices, oldest first; [n_dirty] live *)
  mutable n_dirty : int;
  mutable dirty_mask : int; (* bit [Field.index f] set iff [f] is dirty *)
}

let n_fields = List.length Field.all

let create () =
  { values = Array.make n_fields 0L; dirty = Array.make n_fields 0;
    n_dirty = 0; dirty_mask = 0 }

let read t f = t.values.(Field.index f)

(* The same read, for internal bookkeeping paths. *)
let peek = read

(* Mark the field at index [i] dirty. Inlined into its two callers, so a
   write or a copy stays one call. *)
let[@inline] mark_dirty t i =
  let bit = 1 lsl i in
  if t.dirty_mask land bit = 0 then begin
    t.dirty_mask <- t.dirty_mask lor bit;
    t.dirty.(t.n_dirty) <- i;
    t.n_dirty <- t.n_dirty + 1
  end

let write t f v =
  let i = Field.index f in
  t.values.(i) <- v;
  mark_dirty t i

(* [write dst f (read src f)] with one index lookup; the stored box moves
   as it is, so nothing is unboxed or allocated. *)
let copy ~src ~dst f =
  let i = Field.index f in
  dst.values.(i) <- src.values.(i);
  mark_dirty dst i

let dirty_count t = t.n_dirty
let dirty_index t k = t.dirty.(k)

let dirty_fields t =
  List.init t.n_dirty (fun k -> Field.of_index t.dirty.(t.n_dirty - 1 - k))

let clean t =
  t.n_dirty <- 0;
  t.dirty_mask <- 0

(* Record exit information, as the hardware does on a VM trap. *)
let record_exit t ~reason ~qualification ~instruction_length =
  write t Field.Exit_reason
    (Int64.of_int (Svt_arch.Exit_reason.basic_number reason));
  write t Field.Exit_qualification qualification;
  write t Field.Instruction_length (Int64.of_int instruction_length)
