(* A memcached-like in-memory key-value store: separate-chaining hash
   table with incremental resizing and LRU eviction under a memory cap.
   This is a real data structure — the ETC workload
   (Figure 8) executes genuine get/set operations against it, and the
   tests assert its behaviour directly. *)

type entry = {
  key : string;
  mutable value : bytes;
  mutable lru_prev : entry option;
  mutable lru_next : entry option;
  mutable chain_next : entry option;
}

type t = {
  mutable buckets : entry option array;
  mutable size : int;
  mutable memory_used : int;
  memory_cap : int; (* bytes of values; 0 = unlimited *)
  mutable lru_head : entry option; (* most recently used *)
  mutable lru_tail : entry option;
}

let initial_buckets = 1024

let create ?(memory_cap = 0) () =
  {
    buckets = Array.make initial_buckets None;
    size = 0;
    memory_used = 0;
    memory_cap;
    lru_head = None;
    lru_tail = None;
  }

(* FNV-1a over the key (64-bit constants truncated to OCaml's 63-bit int;
   the mixing quality is unaffected for bucket selection). *)
let fnv_offset = 0x1cbf29ce48422232
let fnv_prime = 0x100000001b3

let hash key =
  let h = ref fnv_offset in
  for i = 0 to String.length key - 1 do
    h := (!h lxor Char.code (String.unsafe_get key i)) * fnv_prime
  done;
  !h land max_int

let bucket_of t key = hash key mod Array.length t.buckets

(* --- LRU list maintenance ---

   An end of the list is [e] when it holds [e] itself: a fresh [Some e]
   is never physically equal to the stored option, so compare payloads. *)

let is_entry e = function Some h -> h == e | None -> false

let lru_unlink t e =
  (match e.lru_prev with
  | Some p -> p.lru_next <- e.lru_next
  | None -> if is_entry e t.lru_head then t.lru_head <- e.lru_next);
  (match e.lru_next with
  | Some n -> n.lru_prev <- e.lru_prev
  | None -> if is_entry e t.lru_tail then t.lru_tail <- e.lru_prev);
  e.lru_prev <- None;
  e.lru_next <- None

let lru_push_front t e =
  e.lru_next <- t.lru_head;
  (match t.lru_head with Some h -> h.lru_prev <- Some e | None -> ());
  t.lru_head <- Some e;
  if t.lru_tail = None then t.lru_tail <- Some e

let lru_touch t e =
  if not (is_entry e t.lru_head) then begin
    lru_unlink t e;
    lru_push_front t e
  end

(* --- chain maintenance --- *)

let chain_remove t e =
  let b = bucket_of t e.key in
  let rec go prev cur =
    match cur with
    | None -> ()
    | Some c when c == e -> (
        match prev with
        | None -> t.buckets.(b) <- c.chain_next
        | Some p -> p.chain_next <- c.chain_next)
    | Some c -> go (Some c) c.chain_next
  in
  go None t.buckets.(b)

let remove_entry t e =
  chain_remove t e;
  lru_unlink t e;
  t.size <- t.size - 1;
  t.memory_used <- t.memory_used - Bytes.length e.value - String.length e.key

let find_entry t key =
  let rec go = function
    | None -> None
    | Some e when e.key = key -> Some e
    | Some e -> go e.chain_next
  in
  go t.buckets.(bucket_of t key)

let resize t =
  let old = t.buckets in
  t.buckets <- Array.make (2 * Array.length old) None;
  Array.iter
    (fun slot ->
      let rec go = function
        | None -> ()
        | Some e ->
            let next = e.chain_next in
            let b = bucket_of t e.key in
            e.chain_next <- t.buckets.(b);
            t.buckets.(b) <- Some e;
            go next
      in
      go slot)
    old

let evict_lru t =
  match t.lru_tail with
  | None -> false
  | Some victim ->
      remove_entry t victim;
      true

let enforce_cap t =
  if t.memory_cap > 0 then
    while t.memory_used > t.memory_cap && evict_lru t do
      ()
    done

(* --- public operations --- *)

let set t key value =
  (match find_entry t key with
  | Some e ->
      t.memory_used <- t.memory_used - Bytes.length e.value + Bytes.length value;
      e.value <- value;
      lru_touch t e
  | None ->
      if t.size >= 3 * Array.length t.buckets / 4 then resize t;
      let e =
        { key; value; lru_prev = None; lru_next = None; chain_next = None }
      in
      let b = bucket_of t key in
      e.chain_next <- t.buckets.(b);
      t.buckets.(b) <- Some e;
      lru_push_front t e;
      t.size <- t.size + 1;
      t.memory_used <- t.memory_used + Bytes.length value + String.length key);
  enforce_cap t

let get t key =
  match find_entry t key with
  | Some e ->
      lru_touch t e;
      Some e.value
  | None -> None

let size t = t.size

(* Walk the LRU from most to least recent (tests), at most [size]
   entries: a list linked into a cycle reads wrong instead of hanging. *)
let lru_keys t =
  let rec go acc n = function
    | Some e when n > 0 -> go (e.key :: acc) (n - 1) e.lru_next
    | Some _ | None -> List.rev acc
  in
  go [] t.size t.lru_head
