(* In-memory B+tree with int keys, the ordered-index substrate of the
   mini transactional engine behind the TPC-C benchmark (Figure 9).
   Leaves are chained for range scans; internal nodes hold separators.
   Order (max children) is fixed; splits propagate upward as usual. *)

type 'v node =
  | Leaf of {
      mutable keys : int array;
      mutable values : 'v array;
      mutable next : 'v node option; (* leaf chain *)
    }
  | Internal of { mutable keys : int array; mutable children : 'v node array }

type 'v t = { mutable root : 'v node; order : int }

let create ?(order = 32) () =
  if order < 4 then invalid_arg "Btree.create: order too small";
  { root = Leaf { keys = [||]; values = [||]; next = None }; order }

(* Index of the child to follow for [key] in an internal node. *)
let child_index keys key =
  let n = Array.length keys in
  let rec go i = if i < n && key >= keys.(i) then go (i + 1) else i in
  go 0

(* Binary search in a leaf; Some idx if found, insertion point otherwise. *)
let leaf_search keys key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length keys && keys.(!lo) = key then Ok !lo else Error !lo

let rec find_node node key =
  match node with
  | Leaf _ -> node
  | Internal { keys; children } -> find_node children.(child_index keys key) key

let find t key =
  match find_node t.root key with
  | Leaf { keys; values; _ } -> (
      match leaf_search keys key with
      | Ok i -> Some values.(i)
      | Error _ -> None)
  | Internal _ -> assert false

let insert_at arr i x =
  let n = Array.length arr in
  let out = Array.make (n + 1) x in
  Array.blit arr 0 out 0 i;
  Array.blit arr i out (i + 1) (n - i);
  out

(* Insert into [node]; if it split, return (separator, right sibling). *)
let rec insert_node t node key value =
  match node with
  | Leaf l -> (
      (match leaf_search l.keys key with
      | Ok i -> l.values.(i) <- value
      | Error i ->
          l.keys <- insert_at l.keys i key;
          l.values <- insert_at l.values i value);
      if Array.length l.keys >= t.order then begin
        let mid = Array.length l.keys / 2 in
        let right =
          Leaf
            {
              keys = Array.sub l.keys mid (Array.length l.keys - mid);
              values = Array.sub l.values mid (Array.length l.values - mid);
              next = l.next;
            }
        in
        let sep = l.keys.(mid) in
        l.keys <- Array.sub l.keys 0 mid;
        l.values <- Array.sub l.values 0 mid;
        l.next <- Some right;
        Some (sep, right)
      end
      else None)
  | Internal n -> (
      let ci = child_index n.keys key in
      match insert_node t n.children.(ci) key value with
      | None -> None
      | Some (sep, right) ->
          n.keys <- insert_at n.keys ci sep;
          n.children <- insert_at n.children (ci + 1) right;
          if Array.length n.children > t.order then begin
            let mid = Array.length n.keys / 2 in
            let sep_up = n.keys.(mid) in
            let right_node =
              Internal
                {
                  keys = Array.sub n.keys (mid + 1) (Array.length n.keys - mid - 1);
                  children =
                    Array.sub n.children (mid + 1)
                      (Array.length n.children - mid - 1);
                }
            in
            n.keys <- Array.sub n.keys 0 mid;
            n.children <- Array.sub n.children 0 (mid + 1);
            Some (sep_up, right_node)
          end
          else None)

let insert t key value =
  match insert_node t t.root key value with
  | None -> ()
  | Some (sep, right) ->
      t.root <- Internal { keys = [| sep |]; children = [| t.root; right |] }

let update t key f =
  match find_node t.root key with
  | Leaf { keys; values; _ } -> (
      match leaf_search keys key with
      | Ok i ->
          values.(i) <- f values.(i);
          true
      | Error _ -> false)
  | Internal _ -> assert false

(* In-order fold over [lo, hi]. *)
let fold_range t ~lo ~hi ~init ~f =
  let rec leftmost node =
    match node with
    | Leaf _ -> node
    | Internal { keys; children } -> leftmost children.(child_index keys lo)
  in
  let rec walk acc node =
    match node with
    | Internal _ -> acc
    | Leaf l ->
        let acc = ref acc in
        let stop = ref false in
        Array.iteri
          (fun i k ->
            if (not !stop) && k >= lo then
              if k <= hi then acc := f !acc k l.values.(i) else stop := true)
          l.keys;
        if !stop then !acc
        else (match l.next with Some nxt -> walk !acc nxt | None -> !acc)
  in
  walk init (leftmost t.root)

let range t ~lo ~hi =
  List.rev (fold_range t ~lo ~hi ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

(* Structural invariants, for property tests: key ordering inside nodes,
   separator discipline, and leaf-chain ordering. *)
let check_invariants t =
  let ok = ref true in
  let rec sorted arr i =
    i >= Array.length arr - 1 || (arr.(i) < arr.(i + 1) && sorted arr (i + 1))
  in
  let rec go node ~lo ~hi =
    match node with
    | Leaf { keys; values; _ } ->
        if Array.length keys <> Array.length values then ok := false;
        if not (sorted keys 0) then ok := false;
        Array.iter
          (fun k ->
            (match lo with Some l -> if k < l then ok := false | None -> ());
            match hi with Some h -> if k >= h then ok := false | None -> ())
          keys
    | Internal { keys; children } ->
        if Array.length children <> Array.length keys + 1 then ok := false;
        if not (sorted keys 0) then ok := false;
        Array.iteri
          (fun i child ->
            let lo' = if i = 0 then lo else Some keys.(i - 1) in
            let hi' = if i = Array.length keys then hi else Some keys.(i) in
            go child ~lo:lo' ~hi:hi')
          children
  in
  go t.root ~lo:None ~hi:None;
  !ok
