(* A cluster fault plan: per-kind Bernoulli rates rolled once per host
   per fleet epoch, parsed from the same `kind:rate[,...]` grammar as
   the stack-level [Plan]. The empty plan is the common case and costs
   nothing downstream. Entries are kept sorted by kind index with zero
   rates dropped, so equal plans print equally and share run_ids.

   [split_of_string] parses a *combined* plan string in which stack and
   cluster kinds may be mixed on one comma list (the campaign fault
   axis carries both vocabularies). Canonical combined form: stack
   entries first (in [Plan]'s canonical order), then cluster entries —
   so a pure stack plan canonicalizes exactly as before and historical
   run_ids survive. *)

type t = (Cluster_kind.t * float) list

let empty = []
let is_empty t = t = []
let rate t k = match List.assoc_opt k t with Some r -> r | None -> 0.0

let of_string =
  Plan.parse_rates ~what:"cluster fault" ~all:Cluster_kind.all
    ~name:Cluster_kind.name ~index:Cluster_kind.index

let of_string_exn s =
  match of_string s with Ok p -> p | Error e -> failwith e

let to_string t =
  String.concat ","
    (List.map
       (fun (k, r) -> Printf.sprintf "%s:%g" (Cluster_kind.name k) r)
       t)

(* ---- the combined stack + cluster grammar ---- *)

(* Partition one comma list between the two vocabularies by kind name,
   then let each side's own parser enforce its rules (rates in [0,1],
   no duplicate kinds). An item naming neither vocabulary reports the
   cluster-side error, which lists both failure modes. *)
let split_of_string s =
  let items =
    if String.trim s = "" then []
    else
      String.split_on_char ',' s |> List.filter (fun x -> String.trim x <> "")
  in
  let kind_name item =
    let item = String.trim item in
    match String.index_opt item ':' with
    | None -> item
    | Some i -> String.sub item 0 i
  in
  let stack_items, cluster_items =
    List.partition (fun it -> Kind.of_name (kind_name it) <> None) items
  in
  match Plan.of_string (String.concat "," stack_items) with
  | Error e -> Error e
  | Ok stack -> (
      match of_string (String.concat "," cluster_items) with
      | Error e -> Error e
      | Ok cluster -> Ok (stack, cluster))

let combined_to_string stack cluster =
  match (Plan.to_string stack, to_string cluster) with
  | "", c -> c
  | s, "" -> s
  | s, c -> s ^ "," ^ c
