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

let canon entries =
  entries
  |> List.filter (fun (_, r) -> r > 0.0)
  |> List.sort (fun (a, _) (b, _) ->
         compare (Cluster_kind.index a) (Cluster_kind.index b))

let known_names =
  String.concat ", " (List.map Cluster_kind.name Cluster_kind.all)

let parse_item item =
  let item = String.trim item in
  match String.index_opt item ':' with
  | None -> Error (Printf.sprintf "fault %S: expected kind:rate" item)
  | Some i -> (
      let kname = String.sub item 0 i in
      let rate_s = String.sub item (i + 1) (String.length item - i - 1) in
      match Cluster_kind.of_name kname with
      | None ->
          Error
            (Printf.sprintf "unknown cluster fault kind %S (expected one of %s)"
               kname known_names)
      | Some k -> (
          match float_of_string_opt rate_s with
          | None ->
              Error
                (Printf.sprintf "fault %s: rate %S is not a number" kname rate_s)
          | Some r when (not (Float.is_finite r)) || r < 0.0 || r > 1.0 ->
              Error
                (Printf.sprintf "fault %s: rate %s out of [0, 1]" kname rate_s)
          | Some r -> Ok (k, r)))

let of_string s =
  if String.trim s = "" then Ok empty
  else begin
    let items =
      String.split_on_char ',' s |> List.filter (fun x -> String.trim x <> "")
    in
    let rec go acc = function
      | [] -> Ok (canon (List.rev acc))
      | item :: rest -> (
          match parse_item item with
          | Error e -> Error e
          | Ok (k, _) when List.mem_assoc k acc ->
              Error
                (Printf.sprintf "fault %s given twice" (Cluster_kind.name k))
          | Ok kv -> go (kv :: acc) rest)
    in
    go [] items
  end

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
