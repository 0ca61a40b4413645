(* A fault plan: per-kind Bernoulli rates, parsed from the CLI/axis
   grammar `kind:rate[,kind:rate,...]`. The empty plan is the common
   case and must cost nothing downstream — an injector built from it
   answers every [roll] with a single branch. Entries are kept sorted by
   kind index and zero rates dropped, so equal plans print equally. *)

type t = (Kind.t * float) list

let empty = []
let is_empty t = t = []
let entries t = t
let rate t k = match List.assoc_opt k t with Some r -> r | None -> 0.0

(* Canonical form: kind order, zero rates dropped — the invariant every
   constructor below must restore so equal plans print equally. *)
let canon_by index entries =
  entries
  |> List.filter (fun (_, r) -> r > 0.0)
  |> List.sort (fun (a, _) (b, _) -> compare (index a) (index b))

let canon = canon_by Kind.index

(* --- seeded generation and mutation (the fuzzer's plan hooks) --------- *)

(* Rates are drawn on a centi-grid in (0, 0.2]: coarse enough that
   to_string's %g spelling round-trips exactly through of_string, small
   enough that degradation machinery (watchdogs, retries) still
   terminates runs. *)
let random_rate rng = float_of_int (Svt_engine.Prng.int_in_range rng ~lo:1 ~hi:20) /. 100.0

let gen rng =
  let n = Svt_engine.Prng.int_in_range rng ~lo:0 ~hi:3 in
  let kinds = Array.of_list Kind.all in
  Svt_engine.Prng.shuffle rng kinds;
  canon (List.init n (fun i -> (kinds.(i), random_rate rng)))

let mutate rng t =
  let add_entry entries =
    match
      List.filter (fun k -> not (List.mem_assoc k entries)) Kind.all
    with
    | [] -> entries
    | absent -> (Svt_engine.Prng.pick rng (Array.of_list absent), random_rate rng) :: entries
  in
  let drop_entry = function
    | [] -> []
    | entries ->
        let victim = Svt_engine.Prng.int rng (List.length entries) in
        List.filteri (fun i _ -> i <> victim) entries
  in
  let perturb_entry = function
    | [] -> []
    | entries ->
        let i = Svt_engine.Prng.int rng (List.length entries) in
        List.mapi
          (fun j (k, r) -> if j = i then (k, random_rate rng) else (k, r))
          entries
  in
  let entries =
    match Svt_engine.Prng.int rng 3 with
    | 0 -> add_entry t
    | 1 -> drop_entry t
    | _ -> perturb_entry t
  in
  canon entries

(* The [kind:rate[,...]] steps over one kind-name table, shared with
   [Cluster_plan]: split on commas, trim, look the kind up, check the
   rate is a number in [0, 1], reject a kind given twice, and return the
   canonical list. [what] names the vocabulary in the unknown-kind
   error. *)
let parse_rates ~what ~all ~name ~index s =
  let of_name kname = List.find_opt (fun k -> name k = kname) all in
  let parse_item item =
    let item = String.trim item in
    match String.index_opt item ':' with
    | None -> Error (Printf.sprintf "fault %S: expected kind:rate" item)
    | Some i -> (
        let kname = String.sub item 0 i in
        let rate_s = String.sub item (i + 1) (String.length item - i - 1) in
        match of_name kname with
        | None ->
            Error
              (Printf.sprintf "unknown %s kind %S (expected one of %s)" what
                 kname
                 (String.concat ", " (List.map name all)))
        | Some k -> (
            match float_of_string_opt rate_s with
            | None ->
                Error
                  (Printf.sprintf "fault %s: rate %S is not a number" kname
                     rate_s)
            | Some r when (not (Float.is_finite r)) || r < 0.0 || r > 1.0 ->
                Error
                  (Printf.sprintf "fault %s: rate %s out of [0, 1]" kname
                     rate_s)
            | Some r -> Ok (k, r)))
  in
  let rec go acc = function
    | [] -> Ok (canon_by index (List.rev acc))
    | item :: rest -> (
        match parse_item item with
        | Error e -> Error e
        | Ok (k, _) when List.mem_assoc k acc ->
            Error (Printf.sprintf "fault %s given twice" (name k))
        | Ok kv -> go (kv :: acc) rest)
  in
  go []
    (String.split_on_char ',' s |> List.filter (fun x -> String.trim x <> ""))

let of_string =
  parse_rates ~what:"fault" ~all:Kind.all ~name:Kind.name ~index:Kind.index

let of_string_exn s =
  match of_string s with Ok p -> p | Error e -> failwith e

let to_string t =
  String.concat ","
    (List.map (fun (k, r) -> Printf.sprintf "%s:%g" (Kind.name k) r) t)
