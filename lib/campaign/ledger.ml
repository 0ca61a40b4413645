(* JSONL run ledger. The repo deliberately has no JSON dependency, so a
   minimal value type, printer and recursive-descent parser live here —
   enough for the flat objects the writer emits (and then some: nested
   objects, arrays, escapes), so the reader keeps working as the schema
   grows. *)

type entry = {
  run_id : string;
  point : Spec.point;
  status : string;
  error : string option;
  wall_s : float;
  metrics : (string * float) list;
  data : (string * string) list;
}

(* ---- JSON values ---- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let buf_num b x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" x)
  else Buffer.add_string b (Printf.sprintf "%.17g" x)

let buf_seq b opening closing item items =
  Buffer.add_char b opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      item x)
    items;
  Buffer.add_char b closing

let rec buf_json b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num x -> if Float.is_finite x then buf_num b x else Buffer.add_string b "null"
  | Str s -> Svt_obs.Export.buf_json_string b s
  | Arr items -> buf_seq b '[' ']' (buf_json b) items
  | Obj fields ->
      buf_seq b '{' '}'
        (fun (k, v) ->
          Svt_obs.Export.buf_json_string b k;
          Buffer.add_char b ':';
          buf_json b v)
        fields

let json_of_entry e =
  let p = e.point and d = Spec.default in
  let unless_default name json v dv = if v = dv then [] else [ (name, json v) ] in
  let str s = Str s and int n = Num (float_of_int n) in
  Obj
    ([
       ("run_id", Str e.run_id);
       ("mode", Str (Svt_core.Mode.to_string p.mode));
       ("level", Str (Spec.level_to_string p.level));
       ("workload", Str p.workload);
       ("vcpus", int p.vcpus);
       ("seed", int p.seed);
       (* the consolidation topology rides on every row (schema v2),
          the fleet size too (v3); older rows parse back with the
          Spec.default values *)
       ("cores", int p.cores);
       ("smt_per_core", int p.smt);
       ("tenants", int p.tenants);
       ("hosts", int p.hosts);
     ]
    @ (* emitted only away from Spec.default, so rows of points that
         do not use these axes keep the format that predates them (the
         arch came with schema v4); a row without one parses back at
         the default *)
    unless_default "fault" str p.fault d.fault
    @ unless_default "policy" str p.policy d.policy
    @ unless_default "arch"
        (fun a -> Str (Svt_arch.Backend.to_string a))
        p.arch d.arch
    @ [ ("status", Str e.status) ]
    @ (match e.error with None -> [] | Some m -> [ ("error", Str m) ])
    @ [
        (* every run is attempted once; the constant keeps rows
           byte-identical to ledgers written when runs were retried *)
        ("attempts", Num 1.0);
        ("wall_s", Num e.wall_s);
        ("metrics", Obj (List.map (fun (k, v) -> (k, Num v)) e.metrics));
      ]
    @ (* string payload rows (the fuzz corpus serializes inputs and
         coverage maps here); omitted when empty so plain campaign
         ledgers keep their historical byte format *)
    (match e.data with
    | [] -> []
    | kvs -> [ ("data", Obj (List.map (fun (k, v) -> (k, Str v)) kvs)) ]))

(* ---- per-line CRC32 (IEEE, reflected — the zlib/PNG polynomial) ---- *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc_hex s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := crc_table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  Printf.sprintf "%08x" (!c lxor 0xFFFFFFFF)

(* The checksum covers the bytes of the plain canonical line; the hex
   digest rides as a final "crc" field so every journal line stays valid
   JSON and CRC-free legacy ledgers keep loading. *)
let line ~crc e =
  let b = Buffer.create 256 in
  buf_json b (json_of_entry e);
  let plain = Buffer.contents b in
  if not crc then plain
  else
    Printf.sprintf "%s,\"crc\":\"%s\"}"
      (String.sub plain 0 (String.length plain - 1))
      (crc_hex plain)

let is_hex c = match c with '0' .. '9' | 'a' .. 'f' -> true | _ -> false

(* [,"crc":"xxxxxxxx"}] — 18 bytes, always written last, and the bare
   quotes cannot occur inside a JSON string value (they would be
   escaped), so a textual suffix match cannot be fooled by field
   contents. *)
let strip_crc line =
  let len = String.length line in
  if
    len >= 18
    && String.sub line (len - 18) 8 = ",\"crc\":\""
    && line.[len - 2] = '"'
    && line.[len - 1] = '}'
    && String.for_all is_hex (String.sub line (len - 10) 8)
  then begin
    let hex = String.sub line (len - 10) 8 in
    let plain = String.sub line 0 (len - 18) ^ "}" in
    if crc_hex plain = hex then Ok plain
    else Error (Printf.sprintf "crc mismatch (stored %s)" hex)
  end
  else Ok line

(* ---- parser ---- *)

exception Parse_error of string

let parse_json line =
  let pos = ref 0 in
  let len = String.length line in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < len then Some line.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= len
       && String.sub line !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some c when String.contains "\"\\/nrtbf" c ->
              Buffer.add_char b "\"\\/\n\r\t\b\012".[String.index "\"\\/nrtbf" c];
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > len then fail "truncated \\u escape";
              let hex = String.sub line !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              (* ASCII suffices for our own output; encode the rest as
                 UTF-8 so foreign ledgers round-trip too. *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub line start (!pos - start)) with
    | Some x -> x
    | None -> fail "bad number"
  in
  (* the comma-separated items up to [closing], the opening bracket
     being next *)
  let seq closing item =
    advance ();
    skip_ws ();
    if peek () = Some closing then begin
      advance ();
      []
    end
    else
      let rec items acc =
        let x = item () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            items (x :: acc)
        | Some c when c = closing ->
            advance ();
            List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" closing)
      in
      items []
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        Obj
          (seq '}' (fun () ->
               skip_ws ();
               let k = parse_string () in
               skip_ws ();
               expect ':';
               (k, parse_value ())))
    | Some '[' -> Arr (seq ']' parse_value)
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "empty input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

(* ---- entry (de)serialization ---- *)

let field obj name =
  match obj with
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let str_field obj name =
  match field obj name with
  | Some (Str s) -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" name)

let num_field obj name =
  match field obj name with
  | Some (Num x) -> Ok x
  | Some Null -> Ok nan
  | _ -> Error (Printf.sprintf "missing numeric field %S" name)

let entry_of_json j =
  let ( let* ) = Result.bind in
  let* run_id = str_field j "run_id" in
  let* mode = Result.bind (str_field j "mode") Svt_core.Mode.of_string in
  let* level = Result.bind (str_field j "level") Spec.level_of_string in
  let* workload = str_field j "workload" in
  let* vcpus = num_field j "vcpus" in
  let* seed = num_field j "seed" in
  (* rows written before an axis existed lack its field: its default
     keeps their run_ids intact *)
  let d = Spec.default in
  let str_or dv name = match field j name with Some (Str s) -> s | _ -> dv in
  let int_or dv name =
    match field j name with Some (Num x) -> int_of_float x | _ -> dv
  in
  let* arch =
    match field j "arch" with
    | Some (Str s) -> Svt_arch.Backend.of_string s
    | _ -> Ok d.arch
  in
  let* status = str_field j "status" in
  let error = match field j "error" with Some (Str m) -> Some m | _ -> None in
  let* wall_s = num_field j "wall_s" in
  let members conv fields =
    List.fold_right
      (fun (k, v) acc ->
        let* rest = acc in
        let* x = conv k v in
        Ok ((k, x) :: rest))
      fields (Ok [])
  in
  let* metrics =
    match field j "metrics" with
    | Some (Obj fields) ->
        members
          (fun k -> function
            | Num x -> Ok x
            | Null -> Ok nan
            | _ -> Error (Printf.sprintf "metric %S is not a number" k))
          fields
    | _ -> Error "missing object field \"metrics\""
  in
  let* data =
    match field j "data" with
    | None -> Ok []
    | Some (Obj fields) ->
        members
          (fun k -> function
            | Str s -> Ok s
            | _ -> Error (Printf.sprintf "data field %S is not a string" k))
          fields
    | Some _ -> Error "field \"data\" is not an object"
  in
  let point =
    { Spec.arch; mode; level; workload; vcpus = int_of_float vcpus;
      seed = int_of_float seed; fault = str_or d.fault "fault";
      cores = int_or d.cores "cores"; smt = int_or d.smt "smt_per_core";
      tenants = int_or d.tenants "tenants"; policy = str_or d.policy "policy";
      hosts = int_or d.hosts "hosts" }
  in
  Ok { run_id; point; status; error; wall_s; metrics; data }

(* ---- writers ---- *)

(* Flushed per row: a killed process keeps every row appended before
   the kill, the prefix that [recover] salvages. *)
type writer = { oc : out_channel; crc : bool }

let writer ~crc path =
  { oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path; crc }

let append w e =
  output_string w.oc (line ~crc:w.crc e);
  output_char w.oc '\n';
  flush w.oc

let close w = close_out w.oc

(* The clean-completion path: the full row set goes to a temp file that
   is renamed over [path], so a crash mid-rewrite leaves the old file,
   never a half-written one. *)
let rewrite path entries =
  let tmp = path ^ ".tmp" in
  if Sys.file_exists tmp then Sys.remove tmp;
  let w = writer ~crc:true tmp in
  Fun.protect ~finally:(fun () -> close w) (fun () -> List.iter (append w) entries);
  Sys.rename tmp path

(* ---- readers ---- *)

type recovery = { entries : entry list; error : string option }

let entry_of_line line =
  match strip_crc line with
  | Error e -> Error e
  | Ok plain -> (
      match parse_json plain with
      | exception Parse_error msg -> Error msg
      | j -> entry_of_json j)

(* Salvage the longest intact prefix of a (possibly torn or corrupt)
   journal: scan forward verifying CRC and parse per line, stop at the
   first damaged one, and report what was left behind. Never raises on
   file contents — a half-written trailing line is the expected crash
   artifact, not an error. *)
let recover path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match In_channel.input_line ic with
        | None -> { entries = List.rev acc; error = None }
        | Some line when String.trim line = "" -> go (lineno + 1) acc
        | Some line -> (
            match entry_of_line line with
            | Ok e -> go (lineno + 1) (e :: acc)
            | Error msg ->
                { entries = List.rev acc;
                  error = Some (Printf.sprintf "%s:%d: %s" path lineno msg) })
      in
      go 1 [])

(* The strict reader: a ledger with any damaged line — torn, unparsable,
   or failing its CRC — is rejected as a whole. *)
let load path =
  match recover path with
  | { error = None; entries; _ } -> Ok entries
  | { error = Some msg; _ } -> Error msg

let find entries ~run_id = List.find_opt (fun e -> e.run_id = run_id) entries

let metric e name =
  match List.assoc_opt name e.metrics with Some v -> v | None -> nan

let float_differs a b =
  (* nan = nan for diffing purposes; everything else is plain equality
     (both sides come from the same printer, so no epsilon). *)
  not (a = b || (Float.is_nan a && Float.is_nan b))

let diff old_entries new_entries =
  List.filter_map
    (fun n ->
      match find old_entries ~run_id:n.run_id with
      | None -> None
      | Some o ->
          let names =
            List.map fst o.metrics
            @ List.filter
                (fun k -> not (List.mem_assoc k o.metrics))
                (List.map fst n.metrics)
          in
          let changed =
            List.filter_map
              (fun k ->
                let ov = metric o k and nv = metric n k in
                if float_differs ov nv then Some (k, ov, nv) else None)
              names
          in
          if changed = [] then None else Some (n.run_id, changed))
    new_entries
