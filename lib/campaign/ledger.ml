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
  attempts : int;
  wall_s : float;
  metrics : (string * float) list;
  data : (string * string) list;
}

let entry_of_result (r : Runner.result) =
  {
    run_id = r.Runner.run_id;
    point = r.Runner.point;
    status = Runner.status_name r.Runner.status;
    error =
      (match r.Runner.status with
      | Runner.Run_failed msg | Runner.Run_quarantined msg -> Some msg
      | Runner.Run_ok | Runner.Run_timeout -> None);
    attempts = r.Runner.attempts;
    wall_s = r.Runner.wall_s;
    metrics = r.Runner.metrics;
    data = [];
  }

(* ---- JSON values ---- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let buf_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let buf_num b x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" x)
  else Buffer.add_string b (Printf.sprintf "%.17g" x)

let rec buf_json b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num x -> if Float.is_finite x then buf_num b x else Buffer.add_string b "null"
  | Str s -> buf_string b s
  | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          buf_json b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          buf_string b k;
          Buffer.add_char b ':';
          buf_json b v)
        fields;
      Buffer.add_char b '}'

let json_of_entry e =
  Obj
    ([
       ("run_id", Str e.run_id);
       ("mode", Str (Svt_core.Mode.to_string e.point.Spec.mode));
       ("level", Str (Spec.level_to_string e.point.Spec.level));
       ("workload", Str e.point.Spec.workload);
       ("vcpus", Num (float_of_int e.point.Spec.vcpus));
       ("seed", Num (float_of_int e.point.Spec.seed));
       (* the consolidation topology rides on every row (schema v2);
          old ledgers parse back with the single-stack defaults 1/2/1.
          Schema v3 adds the fleet size the same way (default 1). *)
       ("cores", Num (float_of_int e.point.Spec.cores));
       ("smt_per_core", Num (float_of_int e.point.Spec.smt));
       ("tenants", Num (float_of_int e.point.Spec.tenants));
       ("hosts", Num (float_of_int e.point.Spec.hosts));
     ]
    @ (* emitted only when set, so fault-free ledgers stay byte-identical
         to the pre-fault-axis format. Schema v4 adds the arch the same
         way: x86 rows (the only kind that existed before the axis) keep
         their historical byte format, and legacy rows parse back as
         x86. *)
    (match e.point.Spec.fault with "" -> [] | f -> [ ("fault", Str f) ])
    @ (match e.point.Spec.policy with "" -> [] | s -> [ ("policy", Str s) ])
    @ (match e.point.Spec.arch with
      | Svt_arch.Backend.X86 -> []
      | a -> [ ("arch", Str (Svt_arch.Backend.to_string a)) ])
    @ [ ("status", Str e.status) ]
    @ (match e.error with None -> [] | Some m -> [ ("error", Str m) ])
    @ [
        ("attempts", Num (float_of_int e.attempts));
        ("wall_s", Num e.wall_s);
        ("metrics", Obj (List.map (fun (k, v) -> (k, Num v)) e.metrics));
      ]
    @ (* string payload rows (the fuzz corpus serializes inputs and
         coverage maps here); omitted when empty so plain campaign
         ledgers keep their historical byte format *)
    (match e.data with
    | [] -> []
    | kvs -> [ ("data", Obj (List.map (fun (k, v) -> (k, Str v)) kvs)) ]))

let line_of_entry e =
  let b = Buffer.create 256 in
  buf_json b (json_of_entry e);
  Buffer.contents b

(* ---- per-line CRC32 (IEEE, reflected — the zlib/PNG polynomial) ---- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i =
        Int32.to_int
          (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let crc_hex s = Printf.sprintf "%08lx" (crc32 s)

(* The checksum covers the bytes of the plain canonical line; the hex
   digest rides as a final "crc" field so every journal line stays valid
   JSON and CRC-free legacy ledgers keep loading. *)
let line_of_entry_crc e =
  let plain = line_of_entry e in
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
    && (let ok = ref true in
        for i = len - 10 to len - 3 do
          if not (is_hex line.[i]) then ok := false
        done;
        !ok)
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
          | Some '"' -> Buffer.add_char b '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char b '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'b' -> Buffer.add_char b '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char b '\012'; advance (); go ()
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
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (items [])
        end
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
  let* mode_s = str_field j "mode" in
  let* mode = Svt_core.Mode.of_string mode_s in
  let* level_s = str_field j "level" in
  let* level = Spec.level_of_string level_s in
  let* workload = str_field j "workload" in
  let* vcpus = num_field j "vcpus" in
  let* seed = num_field j "seed" in
  let fault = match field j "fault" with Some (Str f) -> f | _ -> "" in
  (* pre-consolidation rows lack the topology fields: single-stack
     defaults keep their run_ids intact *)
  let int_or d name =
    match field j name with Some (Num x) -> int_of_float x | _ -> d
  in
  let cores = int_or 1 "cores" in
  let smt = int_or 2 "smt_per_core" in
  let tenants = int_or 1 "tenants" in
  let hosts = int_or 1 "hosts" in
  let policy = match field j "policy" with Some (Str s) -> s | _ -> "" in
  (* schema-v3 rows (and older) carry no arch field: they all ran on the
     x86 backend, the only one that existed *)
  let* arch =
    match field j "arch" with
    | Some (Str s) -> Svt_arch.Backend.of_string s
    | _ -> Ok Svt_arch.Backend.X86
  in
  let* status = str_field j "status" in
  let error = match field j "error" with Some (Str m) -> Some m | _ -> None in
  let* attempts = num_field j "attempts" in
  let* wall_s = num_field j "wall_s" in
  let* metrics =
    match field j "metrics" with
    | Some (Obj fields) ->
        List.fold_right
          (fun (k, v) acc ->
            let* rest = acc in
            match v with
            | Num x -> Ok ((k, x) :: rest)
            | Null -> Ok ((k, nan) :: rest)
            | _ -> Error (Printf.sprintf "metric %S is not a number" k))
          fields (Ok [])
    | _ -> Error "missing object field \"metrics\""
  in
  let* data =
    match field j "data" with
    | None -> Ok []
    | Some (Obj fields) ->
        List.fold_right
          (fun (k, v) acc ->
            let* rest = acc in
            match v with
            | Str s -> Ok ((k, s) :: rest)
            | _ -> Error (Printf.sprintf "data field %S is not a string" k))
          fields (Ok [])
    | Some _ -> Error "field \"data\" is not an object"
  in
  Ok
    {
      run_id;
      point =
        {
          Spec.arch;
          mode;
          level;
          workload;
          vcpus = int_of_float vcpus;
          seed = int_of_float seed;
          fault;
          cores;
          smt;
          tenants;
          policy;
          hosts;
        };
      status;
      error;
      attempts = int_of_float attempts;
      wall_s;
      metrics;
      data;
    }

(* ---- writer ---- *)

type writer = { oc : out_channel }

let create path =
  { oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path }

let add w e =
  output_string w.oc (line_of_entry e);
  output_char w.oc '\n';
  flush w.oc

let close w = close_out w.oc

let write path entries =
  let w = create path in
  Fun.protect ~finally:(fun () -> close w) (fun () -> List.iter (add w) entries)

(* ---- reader ---- *)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match In_channel.input_line ic with
        | None -> Ok (List.rev acc)
        | Some line when String.trim line = "" -> go (lineno + 1) acc
        | Some line -> (
            match
              try entry_of_json (parse_json line)
              with Parse_error msg -> Error msg
            with
            | Ok e -> go (lineno + 1) (e :: acc)
            | Error msg ->
                Error (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      go 1 [])

let load_exn path =
  match load path with Ok es -> es | Error msg -> failwith msg

(* ---- crash-tolerant reader ---- *)

type recovery = {
  entries : entry list;
  salvaged : int;
  dropped_lines : int;
  dropped_bytes : int;
  error : string option;
}

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
      let total = in_channel_length ic in
      let rec go lineno acc =
        let start = pos_in ic in
        match In_channel.input_line ic with
        | None ->
            { entries = List.rev acc; salvaged = List.length acc;
              dropped_lines = 0; dropped_bytes = 0; error = None }
        | Some line when String.trim line = "" -> go (lineno + 1) acc
        | Some line -> (
            match entry_of_line line with
            | Ok e -> go (lineno + 1) (e :: acc)
            | Error msg ->
                let rec remaining n =
                  match In_channel.input_line ic with
                  | None -> n
                  | Some _ -> remaining (n + 1)
                in
                { entries = List.rev acc; salvaged = List.length acc;
                  dropped_lines = remaining 1;
                  dropped_bytes = total - start;
                  error = Some (Printf.sprintf "%s:%d: %s" path lineno msg) })
      in
      go 1 [])

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
