(* Just enough JSON for the benchmark's own files: writing is string
   building, reading reuses the campaign ledger's parser. *)

module J = Svt_campaign.Ledger

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit a float has; JSON has no NaN or infinity. *)
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let parse_file path = J.parse_json (read_file path)

(* Accessors that fail with the offending key, for files this program
   wrote or BENCHMARK.json. *)
let field k = function
  | J.Obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> failwith (Printf.sprintf "JSON: missing key %S" k))
  | _ -> failwith (Printf.sprintf "JSON: expected an object holding %S" k)

let to_num = function
  | J.Num x -> x
  | J.Null -> nan
  | _ -> failwith "JSON: expected a number"

let to_string = function J.Str s -> s | _ -> failwith "JSON: expected a string"
let to_list = function J.Arr l -> l | _ -> failwith "JSON: expected an array"
let to_assoc = function J.Obj kvs -> kvs | _ -> failwith "JSON: expected an object"
