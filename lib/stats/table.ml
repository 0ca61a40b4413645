(* Plain-text table rendering for the bench harness, matching the row/
   column shapes of the paper's tables and figures. *)

type align = Left | Right

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
}

let create ?aligns headers =
  let aligns =
    match aligns with
    | Some a -> a
    | None -> List.map (fun _ -> Right) headers
  in
  if List.length aligns <> List.length headers then
    invalid_arg "Table.create: aligns/headers length mismatch";
  { headers; aligns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- cells :: t.rows

let widths t =
  let all = t.headers :: List.rev t.rows in
  List.mapi
    (fun i _ ->
      List.fold_left
        (fun acc row -> Stdlib.max acc (String.length (List.nth row i)))
        0 all)
    t.headers

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | Left -> s ^ String.make n ' '
    | Right -> String.make n ' ' ^ s

let render t =
  let ws = widths t in
  let line cells =
    String.concat "  "
      (List.map2 (fun (w, a) c -> pad a w c)
         (List.combine ws t.aligns) cells)
  in
  let sep = String.concat "  " (List.map (fun w -> String.make w '-') ws) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line t.headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line row);
      Buffer.add_char buf '\n')
    (List.rev t.rows);
  Buffer.contents buf

let print t = print_string (render t)

let print_rows ?aligns headers rows =
  let t = create ?aligns headers in
  List.iter (add_row t) rows;
  print t
