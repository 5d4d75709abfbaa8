open Cftcg_model
module Layout = Cftcg_fuzz.Layout

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let cell_of_value (v : Value.t) =
  match v with
  | Value.VBool b -> if b then "1" else "0"
  | Value.VInt (_, n) -> string_of_int n
  | Value.VFloat (_, f) ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.17g" f

let to_csv (layout : Layout.t) data =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "step";
  Array.iter
    (fun (f : Layout.field) ->
      Buffer.add_char buf ',';
      Buffer.add_string buf f.Layout.f_name)
    layout.Layout.fields;
  Buffer.add_char buf '\n';
  let n = Layout.n_tuples layout data in
  for tuple = 0 to n - 1 do
    Buffer.add_string buf (string_of_int tuple);
    Array.iteri
      (fun field _ ->
        Buffer.add_char buf ',';
        Buffer.add_string buf (cell_of_value (Layout.field_value layout data ~tuple ~field)))
      layout.Layout.fields;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let of_csv (layout : Layout.t) text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> fail "empty CSV"
  | header :: rows ->
    let expected =
      "step"
      :: (Array.to_list layout.Layout.fields |> List.map (fun (f : Layout.field) -> f.Layout.f_name))
    in
    let got = String.split_on_char ',' header |> List.map String.trim in
    if got <> expected then
      fail "header mismatch: expected %s, got %s" (String.concat "," expected) header;
    let n_fields = Array.length layout.Layout.fields in
    let data = Bytes.make (List.length rows * layout.Layout.tuple_len) '\000' in
    List.iteri
      (fun tuple row ->
        let cells = String.split_on_char ',' row |> List.map String.trim in
        if List.length cells < n_fields + 1 then
          fail "row %d: truncated row: expected %d cells, got %d" tuple (n_fields + 1)
            (List.length cells);
        if List.length cells > n_fields + 1 then
          fail "row %d: expected %d cells, got %d" tuple (n_fields + 1) (List.length cells);
        (* NaN/Inf have no meaningful encoding in any inport dtype
           (integer coercion would silently wrap, and a NaN float
           makes every comparison false): reject them loudly *)
        let finite_or_fail f cell =
          if not (Float.is_finite f) then fail "row %d: non-finite value %S" tuple cell else f
        in
        List.iteri
          (fun i cell ->
            if i > 0 then begin
              let field = i - 1 in
              let { Layout.f_ty = ty; f_name = column; _ } = layout.Layout.fields.(field) in
              let v =
                if Dtype.is_float ty then
                  match float_of_string_opt cell with
                  | Some f -> Value.of_float ty (finite_or_fail f cell)
                  | None -> fail "row %d: bad float %S" tuple cell
                else begin
                  (* integer and bool cells must name a value of the
                     dtype exactly: casting would wrap 300 into a uint8
                     or truncate 2.75, silently replaying another
                     input. Float-formatted integers such as 3.0 are
                     fine. *)
                  let f =
                    match int_of_string_opt cell with
                    | Some n -> float_of_int n
                    | None -> (
                      match float_of_string_opt cell with
                      | Some f -> finite_or_fail f cell
                      | None -> fail "row %d: bad integer %S" tuple cell)
                  in
                  let lo, hi =
                    if ty = Dtype.Bool then (0, 1)
                    else (Dtype.min_int_value ty, Dtype.max_int_value ty)
                  in
                  if not (Float.is_integer f) then
                    fail "row %d, column %s: %S is not an integer" tuple column cell;
                  if f < float_of_int lo || f > float_of_int hi then
                    fail "row %d, column %s: %S is out of range for %s" tuple column cell
                      (Dtype.name ty);
                  Value.of_int ty (int_of_float f)
                end
              in
              Layout.set_field layout data ~tuple ~field v
            end)
          cells)
      rows;
    data

let save_suite layout ~dir ~prefix suite =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  List.mapi
    (fun i data ->
      let path = Filename.concat dir (Printf.sprintf "%s_%04d.csv" prefix i) in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (to_csv layout data));
      path)
    suite

let load_suite layout paths =
  List.map
    (fun path ->
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> of_csv layout (really_input_string ic (in_channel_length ic))))
    paths
