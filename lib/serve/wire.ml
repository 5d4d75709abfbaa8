(* Wire formats for the serve daemon: a hand-rolled JSON value type
   (the project deliberately carries no JSON dependency), a minimal
   HTTP/1.1 request/response codec — exactly the slice the service
   protocol needs: one request per connection, Content-Length bodies,
   no chunked encoding, no pipelining — and the listener/client socket
   plumbing over Unix-domain and TCP endpoints. *)

(* --- JSON ------------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

(* Arrays and objects nest at most this deep. The parser recurses once
   per level and bodies may be 16 MiB, so without a bound a body of
   brackets alone would exhaust the stack. *)
let max_depth = 64

let num_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let escape_string s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec print_json buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (num_str f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape_string s);
    Buffer.add_char buf '"'
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        print_json buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape_string k);
        Buffer.add_string buf "\":";
        print_json buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  print_json buf j;
  Buffer.contents buf

(* recursive-descent parser over the raw string *)
let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
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
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      value
    end
    else fail "invalid literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           if !pos + 4 > n then fail "truncated \\u escape";
           let code =
             try int_of_string ("0x" ^ String.sub s !pos 4) with
             | _ -> fail "bad \\u escape"
           in
           pos := !pos + 4;
           (* UTF-8 encode the code point (surrogates are kept as-is:
              the daemon never emits them) *)
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
         | _ -> fail "unknown escape");
        loop ()
      | c ->
        Buffer.add_char buf c;
        loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('[' | '{') when depth >= max_depth ->
      fail (Printf.sprintf "nesting deeper than %d levels" max_depth)
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value (depth + 1) :: !items;
          skip_ws ()
        done;
        expect ']';
        Arr (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* accessors: total versions raise Parse_error with the field context,
   so the router can turn a malformed submission into one 400 line *)
let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let get_string ?default name j =
  match (member name j, default) with
  | Some (Str s), _ -> s
  | Some _, _ -> raise (Parse_error (Printf.sprintf "field %S must be a string" name))
  | None, Some d -> d
  | None, None -> raise (Parse_error (Printf.sprintf "missing field %S" name))

let get_int ?default name j =
  match (member name j, default) with
  | Some (Num f), _ when Float.is_integer f -> int_of_float f
  | Some _, _ -> raise (Parse_error (Printf.sprintf "field %S must be an integer" name))
  | None, Some d -> d
  | None, None -> raise (Parse_error (Printf.sprintf "missing field %S" name))

let get_bool ?(default = false) name j =
  match member name j with
  | Some (Bool b) -> b
  | Some _ -> raise (Parse_error (Printf.sprintf "field %S must be a boolean" name))
  | None -> default

let get_string_opt name j =
  match member name j with
  | Some (Str s) -> Some s
  | Some Null | None -> None
  | Some _ -> raise (Parse_error (Printf.sprintf "field %S must be a string" name))

let get_int_opt name j =
  match member name j with
  | Some (Num f) when Float.is_integer f -> Some (int_of_float f)
  | Some Null | None -> None
  | Some _ -> raise (Parse_error (Printf.sprintf "field %S must be an integer" name))

(* --- endpoints -------------------------------------------------------- *)

type addr =
  | Unix_path of string
  | Tcp of string * int

let addr_of_string spec =
  let tcp rest =
    match String.rindex_opt rest ':' with
    | None -> Error (Printf.sprintf "bad tcp endpoint %S (expected HOST:PORT)" rest)
    | Some i -> (
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
      | _ -> Error (Printf.sprintf "bad tcp port %S" port))
  in
  if String.length spec >= 5 && String.sub spec 0 5 = "unix:" then
    Ok (Unix_path (String.sub spec 5 (String.length spec - 5)))
  else if String.length spec >= 4 && String.sub spec 0 4 = "tcp:" then
    tcp (String.sub spec 4 (String.length spec - 4))
  else Ok (Unix_path spec)

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
    let ip =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0) with
      | Not_found | Invalid_argument _ -> Unix.inet_addr_of_string host
    in
    Unix.ADDR_INET (ip, port)

let listen addr =
  let domain, cleanup_stale =
    match addr with
    | Unix_path p ->
      ( Unix.PF_UNIX,
        fun () ->
          (* a leftover socket file from a crashed daemon: refuse only
             if something is actually accepting on it *)
          match Unix.stat p with
          | { Unix.st_kind = Unix.S_SOCK; _ } -> (
            let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            match Unix.connect probe (Unix.ADDR_UNIX p) with
            | () ->
              Unix.close probe;
              failwith (Printf.sprintf "socket %s is already in use" p)
            | exception Unix.Unix_error _ ->
              Unix.close probe;
              Unix.unlink p)
          | _ -> failwith (Printf.sprintf "%s exists and is not a socket" p)
          | exception Unix.Unix_error (Unix.ENOENT, _, _) -> () )
    | Tcp _ -> (Unix.PF_INET, fun () -> ())
  in
  cleanup_stale ();
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (sockaddr_of addr);
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  fd

let connect addr =
  let domain =
    match addr with
    | Unix_path _ -> Unix.PF_UNIX
    | Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of addr) with
  | e ->
    Unix.close fd;
    raise e);
  fd

(* --- HTTP ------------------------------------------------------------- *)

type request = {
  rq_method : string;
  rq_path : string;
  rq_headers : (string * string) list;  (* names lowercased *)
  rq_body : string;
}

type response = {
  rs_status : int;
  rs_content_type : string;
  rs_body : string;
}

let reason_of = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 202 -> "Accepted"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Content Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let max_body = 16 * 1024 * 1024

type request_error =
  | Bad_request of string
  | Too_large of string
  | Timeout of string

let request_error_status = function Bad_request _ -> 400 | Too_large _ -> 413 | Timeout _ -> 408

let strip_cr line =
  if String.length line > 0 && line.[String.length line - 1] = '\r' then
    String.sub line 0 (String.length line - 1)
  else line

(* Only these methods carry a body; a request without Content-Length
   for any other method has none (RFC 9112 §6.3), which is how curl
   and most clients send GETs. *)
let body_methods = [ "POST"; "PUT"; "PATCH" ]

(* The declared body length: one or more decimal digits, the same
   value if the header repeats, at most [max_body]. *)
let body_length meth headers =
  let is_digit c = c >= '0' && c <= '9' in
  match List.filter_map (fun (n, v) -> if n = "content-length" then Some v else None) headers with
  | [] ->
    if List.mem meth body_methods then Error (Bad_request "Content-Length required") else Ok 0
  | v :: rest ->
    if List.exists (fun v' -> v' <> v) rest then
      Error (Bad_request "conflicting Content-Length headers")
    else if v = "" || not (String.for_all is_digit v) then
      Error (Bad_request (Printf.sprintf "invalid Content-Length %S" v))
    else (
      match int_of_string_opt v with
      | Some n when n <= max_body -> Ok n
      | _ ->
        Error
          (Too_large (Printf.sprintf "Content-Length %s exceeds the %d-byte limit" v max_body)))

let read_request_untimed ic =
  match input_line ic with
  | exception End_of_file -> None
  | line -> (
    match String.split_on_char ' ' (strip_cr line) with
    | meth :: path :: _ ->
      let headers = ref [] in
      (try
         let rec loop () =
           let h = strip_cr (input_line ic) in
           if h <> "" then begin
             (match String.index_opt h ':' with
             | Some i ->
               let name = String.lowercase_ascii (String.trim (String.sub h 0 i)) in
               let value = String.trim (String.sub h (i + 1) (String.length h - i - 1)) in
               headers := (name, value) :: !headers
             | None -> ());
             loop ()
           end
         in
         loop ()
       with End_of_file -> ());
      let headers = List.rev !headers in
      Some
        (Result.bind (body_length meth headers) (fun len ->
             match really_input_string ic len with
             | body -> Ok { rq_method = meth; rq_path = path; rq_headers = headers; rq_body = body }
             | exception End_of_file -> Error (Bad_request "body shorter than Content-Length")))
    | _ -> Some (Error (Bad_request "malformed request line")))

(* A read on a socket with a receive timeout ([SO_RCVTIMEO]) that
   expires raises [Sys_blocked_io], whether it was waiting for the
   request line, a header or the body. *)
let read_request ic =
  try read_request_untimed ic
  with Sys_blocked_io -> Some (Error (Timeout "no complete request before the read deadline"))

let write_response oc r =
  Printf.fprintf oc "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
    r.rs_status (reason_of r.rs_status) r.rs_content_type (String.length r.rs_body);
  output_string oc r.rs_body;
  flush oc

let json_response status j = { rs_status = status; rs_content_type = "application/json"; rs_body = to_string j }

let error_response status message = json_response status (Obj [ ("error", Str message) ])

(* one-shot HTTP client for the submit/status CLI and the tests *)
let http_request addr ~meth ~path ?(body = "") () =
  let fd = connect addr in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Printf.fprintf oc "%s %s HTTP/1.1\r\nHost: cftcg\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
        meth path (String.length body);
      output_string oc body;
      flush oc;
      let status_line = input_line ic in
      let status =
        match String.split_on_char ' ' status_line with
        | _ :: code :: _ -> ( match int_of_string_opt code with Some c -> c | None -> 0)
        | _ -> 0
      in
      let len = ref (-1) in
      (try
         let rec headers () =
           let h = strip_cr (input_line ic) in
           if h <> "" then begin
             (match String.index_opt h ':' with
             | Some i
               when String.lowercase_ascii (String.trim (String.sub h 0 i)) = "content-length" ->
               len := Option.value ~default:(-1)
                 (int_of_string_opt (String.trim (String.sub h (i + 1) (String.length h - i - 1))))
             | _ -> ());
             headers ()
           end
         in
         headers ()
       with End_of_file -> ());
      let body =
        if !len >= 0 then really_input_string ic !len
        else begin
          (* no Content-Length: read to EOF (Connection: close) *)
          let buf = Buffer.create 1024 in
          (try
             while true do
               Buffer.add_channel buf ic 1
             done
           with End_of_file -> ());
          Buffer.contents buf
        end
      in
      (status, body))
