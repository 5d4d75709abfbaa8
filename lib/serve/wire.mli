(** Wire formats for the serve daemon.

    The project deliberately carries no JSON or HTTP dependency, so
    this module hand-rolls exactly the slice the service protocol
    needs: a JSON value type with a recursive-descent parser, an
    HTTP/1.1 codec restricted to one request per connection with
    [Content-Length] bodies (no chunked encoding, no pipelining — a
    deliberate simplification: every handler response is fully
    materialized anyway), and listener/client socket plumbing over
    Unix-domain and localhost TCP endpoints. *)

(** {1 JSON} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

val to_string : json -> string
(** Compact (single-line) encoding; integral floats print without a
    decimal point, so OCaml [int]s survive a round trip. *)

val max_depth : int
(** Deepest array/object nesting {!of_string} accepts (64). *)

val of_string : string -> json
(** Raises {!Parse_error} on malformed input, trailing garbage, or
    arrays/objects nested deeper than {!max_depth} — the parser
    recurses per level, so the bound keeps any accepted body within a
    fixed stack. *)

val member : string -> json -> json option

val get_string : ?default:string -> string -> json -> string
(** Field accessors raise {!Parse_error} naming the offending field,
    so the router can turn a malformed submission into one 400 line.
    Without [default], a missing field is an error. *)

val get_int : ?default:int -> string -> json -> int
val get_bool : ?default:bool -> string -> json -> bool
val get_string_opt : string -> json -> string option
val get_int_opt : string -> json -> int option

(** {1 Endpoints} *)

type addr =
  | Unix_path of string
  | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"], or a bare path (Unix-domain). *)

val addr_to_string : addr -> string

val listen : addr -> Unix.file_descr
(** Binds and listens. A leftover Unix-socket file from a crashed
    daemon is unlinked if nothing is accepting on it; a live one
    raises [Failure "... already in use"]. *)

val connect : addr -> Unix.file_descr

(** {1 HTTP} *)

type request = {
  rq_method : string;
  rq_path : string;
  rq_headers : (string * string) list;  (** names lowercased *)
  rq_body : string;
}

type response = {
  rs_status : int;
  rs_content_type : string;
  rs_body : string;
}

val max_body : int
(** Largest request body accepted (16 MiB). *)

(** Why a request was refused before it reached the router. *)
type request_error =
  | Bad_request of string
      (** malformed: a bad request line; a [Content-Length] that is
          not decimal digits, repeats with another value, or is
          missing on a POST/PUT/PATCH; a body shorter than declared *)
  | Too_large of string  (** declared body above {!max_body} *)
  | Timeout of string
      (** the channel's socket read deadline ([SO_RCVTIMEO]) expired
          before the request line, headers and body were all in *)

val request_error_status : request_error -> int
(** 400 for {!Bad_request}, 413 for {!Too_large}, 408 for {!Timeout}. *)

val read_request : in_channel -> (request, request_error) result option
(** [None] on EOF before a request line. Requests of other methods
    without [Content-Length] have an empty body. A refused request's
    body is not read. On a socket with a receive timeout, an expired
    read is [Some (Error (Timeout _))]. *)

val write_response : out_channel -> response -> unit

val json_response : int -> json -> response
val error_response : int -> string -> response
(** [{"error": message}] with the given status. *)

val http_request :
  addr -> meth:string -> path:string -> ?body:string -> unit -> int * string
(** One-shot client: connect, send, read [(status, body)], close. Used
    by [cftcg submit]/[cftcg status] and the tests. *)
