(* Crash flight recorder: per-domain lock-free rings of recent events,
   merged into a JSON post-mortem on demand. See flight.mli. *)

type entry = {
  fl_ts : float;
  fl_level : string;
  fl_msg : string;
  fl_fields : (string * string) list;
}

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let default_capacity = 256
let capacity = Atomic.make default_capacity

let set_capacity n =
  if n < 1 then invalid_arg "Flight.set_capacity";
  Atomic.set capacity n

(* One ring per live domain. Slots are claimed with a fetch-and-add so
   the serve tier's many threads (all on domain 0) never contend on a
   lock; each claimed slot has exactly one writer. Readers snapshot
   without synchronization — a post-mortem tolerates a torn tail.

   A domain that exits hands its ring, contents and all, to the next
   domain that records while the capacity is the ring's size, so a
   process that spawns workers epoch after epoch keeps as many rings
   as it ever had domains alive at once, not one per domain it ever
   spawned. *)
type ring = { rb_buf : entry option array; rb_cursor : int Atomic.t }

let registry_mutex = Mutex.create ()
let rings : ring list ref = ref []

(* rings of exited domains, waiting for a new owner *)
let free_rings : ring list ref = ref []

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let ring_key =
  Domain.DLS.new_key (fun () ->
      let cap = Atomic.get capacity in
      let r =
        locked registry_mutex (fun () ->
            match List.find_opt (fun r -> Array.length r.rb_buf = cap) !free_rings with
            | Some r ->
              free_rings := List.filter (fun r' -> r' != r) !free_rings;
              r
            | None ->
              let r = { rb_buf = Array.make cap None; rb_cursor = Atomic.make 0 } in
              rings := r :: !rings;
              r)
      in
      Domain.at_exit (fun () -> locked registry_mutex (fun () -> free_rings := r :: !free_rings));
      r)

let record ?ts ?(fields = []) ~level msg =
  if Atomic.get enabled_flag then begin
    let ts = match ts with Some t -> t | None -> Unix.gettimeofday () in
    let r = Domain.DLS.get ring_key in
    let n = Array.length r.rb_buf in
    let slot = Atomic.fetch_and_add r.rb_cursor 1 in
    r.rb_buf.(slot mod n) <-
      Some { fl_ts = ts; fl_level = level; fl_msg = msg; fl_fields = fields }
  end

let ring_entries r =
  (* Oldest-first reconstruction: slots [cursor - n, cursor) in claim
     order, skipping never-written cells. *)
  let n = Array.length r.rb_buf in
  let cursor = Atomic.get r.rb_cursor in
  let out = ref [] in
  let first = max 0 (cursor - n) in
  for i = cursor - 1 downto first do
    match r.rb_buf.(i mod n) with Some e -> out := e :: !out | None -> ()
  done;
  !out

let recent ?(limit = default_capacity) () =
  let all =
    locked registry_mutex (fun () ->
        List.concat_map ring_entries !rings)
  in
  let sorted = List.stable_sort (fun a b -> compare a.fl_ts b.fl_ts) all in
  let extra = List.length sorted - limit in
  if extra <= 0 then sorted
  else List.filteri (fun i _ -> i >= extra) sorted

let clear_rings () =
  locked registry_mutex (fun () ->
      List.iter
        (fun r ->
          Array.fill r.rb_buf 0 (Array.length r.rb_buf) None;
          Atomic.set r.rb_cursor 0)
        !rings)

(* --- snapshot providers --- *)

let providers : (string * (unit -> string)) list ref = ref []

let register_provider name f =
  locked registry_mutex (fun () ->
      providers := (name, f) :: List.remove_assoc name !providers)

(* --- post-mortem dump --- *)

let dump_dir = ref "."
let set_dump_dir d = dump_dir := d

(* A crashing campaign can salvage many workers in a row; cap the
   files we scatter so a chaos run does not fill the disk. *)
let max_dumps = 64
let dumps_written = Atomic.make 0

let clear () =
  clear_rings ();
  Atomic.set dumps_written 0

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_str buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (json_escape s);
  Buffer.add_char buf '"'

let add_fields_obj buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_str buf k;
      Buffer.add_char buf ':';
      add_str buf v)
    fields;
  Buffer.add_char buf '}'

let add_entry buf e =
  Buffer.add_string buf (Printf.sprintf "{\"ts\":%.6f," e.fl_ts);
  Buffer.add_string buf "\"level\":";
  add_str buf e.fl_level;
  Buffer.add_string buf ",\"msg\":";
  add_str buf e.fl_msg;
  Buffer.add_string buf ",\"fields\":";
  add_fields_obj buf e.fl_fields;
  Buffer.add_char buf '}'

let dump_seq = Atomic.make 0

let dump ?(fields = []) ~reason () =
  if not (Atomic.get enabled_flag) then None
  else if Atomic.fetch_and_add dumps_written 1 >= max_dumps then None
  else begin
    let now = Unix.gettimeofday () in
    let path =
      Filename.concat !dump_dir
        (Printf.sprintf "postmortem-%d-%d-%d.json" (int_of_float now)
           (Unix.getpid ())
           (Atomic.fetch_and_add dump_seq 1))
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"reason\":";
    add_str buf reason;
    Buffer.add_string buf (Printf.sprintf ",\"ts\":%.6f" now);
    Buffer.add_string buf (Printf.sprintf ",\"pid\":%d" (Unix.getpid ()));
    Buffer.add_string buf ",\"fields\":";
    add_fields_obj buf fields;
    Buffer.add_string buf ",\"events\":[";
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_char buf ',';
        add_entry buf e)
      (recent ());
    Buffer.add_string buf "],\"metrics\":";
    add_str buf (Metrics.to_prometheus Metrics.default);
    Buffer.add_string buf ",\"snapshots\":{";
    let provs = locked registry_mutex (fun () -> !providers) in
    List.iteri
      (fun i (name, f) ->
        if i > 0 then Buffer.add_char buf ',';
        add_str buf name;
        Buffer.add_char buf ':';
        Buffer.add_string buf (try f () with _ -> "null"))
      provs;
    Buffer.add_string buf "}}";
    try
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> try close_out oc with _ -> ())
        (fun () -> Buffer.output_buffer oc buf);
      Some path
    with _ -> None
  end
