module Bytecodec = Cftcg_util.Bytecodec
module Fault = Cftcg_util.Fault
module Metrics = Cftcg_obs.Metrics

(* Sharded on-disk layout (v2).

   Entries are bucketed by the first hex character of their probe-set
   fingerprint into 16 shards, each with its own entries and its own
   manifest, so concurrent campaigns persisting into one store never
   contend on a single manifest file:

     DIR/manifest             global accounting (seed/epoch/coverage), v2
     DIR/shards/<h>/<fp>.tc   entry payloads, <h> = fp.[0]
     DIR/shards/<h>/manifest  per-shard entry index (fingerprint -> metric)
     DIR/entries/             legacy v1 flat layout; migrated on open

   A v1 store (flat DIR/entries + a global manifest carrying "entry"
   lines) opens transparently: its entries are moved into shards and
   its metrics preserved. In-process, the handle is thread-safe: the
   index takes one short mutex per operation and file writes take a
   per-shard mutex, so writers on different shards never serialize. *)

let n_shards = 16

type t = {
  dir : string;
  legacy_dir : string;  (* DIR/entries — v1 inbox, empty after migration *)
  shards_root : string;
  index : (string, int) Hashtbl.t;  (* fingerprint -> best metric seen *)
  ix_mutex : Mutex.t;
  shard_mutexes : Mutex.t array;
  dirty : bool array;  (* shard manifests needing a save *)
  mutable snapshots : int;  (* shard snapshots taken by [save_manifest], under [ix_mutex] *)
  written : int array;  (* snapshot number of each shard manifest on disk, under its shard mutex *)
  mutable salvaged : string list;  (* quarantine actions, newest first *)
}

type manifest = {
  m_seed : int64;
  m_jobs : int;
  m_epoch : int;
  m_executions : int;
  m_probes_total : int;
  m_coverage : Bytes.t;
}

type fsck_counts = {
  fc_tmp_files : int;
  fc_bad_names : int;
  fc_empty_entries : int;
  fc_unreadable : int;
  fc_corrupt_manifests : int;
  fc_corrupt_shard_manifests : int;
}

type fsck_report = {
  fsck_entries : int;
  fsck_quarantined : string list;
  fsck_manifest : [ `Ok | `Missing | `Quarantined ];
  fsck_orphans : int;
  fsck_shards : int;
  fsck_counts : fsck_counts;
}

exception Corrupt of string

let magic_v1 = "cftcg-corpus 1"

let magic_v2 = "cftcg-corpus 2"

let shard_magic = "cftcg-shard 1"

let entry_suffix = ".tc"

(* instruments are lazy so a process that never touches a store
   registers nothing in the default metrics registry *)
let retries_metric =
  lazy
    (Metrics.counter ~help:"Transient corpus-store write failures retried with backoff"
       "cftcg_store_persist_retries_total")

let quarantined_metric =
  lazy
    (Metrics.counter ~help:"Corrupt corpus files quarantined to *.corrupt-N"
       "cftcg_store_quarantined_total")

let migrated_metric =
  lazy
    (Metrics.counter ~help:"Legacy flat-layout entries migrated into shards"
       "cftcg_store_migrated_entries_total")

(* Last-ops ring surfaced in post-mortem dumps: which entries were
   written, which manifests saved, what was quarantined in the moments
   before a crash. Gated on the flight recorder, so a disabled run
   pays one atomic load per op and never renders the description. *)
module Flight = Cftcg_obs.Flight

let ops_capacity = 64
let recent_ops : string option array = Array.make ops_capacity None
let recent_ops_cursor = Atomic.make 0

let note_op fmt =
  if not (Flight.enabled ()) then Printf.ikfprintf (fun () -> ()) () fmt
  else
    Printf.ksprintf
      (fun op ->
        let slot = Atomic.fetch_and_add recent_ops_cursor 1 in
        recent_ops.(slot mod ops_capacity) <- Some op)
      fmt

let () =
  Flight.register_provider "corpus_store" (fun () ->
      let cursor = Atomic.get recent_ops_cursor in
      let first = max 0 (cursor - ops_capacity) in
      let buf = Buffer.create 256 in
      Buffer.add_char buf '[';
      let n = ref 0 in
      for i = first to cursor - 1 do
        match recent_ops.(i mod ops_capacity) with
        | Some op ->
          if !n > 0 then Buffer.add_char buf ',';
          incr n;
          Buffer.add_char buf '"';
          Buffer.add_string buf (Flight.json_escape op);
          Buffer.add_char buf '"'
        | None -> ()
      done;
      Buffer.add_char buf ']';
      Buffer.contents buf)

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with
      | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let manifest_path t = Filename.concat t.dir "manifest"

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> invalid_arg "Corpus_store: fingerprint is not lowercase hex"

let shard_of_fp fp =
  if String.length fp = 0 then invalid_arg "Corpus_store: empty fingerprint";
  hex_digit fp.[0]

let shard_dir t ix = Filename.concat t.shards_root (Printf.sprintf "%x" ix)

let shard_manifest_path t ix = Filename.concat (shard_dir t ix) "manifest"

let entry_path t fp = Filename.concat (shard_dir t (shard_of_fp fp)) (fp ^ entry_suffix)

let legacy_entry_path t fp = Filename.concat t.legacy_dir (fp ^ entry_suffix)

let is_transient = function
  | Fault.Injected _ | Sys_error _ | Unix.Unix_error _ -> true
  | _ -> false

let retry_attempts = 3

(* Bounded retry with exponential backoff (1ms, 2ms) for transient
   filesystem errors — and injected faults, which is how the recovery
   path is exercised deterministically in tests. Non-transient
   exceptions propagate immediately. *)
let with_retries f =
  let rec go attempt =
    try f () with
    | e when attempt + 1 < retry_attempts && is_transient e ->
      Metrics.inc (Lazy.force retries_metric);
      Unix.sleepf (0.001 *. float_of_int (1 lsl attempt));
      go (attempt + 1)
  in
  go 0

(* tmp names are unique per write so two threads publishing the same
   path (e.g. the same shard manifest) can never clobber each other's
   half-written staging file; the rename still decides the winner *)
let tmp_counter = Atomic.make 0

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* All writes go through write-then-rename so a killed campaign never
   leaves a half-written entry or manifest behind; readers either see
   the old version or the new one. A failure at any step (disk full,
   injected fault) closes and unlinks the tmp file before re-raising,
   so failed writes leak neither an fd nor a stray [.tmp]. *)
let write_atomic ~path content =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Atomic.fetch_and_add tmp_counter 1) in
  let oc = open_out_bin tmp in
  (try
     Fault.check Fault.Store_write;
     output_string oc content;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  try
    Fault.check Fault.Store_rename;
    Unix.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_entry_file name = Filename.check_suffix name entry_suffix

let fp_of_entry_file name = Filename.chop_suffix name entry_suffix

(* entry files are content-addressed by hex_of_int64 fingerprints:
   up to 16 lowercase hex characters (campaigns write exactly 16;
   shorter ones are accepted so hand-rolled corpora stay loadable) *)
let valid_fingerprint fp =
  String.length fp >= 1
  && String.length fp <= 16
  && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) fp

(* moves a damaged file to the first free [path.corrupt-N] instead of
   deleting it, so a human (or a bug report) can still inspect it *)
let quarantine t path reason =
  let rec free n =
    let q = Printf.sprintf "%s.corrupt-%d" path n in
    if Sys.file_exists q then free (n + 1) else q
  in
  let q = free 0 in
  Sys.rename path q;
  Metrics.inc (Lazy.force quarantined_metric);
  note_op "quarantine %s (%s)" (Filename.basename q) reason;
  let msg = Printf.sprintf "%s -> %s (%s)" (Filename.basename path) (Filename.basename q) reason in
  t.salvaged <- msg :: t.salvaged;
  msg

let salvaged t = List.rev t.salvaged

(* One parser for both manifest generations: v1 global manifests carry
   "entry" lines (the flat layout had no shard manifests), v2 global
   manifests carry accounting only; shard manifests carry entry lines
   only. [into] receives every entry line either way. *)
let parse_manifest_lines ~into lines =
  match lines with
  | first :: rest when first = magic_v1 || first = magic_v2 || first = shard_magic ->
    let seed = ref 0L and jobs = ref 1 and epoch = ref 0 in
    let executions = ref 0 and probes_total = ref 0 in
    let coverage = ref Bytes.empty in
    List.iter
      (fun line ->
        match String.index_opt line ' ' with
        | None -> if line <> "" then raise (Corrupt ("bad manifest line: " ^ line))
        | Some i -> (
          let key = String.sub line 0 i in
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          let int_v () =
            match int_of_string_opt v with
            | Some n -> n
            | None -> raise (Corrupt ("bad manifest value: " ^ line))
          in
          match key with
          | "seed" -> (
            match Int64.of_string_opt v with
            | Some s -> seed := s
            | None -> raise (Corrupt ("bad manifest value: " ^ line)))
          | "jobs" -> jobs := int_v ()
          | "epoch" -> epoch := int_v ()
          | "executions" -> executions := int_v ()
          | "probes_total" -> probes_total := int_v ()
          | "coverage" -> (
            try coverage := Bytecodec.bytes_of_hex v with
            | Invalid_argument _ -> raise (Corrupt "bad coverage bitmap"))
          | "entry" -> (
            match String.split_on_char ' ' v with
            | [ fp; metric ] -> (
              match int_of_string_opt metric with
              | Some m when valid_fingerprint fp -> into fp m
              | _ -> raise (Corrupt ("bad entry metric: " ^ line)))
            | _ -> raise (Corrupt ("bad entry line: " ^ line)))
          | _ -> raise (Corrupt ("unknown manifest key: " ^ key))))
      rest;
    {
      m_seed = !seed;
      m_jobs = !jobs;
      m_epoch = !epoch;
      m_executions = !executions;
      m_probes_total = !probes_total;
      m_coverage = !coverage;
    }
  | _ -> raise (Corrupt "missing corpus magic line")

let parse_manifest_file ~into path =
  let lines = String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "") in
  parse_manifest_lines ~into lines

let load_manifest t =
  let path = manifest_path t in
  if not (Sys.file_exists path) then None
  else
    Some
      (parse_manifest_file path ~into:(fun fp m ->
           locked t.ix_mutex (fun () -> Hashtbl.replace t.index fp m)))

let index_best t fp m =
  match Hashtbl.find_opt t.index fp with
  | Some best when best >= m -> ()
  | _ -> Hashtbl.replace t.index fp m

let readdir_opt dir = if Sys.file_exists dir && Sys.is_directory dir then Sys.readdir dir else [||]

let open_ ?(on_salvage = fun _ -> ()) dir =
  let legacy_dir = Filename.concat dir "entries" in
  let shards_root = Filename.concat dir "shards" in
  mkdir_p legacy_dir;
  mkdir_p shards_root;
  let t =
    {
      dir;
      legacy_dir;
      shards_root;
      index = Hashtbl.create 64;
      ix_mutex = Mutex.create ();
      shard_mutexes = Array.init n_shards (fun _ -> Mutex.create ());
      dirty = Array.make n_shards false;
      snapshots = 0;
      written = Array.make n_shards 0;
      salvaged = [];
    }
  in
  (* v1 metrics live in the global manifest's entry lines; remember
     them so migrated legacy entries keep their metric *)
  let legacy_metrics = Hashtbl.create 16 in
  (match
     if not (Sys.file_exists (manifest_path t)) then ()
     else
       ignore
         (parse_manifest_file (manifest_path t) ~into:(fun fp m ->
              Hashtbl.replace legacy_metrics fp m;
              index_best t fp m))
   with
  | () -> ()
  | exception Corrupt reason ->
    (* A damaged manifest must not kill --resume: the parse may have
       half-populated the index, so drop it, quarantine the manifest
       and rebuild from the shard manifests and entry files, which are
       individually atomic. Campaign accounting (epoch, executions,
       coverage) is lost, but every input survives. *)
    Hashtbl.reset t.index;
    Hashtbl.reset legacy_metrics;
    on_salvage (quarantine t (manifest_path t) reason));
  (* per-shard manifests: the authoritative entry index in v2 *)
  for ix = 0 to n_shards - 1 do
    let path = shard_manifest_path t ix in
    if Sys.file_exists path then begin
      match parse_manifest_file path ~into:(fun fp m -> index_best t fp m) with
      | _ -> ()
      | exception Corrupt reason ->
        on_salvage (quarantine t path reason);
        t.dirty.(ix) <- true
    end
  done;
  (* entries written after the last manifest save (interrupted
     campaign) are recovered with an unknown (0) metric; entry files
     whose name is not a fingerprint are left for fsck *)
  let recovered = ref 0 in
  for ix = 0 to n_shards - 1 do
    Array.iter
      (fun name ->
        if is_entry_file name then begin
          let fp = fp_of_entry_file name in
          if valid_fingerprint fp && shard_of_fp fp = ix && not (Hashtbl.mem t.index fp) then begin
            Hashtbl.replace t.index fp 0;
            t.dirty.(ix) <- true;
            incr recovered
          end
        end)
      (readdir_opt (shard_dir t ix))
  done;
  (* migrate the v1 flat layout: move each valid legacy entry into its
     shard, carrying the metric the v1 manifest recorded for it *)
  let migrated = ref 0 in
  Array.iter
    (fun name ->
      if is_entry_file name then begin
        let fp = fp_of_entry_file name in
        if valid_fingerprint fp then begin
          let src = legacy_entry_path t fp in
          let dst = entry_path t fp in
          if Sys.file_exists dst then
            (* both layouts carry this fingerprint: the sharded entry
               is the live one, keep the legacy copy for inspection *)
            on_salvage (quarantine t src "legacy duplicate of sharded entry")
          else begin
            mkdir_p (shard_dir t (shard_of_fp fp));
            Sys.rename src dst;
            let metric = Option.value ~default:0 (Hashtbl.find_opt legacy_metrics fp) in
            index_best t fp metric;
            t.dirty.(shard_of_fp fp) <- true;
            Metrics.inc (Lazy.force migrated_metric);
            incr migrated
          end
        end
      end)
    (readdir_opt legacy_dir);
  if !migrated > 0 then
    on_salvage (Printf.sprintf "migrated %d legacy flat-layout entries into shards" !migrated);
  if t.salvaged <> [] && !recovered > 0 then
    on_salvage (Printf.sprintf "rebuilt index from entry files: %d entries recovered" !recovered);
  t

let add t ~fingerprint ~metric data =
  let ix = shard_of_fp fingerprint in
  let known = locked t.ix_mutex (fun () -> Hashtbl.find_opt t.index fingerprint) in
  match known with
  | Some best when best >= metric -> `Kept
  | _ ->
    (* the file write holds only this shard's mutex: adds to different
       shards from concurrent campaigns proceed in parallel *)
    locked t.shard_mutexes.(ix) (fun () ->
        mkdir_p (shard_dir t ix);
        with_retries (fun () ->
            write_atomic ~path:(entry_path t fingerprint) (Bytes.to_string data)));
    locked t.ix_mutex (fun () ->
        index_best t fingerprint metric;
        t.dirty.(ix) <- true);
    note_op "%s %s shard %x metric %d"
      (if known = None then "add" else "replace")
      fingerprint ix metric;
    if known = None then `Added else `Replaced

let mem t fingerprint = locked t.ix_mutex (fun () -> Hashtbl.mem t.index fingerprint)

let size t = locked t.ix_mutex (fun () -> Hashtbl.length t.index)

let metric t fingerprint = locked t.ix_mutex (fun () -> Hashtbl.find_opt t.index fingerprint)

let fingerprints t =
  locked t.ix_mutex (fun () ->
      List.sort compare (Hashtbl.fold (fun fp _ acc -> fp :: acc) t.index []))

let entries t =
  List.filter_map
    (fun fp ->
      let path = entry_path t fp in
      if Sys.file_exists path then Some (Bytes.of_string (read_file path)) else None)
    (fingerprints t)

let save_manifest t m =
  (* snapshot the dirty shards and their entry lists under the index
     mutex, then persist each shard manifest under its own shard
     mutex — two stores sharing a directory (or two campaigns sharing
     a handle) only contend when they touched the same shard. Two
     saves sharing a handle can reach a shard's mutex in either order;
     the later snapshot is a superset of the earlier one, so an older
     snapshot never overwrites a newer one on disk. *)
  let snapshot, dirty_shards =
    locked t.ix_mutex (fun () ->
        t.snapshots <- t.snapshots + 1;
        let per_shard = Array.make n_shards [] in
        Hashtbl.iter
          (fun fp metric ->
            let ix = shard_of_fp fp in
            if t.dirty.(ix) then per_shard.(ix) <- (fp, metric) :: per_shard.(ix))
          t.index;
        let snap = ref [] in
        for ix = n_shards - 1 downto 0 do
          if t.dirty.(ix) then begin
            t.dirty.(ix) <- false;
            snap := (ix, List.sort compare per_shard.(ix)) :: !snap
          end
        done;
        (t.snapshots, !snap))
  in
  let persist_shard (ix, entries) =
    let buf = Buffer.create 256 in
    Buffer.add_string buf shard_magic;
    Buffer.add_char buf '\n';
    List.iter (fun (fp, metric) -> Printf.bprintf buf "entry %s %d\n" fp metric) entries;
    try
      locked t.shard_mutexes.(ix) (fun () ->
          if snapshot > t.written.(ix) then begin
            mkdir_p (shard_dir t ix);
            with_retries (fun () ->
                write_atomic ~path:(shard_manifest_path t ix) (Buffer.contents buf));
            t.written.(ix) <- snapshot
          end)
    with e ->
      (* keep the shard dirty so the next save retries it *)
      locked t.ix_mutex (fun () -> t.dirty.(ix) <- true);
      raise e
  in
  List.iter persist_shard dirty_shards;
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic_v2;
  Buffer.add_char buf '\n';
  Printf.bprintf buf "seed %Ld\n" m.m_seed;
  Printf.bprintf buf "jobs %d\n" m.m_jobs;
  Printf.bprintf buf "epoch %d\n" m.m_epoch;
  Printf.bprintf buf "executions %d\n" m.m_executions;
  Printf.bprintf buf "probes_total %d\n" m.m_probes_total;
  Printf.bprintf buf "coverage %s\n" (Bytecodec.hex_of_bytes m.m_coverage);
  with_retries (fun () -> write_atomic ~path:(manifest_path t) (Buffer.contents buf));
  note_op "save_manifest epoch %d (%d dirty shards)" m.m_epoch (List.length dirty_shards)

let merge t ~from =
  List.fold_left
    (fun acc dir ->
      let src = open_ dir in
      List.fold_left
        (fun acc fp ->
          let m = Option.value ~default:0 (metric src fp) in
          let path = entry_path src fp in
          if Sys.file_exists path then begin
            match add t ~fingerprint:fp ~metric:m (Bytes.of_string (read_file path)) with
            | `Added | `Replaced -> acc + 1
            | `Kept -> acc
          end
          else acc)
        acc (fingerprints src))
    0 from

(* ---------------------------------------------------------------- *)
(* fsck                                                             *)
(* ---------------------------------------------------------------- *)

let fsck ?(on_salvage = fun _ -> ()) dir =
  let legacy_dir = Filename.concat dir "entries" in
  let shards_root = Filename.concat dir "shards" in
  mkdir_p legacy_dir;
  let t =
    {
      dir;
      legacy_dir;
      shards_root;
      index = Hashtbl.create 64;
      ix_mutex = Mutex.create ();
      shard_mutexes = Array.init n_shards (fun _ -> Mutex.create ());
      dirty = Array.make n_shards false;
      snapshots = 0;
      written = Array.make n_shards 0;
      salvaged = [];
    }
  in
  let tmp_files = ref 0 and bad_names = ref 0 and empty_entries = ref 0 in
  let unreadable = ref 0 and corrupt_manifests = ref 0 and corrupt_shard_manifests = ref 0 in
  (* scrub one directory of entries: interrupted writes and files that
     do not decode as content-addressed entries are quarantined *)
  let scrub_entries ?(expect_shard = -1) edir =
    Array.iter
      (fun name ->
        let path = Filename.concat edir name in
        if Filename.check_suffix name ".tmp" then begin
          incr tmp_files;
          on_salvage (quarantine t path "interrupted write")
        end
        else if is_entry_file name then begin
          let fp = fp_of_entry_file name in
          if not (valid_fingerprint fp) || (expect_shard >= 0 && shard_of_fp fp <> expect_shard)
          then begin
            incr bad_names;
            on_salvage (quarantine t path "entry name is not a fingerprint for this location")
          end
          else
            match read_file path with
            | "" ->
              incr empty_entries;
              on_salvage (quarantine t path "empty entry")
            | _ -> ()
            | exception Sys_error _ ->
              incr unreadable;
              on_salvage (quarantine t path "unreadable entry")
        end)
      (readdir_opt edir)
  in
  scrub_entries legacy_dir;
  let shards_walked = ref 0 in
  for ix = 0 to n_shards - 1 do
    let sdir = shard_dir t ix in
    if Sys.file_exists sdir && Sys.is_directory sdir then begin
      incr shards_walked;
      scrub_entries ~expect_shard:ix sdir
    end
  done;
  (* stray manifest staging files anywhere in the tree *)
  let scrub_tmp d =
    Array.iter
      (fun name ->
        let path = Filename.concat d name in
        if Filename.check_suffix name ".tmp" && not (Sys.is_directory path) then begin
          incr tmp_files;
          on_salvage (quarantine t path "interrupted write")
        end)
      (readdir_opt d)
  in
  scrub_tmp dir;
  (* manifests must parse; a corrupt one is quarantined (not rebuilt:
     campaign accounting is unrecoverable, and --resume degrades
     gracefully when no manifest is present). The entry index is
     accumulated across the global (v1) and shard manifests to compute
     orphans. *)
  let mpath = Filename.concat dir "manifest" in
  let into fp m = index_best t fp m in
  let manifest_state =
    if not (Sys.file_exists mpath) then `Missing
    else begin
      match parse_manifest_file ~into mpath with
      | _ -> `Ok
      | exception Corrupt reason ->
        Hashtbl.reset t.index;
        incr corrupt_manifests;
        on_salvage (quarantine t mpath reason);
        `Quarantined
    end
  in
  let shard_manifests_ok = ref true in
  for ix = 0 to n_shards - 1 do
    let path = shard_manifest_path t ix in
    if Sys.file_exists path then begin
      match parse_manifest_file ~into path with
      | _ -> ()
      | exception Corrupt reason ->
        shard_manifests_ok := false;
        incr corrupt_shard_manifests;
        on_salvage (quarantine t path reason)
    end
  done;
  (* an orphan is a valid entry file no surviving manifest references:
     written after the last save, recovered at metric 0 on next open.
     Only meaningful when the manifests parsed — after a quarantine
     every entry would count, which is noise, not signal. *)
  let index_ok =
    (manifest_state = `Ok || manifest_state = `Missing) && !shard_manifests_ok
  in
  let valid = ref 0 and orphans = ref 0 in
  let count_entries edir =
    Array.iter
      (fun name ->
        if is_entry_file name then begin
          let fp = fp_of_entry_file name in
          if valid_fingerprint fp then begin
            incr valid;
            if index_ok && not (Hashtbl.mem t.index fp) then incr orphans
          end
        end)
      (readdir_opt edir)
  in
  count_entries legacy_dir;
  for ix = 0 to n_shards - 1 do
    count_entries (shard_dir t ix)
  done;
  {
    fsck_entries = !valid;
    fsck_quarantined = List.rev t.salvaged;
    fsck_manifest = manifest_state;
    fsck_orphans = (if index_ok then !orphans else 0);
    fsck_shards = !shards_walked;
    fsck_counts =
      {
        fc_tmp_files = !tmp_files;
        fc_bad_names = !bad_names;
        fc_empty_entries = !empty_entries;
        fc_unreadable = !unreadable;
        fc_corrupt_manifests = !corrupt_manifests;
        fc_corrupt_shard_manifests = !corrupt_shard_manifests;
      };
  }
