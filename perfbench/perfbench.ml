(* The repository benchmark: three closed-loop workloads over the
   CFTCG pipeline, plus the serve layers in traced runs, one JSON
   result line per run. See README.md in this directory for the
   workloads, the metrics and the sizing rules. *)

open Cftcg_ir
module Models = Cftcg_bench_models.Bench_models
module Slx = Cftcg_model.Slx
module Codegen = Cftcg_codegen.Codegen
module Pipeline = Cftcg.Pipeline
module Evaluate = Cftcg.Evaluate
module Fuzzer = Cftcg_fuzz.Fuzzer
module Layout = Cftcg_fuzz.Layout
module Mutate = Cftcg_fuzz.Mutate
module Campaign = Cftcg_campaign.Campaign
module Corpus_store = Cftcg_campaign.Corpus_store
module Telemetry = Cftcg_campaign.Telemetry
module Wire = Cftcg_serve.Wire
module Rng = Cftcg_util.Rng
module Recorder = Cftcg_coverage.Recorder

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* command line *)

let workload = ref ""
let wseed = ref 1
let seconds = ref 10
let trace = ref 0
let cftcg_exe = "_build/default/bin/cftcg_cli.exe"
let targets_path = "perfbench/targets.json"
let run_dir = ".perfbench_run"
let calibrate = ref false

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let parse_args () =
  let rec go = function
    | "--workload" :: v :: tl -> workload := v; go tl
    | "--seed" :: v :: tl -> wseed := int_of_string v; go tl
    | "--seconds" :: v :: tl -> seconds := int_of_string v; go tl
    | "--trace" :: v :: tl -> trace := int_of_string v; go tl
    | "--calibrate" :: tl -> calibrate := true; go tl
    | [] -> ()
    | a :: _ -> die "unknown argument %S" a
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> die "bad numeric argument");
  if !seconds < 1 then die "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1"

(* ------------------------------------------------------------------ *)
(* seeds: every input a run uses is a pure function of the workload
   seed (and the run length), never of the clock *)

let splitmix x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* [derive ws stream i]: the i-th seed of a named stream; kept to 30
   bits so it also survives JSON numbers on the serve path *)
let derive ws stream i =
  let h = Hashtbl.hash stream in
  let x = splitmix (Int64.add (splitmix (Int64.of_int ((ws * 7919) + h))) (Int64.of_int i)) in
  Int64.logand x 0x3FFF_FFFFL

(* ------------------------------------------------------------------ *)
(* results *)

let metrics : (string * float * string) list ref = ref []
let metric name unit_ v = metrics := (name, v, unit_) :: !metrics
let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        problems := msg :: !problems;
        prerr_endline ("perfbench: check failed: " ^ msg)
      end;
      ok)
    fmt

(* one unit of work (a pair, a run, a campaign, a served job) *)
let op ok = incr attempted; if not ok then incr failed

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile *)
let percentile p xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let sum = List.fold_left ( +. ) 0.
let mean xs = if xs = [] then nan else sum xs /. float_of_int (List.length xs)
let geomean xs = exp (mean (List.map log xs))

let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* ------------------------------------------------------------------ *)
(* spans: recorded by the benchmark around its calls into each layer,
   kept in memory, written out once at the end (traced runs only) *)

let span_on = ref false
let span_mu = Mutex.create ()
let span_log = ref []
let span_next = ref 0
let span_parent : (int, int) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock span_mu;
  match f () with
  | v -> Mutex.unlock span_mu; v
  | exception e -> Mutex.unlock span_mu; raise e

(* [timed ~req name f] runs [f] and returns its result with its wall
   time; with tracing on it also records a span under the calling
   thread's current span. [req] groups the spans of one unit. *)
let timed ?(req = "") name f =
  if not !span_on then begin
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  end
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent =
      locked (fun () ->
          incr span_next;
          let parent = Option.value ~default:0 (Hashtbl.find_opt span_parent tid) in
          Hashtbl.replace span_parent tid !span_next;
          (!span_next, parent))
    in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      locked (fun () ->
          Hashtbl.replace span_parent tid parent;
          span_log := (id, parent, name, req, tid, t0, t1) :: !span_log);
      t1 -. t0
    in
    match f () with
    | v -> (v, finish ())
    | exception e -> ignore (finish ()); raise e
  end

let write_spans path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  let t_base = List.fold_left (fun m (_, _, _, _, _, t0, _) -> Float.min m t0) infinity !span_log in
  List.iteri
    (fun i (id, parent, name, req, tid, t0, t1) ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%S}}\n"
        (if i = 0 then "" else ",")
        name tid ((t0 -. t_base) *. 1e6) ((t1 -. t0) *. 1e6) id parent req)
    (List.rev !span_log);
  output_string oc "]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* speed reference

   The guest this benchmark was sized on switches between speed states:
   the same loop runs 25-50% slower for tens of seconds at a time, and
   every piece of code slows alike (a fixed fuzz run divided by the
   kernel below stays within +-3% while both swing by a third). So each
   timed interval is also measured in units of a fixed reference
   kernel that shares no code with the program: [norm] scales wall
   seconds by [ref_nominal] over the kernel's median time around the
   interval. A program change cannot move the kernel; a machine speed
   change moves both. *)

(* a small bytecode-interpreter loop, the shape of the VM's hot path *)
let ref_code = Array.init 4096 (fun i -> (i * 7919) land 7)

let ref_kernel () =
  let code = ref_code in
  let regs = Array.make 16 0 in
  let fl = Array.make 16 1.0 in
  for _ = 1 to 60 do
    for pc = 0 to 4095 do
      match code.(pc) with
      | 0 -> regs.(pc land 15) <- regs.((pc + 1) land 15) + 3
      | 1 -> fl.(pc land 15) <- fl.((pc + 3) land 15) *. 1.0000001
      | 2 -> if regs.(pc land 15) land 1 = 0 then regs.(3) <- regs.(3) + 1
      | 3 -> fl.(2) <- fl.(pc land 15) +. 0.5
      | 4 -> regs.(pc land 15) <- regs.(pc land 15) lxor pc
      | 5 -> if fl.(pc land 15) > 2.0 then fl.(pc land 15) <- 1.0
      | 6 -> regs.(5) <- (regs.(5) * 3) land 0xffff
      | _ -> ()
    done
  done;
  ignore (Sys.opaque_identity (regs, fl))

(* kernel seconds the normalized times are expressed in *)
let ref_nominal = 1e-3

let ref_mu = Mutex.create ()
let ref_log : (float * float) list ref = ref []  (** (start, seconds), newest first *)

let tick () =
  let t0 = now () in
  ref_kernel ();
  let dt = now () -. t0 in
  Mutex.lock ref_mu;
  ref_log := (t0, dt) :: !ref_log;
  Mutex.unlock ref_mu

(* the kernel on two domains at once: the reference for intervals in
   which the program runs domains in parallel (campaign workers, the
   serve daemon), which a neighbour taking one vCPU slows without
   slowing a single-domain kernel *)
let par_log : (float * float) list ref = ref []

let tick_par () =
  let t0 = now () in
  let d = Domain.spawn ref_kernel in
  ref_kernel ();
  Domain.join d;
  let dt = now () -. t0 in
  Mutex.lock ref_mu;
  par_log := (t0, dt) :: !par_log;
  Mutex.unlock ref_mu

let snapshot log cache =
  Mutex.lock ref_mu;
  let l = !log in
  Mutex.unlock ref_mu;
  let n = List.length l in
  if fst !cache <> n then cache := (n, Array.of_list l);
  snd !cache

let ref_cache = ref (0, [||])
let par_cache = ref (0, [||])
let ref_samples () = snapshot ref_log ref_cache

(* median kernel time over at least five samples nearest the interval *)
let local_ref ~par t0 t1 =
  let a = if par then snapshot par_log par_cache else ref_samples () in
  let rec grow w =
    let xs = Array.fold_left (fun acc (t, d) -> if t >= t0 -. w && t <= t1 +. w then d :: acc else acc) [] a in
    if List.length xs >= 5 || w > 1e4 then median xs else grow (w *. 2.)
  in
  grow 0.25

(* normalized seconds of a wall-clock interval; [par] picks the
   two-domain reference *)
let norm ?(par = false) (t0, t1) = (t1 -. t0) *. ref_nominal /. local_ref ~par t0 t1

(* a unit's time: its fastest pass, in normalized seconds *)
let fastest ?par ivs = List.fold_left (fun m iv -> Float.min m (norm ?par iv)) infinity ivs

(* [unit_timed] is [timed] for a unit of work: a reference sample just
   before it, and the wall interval it ran in *)
let unit_timed ?(par = false) ?req name f =
  if par then tick_par () else tick ();
  let t0 = now () in
  let v, _ = timed ?req name f in
  (v, (t0, now ()))

(* ------------------------------------------------------------------ *)
(* model texts and set-up *)

(* Every model enters as SLX text, as a user's model would. *)
let model_texts =
  lazy
    (List.map
       (fun (e : Models.entry) -> (e.Models.name, Slx.save_string (Lazy.force e.Models.model)))
       Models.all)

let text_of name =
  match List.assoc_opt name (Lazy.force model_texts) with
  | Some t -> t
  | None -> die "unknown model %s" name

let all_models = List.map (fun (e : Models.entry) -> e.Models.name) Models.all

(* Model text to compiled program: what every fuzzing run pays before
   its first execution. The VM compile is the one [Fuzzer.run] does
   on entry, so it is timed here as well. *)
let set_up name =
  let g = Slx.load_string (text_of name) in
  let gen = Pipeline.generate g in
  ignore (Sys.opaque_identity (Ir_vm.compile gen.Pipeline.program));
  gen

(* The set-up grid: all 8 models x [setup_rounds ()] set-ups, each
   timed on its own, once per pass. [setup_s] sums the grid (each
   entry's fastest pass, normalized like every other time), so it is
   seconds of set-up work on every workload. On cov-sweep the grid is
   the pairs themselves: each pair fuzzes the program its own set-up
   produced. *)
let setup_rounds () = 3 * !seconds

let setup_ivs : (string * int, (float * float) list) Hashtbl.t = Hashtbl.create 256
let gens : (string, Pipeline.generated) Hashtbl.t = Hashtbl.create 8

let setup_unit name i =
  let gen, iv = unit_timed ~req:(Printf.sprintf "%s/%d" name i) "setup" (fun () -> set_up name) in
  Hashtbl.replace setup_ivs (name, i) (iv :: Option.value ~default:[] (Hashtbl.find_opt setup_ivs (name, i)));
  if not (Hashtbl.mem gens name) then Hashtbl.replace gens name gen;
  gen

(* the generated program is the same on every set-up *)
let gen_of name =
  match Hashtbl.find_opt gens name with
  | Some g -> g
  | None -> setup_unit name (-1)

(* Σ over the grid of each entry's fastest pass *)
let setup_s () = Hashtbl.fold (fun (_, i) ivs acc -> if i < 0 then acc else acc +. fastest ivs) setup_ivs 0.

(* Every timed unit runs once per pass; a unit's time is its fastest
   pass, which drops the short stalls the speed reference cannot see. *)
let passes = 2

(* start of a pass: a full major collection so no pass inherits another
   one's GC debt, then the set-up grid unless the pairs are the grid *)
let begin_pass ~grid =
  Gc.full_major ();
  if grid then
    for i = 0 to setup_rounds () - 1 do
      List.iter (fun m -> ignore (setup_unit m i)) all_models
    done

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* targets: stored data, produced by [--calibrate], never recomputed by
   a measured run *)

(* A target is the probe count every calibration seed reaches within
   a fraction of the budget a measured run gets: cov-sweep pairs are
   calibrated at an eighth of their cap, hybrid campaigns at the end of
   the first epoch past a sixteenth of their budget. The slack keeps
   slow seeds the calibration never saw from missing (a miss is a
   failed operation). It does not help a seed that stalls: a rare RAC
   seed stops below the usual plateau and stays there for the whole
   cap (191 probes after 60k execs, against 192 for each of the first
   48 calibration seeds at 7.5k). So the calibration runs enough seeds
   (480) that its minimum takes in such stalls. *)
let sweep_cap = 60_000
let calib_cap = sweep_cap / 8
let calib_runs = 480
let hybrid_budget = 20_000
let hybrid_models = [ "TCP"; "RAC" ]
let hybrid_calib_runs = 64

let hybrid_config ~seed =
  { Campaign.default_config with
    Campaign.jobs = 2;
    seed;
    total_execs = hybrid_budget;
    execs_per_epoch = hybrid_budget / 64;
    plateau_epochs = 2;
    stop_on_full = false;
    hybrid = Some { Campaign.default_hybrid with Campaign.solver_execs = 3 * hybrid_budget / 4 } }

let load_targets () =
  let text =
    match In_channel.with_open_bin targets_path In_channel.input_all with
    | s -> s
    | exception Sys_error msg -> die "cannot read targets: %s" msg
  in
  let j = Wire.of_string text in
  if Wire.get_int "calib_cap" j <> calib_cap || Wire.get_int "hybrid_budget" j <> hybrid_budget
  then die "%s was calibrated for other caps; rerun --calibrate" targets_path;
  let table key =
    match Wire.member key j with
    | Some (Wire.Obj kv) -> List.map (fun (k, _) -> (k, Wire.get_int k (Wire.Obj kv))) kv
    | _ -> die "targets: missing %s" key
  in
  (table "cov_sweep", table "campaign_hybrid")

let run_calibration () =
  let cseed = !wseed in
  let min_of l = List.fold_left min max_int l in
  let show what name l = Printf.eprintf "%s %-8s %s\n%!" what name (String.concat " " (List.map string_of_int l)) in
  let sweep =
    List.map
      (fun (e : Models.entry) ->
        let name = e.Models.name in
        let gen = gen_of name in
        let finals =
          List.init calib_runs (fun i ->
              let config = { Fuzzer.default_config with Fuzzer.seed = derive cseed ("calib-" ^ name) i } in
              let r = Fuzzer.run ~config gen.Pipeline.program (Fuzzer.Exec_budget calib_cap) in
              r.Fuzzer.stats.Fuzzer.probes_covered)
        in
        show "cov-sweep" name finals;
        (name, Wire.Num (float_of_int (min_of finals))))
      Models.all
  in
  let hybrid =
    List.map
      (fun name ->
        let gen = gen_of name in
        let runs =
          List.init hybrid_calib_runs (fun i ->
              let dir = Printf.sprintf "%s/calib-%s-%d" run_dir name i in
              rm_rf dir;
              let config =
                { (hybrid_config ~seed:(derive cseed ("calib-hybrid-" ^ name) i)) with
                  Campaign.corpus_dir = Some dir }
              in
              let state = Campaign.start ~config gen.Pipeline.program in
              let early = ref None in
              while not (Campaign.finished state) do
                ignore (Campaign.step state);
                let p = Campaign.progress state in
                if !early = None && p.Campaign.pg_executions * 16 >= hybrid_budget then
                  early := Some p.Campaign.pg_probes_covered
              done;
              rm_rf dir;
              let final = (Campaign.progress state).Campaign.pg_probes_covered in
              (Option.value ~default:final !early, final))
        in
        show "campaign-hybrid early" name (List.map fst runs);
        show "campaign-hybrid final" name (List.map snd runs);
        (name, Wire.Num (float_of_int (min_of (List.map fst runs)))))
      hybrid_models
  in
  let j =
    Wire.Obj
      [ ("calibration_seed", Wire.Num (float_of_int cseed));
        ("calib_cap", Wire.Num (float_of_int calib_cap));
        ("sweep_runs", Wire.Num (float_of_int calib_runs));
        ("hybrid_budget", Wire.Num (float_of_int hybrid_budget));
        ("hybrid_runs", Wire.Num (float_of_int hybrid_calib_runs));
        ("cov_sweep", Wire.Obj sweep);
        ("campaign_hybrid", Wire.Obj hybrid) ]
  in
  Out_channel.with_open_bin targets_path (fun oc ->
      output_string oc (Wire.to_string j);
      output_char oc '\n');
  Printf.eprintf "wrote %s\n%!" targets_path

(* ------------------------------------------------------------------ *)
(* determinism ledger: the first run of a (workload, seed, seconds)
   triple by a given build records its execution count and suite
   digest; every later run of the same triple and build must reproduce
   both *)

let current = ref ""
let build_id = lazy (Digest.to_hex (Digest.file Sys.executable_name))

let ledger_check ~execs ~digest =
  let dir = Filename.concat run_dir "ledger" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path =
    Printf.sprintf "%s/%s-seed%d-s%d-%s" dir !current !wseed !seconds (Lazy.force build_id)
  in
  let line = Printf.sprintf "%d %s" execs (Digest.to_hex digest) in
  match In_channel.with_open_bin path In_channel.input_all with
  | prev ->
    op (check (String.trim prev = line) "same-seed run differs: recorded %s, now %s" (String.trim prev) line)
  | exception Sys_error _ ->
    Out_channel.with_open_bin path (fun oc -> output_string oc line);
    op true

let digest_suites suites =
  Digest.string (String.concat "\x00" (List.concat_map (List.map Bytes.to_string) suites))

(* a unit's later passes must reproduce its first *)
let same_as_first ~req ~pass first key =
  if pass > 0 && first <> key then op (check false "%s: pass %d differs from pass 0" req pass)

(* ------------------------------------------------------------------ *)
(* exec-core replay: the fuzzer's executor over a workload's own suite
   and mutants of it, at a fixed execution count *)

let max_tuples = Fuzzer.default_config.Fuzzer.max_tuples

let mutants ~seed (gen : Pipeline.generated) suite n =
  let rng = Rng.create seed in
  let base = Array.of_list (if suite = [] then [ Layout.random_tuple_bytes gen.Pipeline.layout rng ] else suite) in
  Array.init n (fun i ->
      let parent = base.(i mod Array.length base) in
      let other = base.(Rng.int rng (Array.length base)) in
      snd (Mutate.mutate gen.Pipeline.layout rng parent ~other ~max_tuples))

let executor (gen : Pipeline.generated) =
  let prog = gen.Pipeline.program in
  let g_total = Bytes.make (max prog.Ir.n_probes 1) '\000' in
  let exec =
    Fuzzer.make_executor ~backend:Fuzzer.Vm ~layout:gen.Pipeline.layout ~prog ~g_total ~max_tuples
      ~use_metric:true ()
  in
  let cells = ref [] in
  fun input -> ignore (exec ~fresh_cells:cells input)

(* (wall interval, minor words) of [n] executions after one warm-up
   pass *)
let replay_execs gen inputs n =
  let exec = executor gen in
  Array.iter exec inputs;
  let len = Array.length inputs in
  let w0 = Gc.minor_words () in
  let (), iv = unit_timed "exec_replay" (fun () -> for i = 0 to n - 1 do exec inputs.(i mod len) done) in
  (iv, Gc.minor_words () -. w0)

let replay_per_model () = 1000 * !seconds

let replay_tuples = 16

(* [b] cycled or cut to exactly [replay_tuples] tuples, so the replay
   rate does not swing with how long one seed's inputs happen to be *)
let fixed_length (gen : Pipeline.generated) b =
  let tl = gen.Pipeline.layout.Layout.tuple_len in
  let have = max 1 (Bytes.length b / tl) in
  let src = if Bytes.length b < tl then Bytes.make tl '\000' else b in
  Bytes.init (replay_tuples * tl) (fun i -> Bytes.get src (((i / tl) mod have * tl) + (i mod tl)))

let replay_inputs ~stream name suite =
  let gen = gen_of name in
  let base = List.map (fixed_length gen) suite in
  Array.map (fixed_length gen)
    (Array.append (Array.of_list base) (mutants ~seed:(derive !wseed stream 0) gen base 1024))

(* executor throughput over each model's suites from this run plus
   mutants of them: the exec-core rate on the workload's own inputs,
   which a scheduler reaching targets in fewer, slower executions
   cannot move *)
let exec_rate ~stream names per_model =
  let inputs = List.map (fun name -> (gen_of name, replay_inputs ~stream name (Hashtbl.find per_model name))) names in
  let n = replay_per_model () in
  let ivs = Array.make (List.length names) [] in
  for _ = 1 to passes do
    List.iteri (fun k (gen, inp) -> ivs.(k) <- fst (replay_execs gen inp n) :: ivs.(k)) inputs
  done;
  tick ();
  float_of_int (n * List.length names) /. Array.fold_left (fun acc l -> acc +. fastest l) 0. ivs

(* per-model exec-core rows for the traced run *)
let exec_core_rows name inputs ~n =
  let gen = gen_of name in
  let layout = gen.Pipeline.layout in
  let prog = gen.Pipeline.program in
  let (t0, t1), words = replay_execs gen inputs n in
  let dt = t1 -. t0 in
  metric ("fuzzer.exec_us." ^ name) "us" (dt /. float_of_int n *. 1e6);
  metric ("fuzzer.minor_words_per_exec." ^ name) "words" (words /. float_of_int n);
  let k = Fuzzer.default_config.Fuzzer.batch in
  let g_total = Bytes.make (max prog.Ir.n_probes 1) '\000' in
  let bexec = Fuzzer.make_batch_executor ~k ~layout ~prog ~g_total ~max_tuples ~use_metric:true () in
  let chunks = Array.init (max 1 (Array.length inputs / k)) (fun c -> Array.sub inputs (c * k) k) in
  let rounds = max 1 (n / k) in
  Array.iter (fun c -> ignore (bexec c)) chunks;
  let (), bdt =
    timed "batch_exec_replay" (fun () ->
        for i = 0 to rounds - 1 do
          ignore (bexec chunks.(i mod Array.length chunks))
        done)
  in
  metric ("fuzzer.batch_exec_us." ^ name) "us" (bdt /. float_of_int (rounds * k) *. 1e6);
  let rng = Rng.create 1L in
  let len = Array.length inputs in
  let (), mdt =
    timed "mutate" (fun () ->
        for i = 0 to n - 1 do
          ignore
            (Sys.opaque_identity
               (Mutate.mutate layout rng inputs.(i mod len) ~other:inputs.((i * 7) mod len) ~max_tuples))
        done)
  in
  metric ("mutate.mutate_ns." ^ name) "ns" (mdt /. float_of_int n *. 1e9);
  (* tuple decode with and without the VM step; the step cost is the
     difference *)
  let vm = Ir_vm.compile prog in
  let probes = Ir_vm.probes vm in
  let steps = ref 0 in
  let pass ~step () =
    Array.iter
      (fun input ->
        Ir_vm.reset vm;
        for tuple = 0 to Layout.n_tuples layout input - 1 do
          Layout.load_tuple_vm layout input ~tuple vm;
          if step then begin
            Ir_vm.step vm;
            Ir_vm.clear_probes probes
          end;
          incr steps
        done)
      inputs
  in
  let reps = max 1 (n / len) in
  let loop ~step () = steps := 0; for _ = 1 to reps do pass ~step () done in
  loop ~step:true ();
  let (), t_load = timed "layout.load_tuple" (loop ~step:false) in
  let (), t_both = timed "ir_vm.step" (loop ~step:true) in
  let nsteps = float_of_int !steps in
  metric ("layout.load_tuple_ns." ^ name) "ns" (t_load /. nsteps *. 1e9);
  metric ("ir_vm.step_ns." ^ name) "ns" (Float.max 0.1 ((t_both -. t_load) /. nsteps *. 1e9))

let exec_core_names =
  [ ("fuzzer.exec_us", "us"); ("fuzzer.batch_exec_us", "us"); ("mutate.mutate_ns", "ns");
    ("layout.load_tuple_ns", "ns"); ("ir_vm.step_ns", "ns"); ("fuzzer.minor_words_per_exec", "words") ]

let add_geomeans () =
  List.iter
    (fun (prefix, unit_) ->
      let vs =
        List.filter_map
          (fun name -> List.find_map (fun (n, v, _) -> if n = prefix ^ "." ^ name then Some v else None) !metrics)
          all_models
      in
      metric (prefix ^ ".geomean") unit_ (geomean (List.map (Float.max 1e-3) vs)))
    exec_core_names

(* ------------------------------------------------------------------ *)
(* workload results *)

type e2e = {
  setup_s : float;
  time_to_cov_s : float;
  execs_per_s : float;
  coverage_pct : float;
  mcdc_pct : float;
  peak_rss_mb : float;
  latencies : float list list;
      (** per unit of work, kernel seconds (fastest pass), in groups: a percentile
          is taken within each group and averaged over the groups *)
  jobs_per_s : float;
}

let report_e2e r =
  metric "setup_s" "s" r.setup_s;
  metric "time_to_cov_s" "kernel-s" r.time_to_cov_s;
  metric "execs_per_s" "1/kernel-s" r.execs_per_s;
  metric "coverage_pct" "%" r.coverage_pct;
  metric "mcdc_pct" "%" r.mcdc_pct;
  metric "peak_rss_mb" "MB" r.peak_rss_mb;
  metric "ok_pct" "%" (100. *. float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted));
  metric "job_latency_p50_s" "kernel-s" (mean (List.map median r.latencies));
  metric "job_latency_p90_s" "kernel-s" (mean (List.map (percentile 0.9) r.latencies));
  metric "jobs_per_s" "1/kernel-s" r.jobs_per_s

(* probes a suite lights, replayed on an unoptimized VM: an oracle
   that shares no code path with the fuzzer's executor or the
   recorder *)
let replay_probes (gen : Pipeline.generated) suite =
  let layout = gen.Pipeline.layout in
  let vm = Ir_vm.compile ~optimize:false gen.Pipeline.program in
  List.iter
    (fun input ->
      Ir_vm.reset vm;
      for tuple = 0 to Layout.n_tuples layout input - 1 do
        Layout.load_tuple_vm layout input ~tuple vm;
        Ir_vm.step vm
      done)
    suite;
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) (Ir_vm.probes vm).Ir_vm.p_fired;
  !n

let evaluate ~req (gen : Pipeline.generated) suite =
  unit_timed ~req "evaluate.replay" (fun () -> Evaluate.replay gen.Pipeline.program suite)

(* a suite must reach the probe count its producer reported *)
let check_probes ~req gen suite ~claimed =
  let probes = replay_probes gen suite in
  check (probes >= claimed) "%s: replay covers %d probes, producer reported %d" req probes claimed

let sum_array = Array.fold_left ( +. ) 0.

(* ------------------------------------------------------------------ *)
(* cov-sweep *)

let cov_sweep ~traced =
  let targets, _ = load_targets () in
  (* the pairs are the set-up grid *)
  let pairs = Array.of_list (List.concat_map (fun m -> List.init (setup_rounds ()) (fun i -> (m, i))) all_models) in
  let n = Array.length pairs in
  let ivs = Array.make n [] and eval_ivs = Array.make n [] in
  let keys = Array.make n (0, Digest.string "") in
  let execs = ref 0 and suites = ref [] and covs = ref [] and mcdcs = ref [] and suite_size = ref 0 in
  let per_model : (string, Bytes.t list) Hashtbl.t = Hashtbl.create 8 in
  for pass = 0 to passes - 1 do
    begin_pass ~grid:false;
    Array.iteri
      (fun k (name, i) ->
        let gen = setup_unit name i in
        let target = List.assoc name targets in
        let req = Printf.sprintf "%s/%d" name i in
        let covered = ref 0 in
        let config = { Fuzzer.default_config with Fuzzer.seed = derive !wseed ("sweep-" ^ name) i } in
        let r, iv =
          unit_timed ~req "fuzzer.run" (fun () ->
              Fuzzer.run ~config
                ~on_test_case:(fun tc -> covered := !covered + tc.Fuzzer.tc_new_probes)
                ~should_stop:(fun () -> !covered >= target)
                gen.Pipeline.program (Fuzzer.Exec_budget sweep_cap))
        in
        let suite = List.map (fun tc -> tc.Fuzzer.tc_data) r.Fuzzer.test_suite in
        let report, eiv = evaluate ~req gen suite in
        ivs.(k) <- iv :: ivs.(k);
        eval_ivs.(k) <- eiv :: eval_ivs.(k);
        let st = r.Fuzzer.stats in
        let key = (st.Fuzzer.executions, digest_suites [ suite ]) in
        same_as_first ~req ~pass keys.(k) key;
        if pass = 0 then begin
          keys.(k) <- key;
          let ok = check_probes ~req gen suite ~claimed:st.Fuzzer.probes_covered in
          let reached =
            check (st.Fuzzer.probes_covered >= target) "%s missed its target: %d < %d probes" req
              st.Fuzzer.probes_covered target
          in
          op (ok && reached);
          execs := !execs + st.Fuzzer.executions;
          suites := suite :: !suites;
          suite_size := !suite_size + List.length suite;
          covs := report.Recorder.decision_pct :: !covs;
          mcdcs := report.Recorder.mcdc_pct :: !mcdcs;
          Hashtbl.replace per_model name (suite @ Option.value ~default:[] (Hashtbl.find_opt per_model name))
        end)
      pairs
  done;
  tick ();
  let best = Array.map fastest ivs and best_eval = Array.map fastest eval_ivs in
  ledger_check ~execs:!execs ~digest:(digest_suites (List.rev !suites));
  let latencies =
    Array.to_list (Array.mapi (fun k pair -> fastest (Hashtbl.find setup_ivs pair) +. best.(k) +. best_eval.(k)) pairs)
  in
  let r =
    { setup_s = setup_s ();
      time_to_cov_s = sum_array best;
      execs_per_s = exec_rate ~stream:"sweep-mut" all_models per_model;
      coverage_pct = mean !covs;
      mcdc_pct = mean !mcdcs;
      peak_rss_mb = peak_rss_mb 0;
      latencies = [ latencies ];
      jobs_per_s = float_of_int n /. sum latencies }
  in
  if traced then begin
    List.iter
      (fun name ->
        exec_core_rows name (replay_inputs ~stream:"sweep-mut" name (Hashtbl.find per_model name))
          ~n:(replay_per_model ()))
      all_models;
    add_geomeans ();
    metric "fuzzer.execs_to_cov" "count" (float_of_int !execs);
    metric "fuzzer.suite_size" "count" (float_of_int !suite_size);
    metric "fuzzer.early_exec_us" "us" (sum_array best /. float_of_int !execs *. 1e6);
    metric "evaluate.replay_ms" "ms" (sum_array best_eval *. 1000.)
  end;
  r

(* ------------------------------------------------------------------ *)
(* fuzz-steady *)

let steady_models = [ "RAC"; "SolarPV"; "TCP" ]
let steady_seeds = 12

(* each run is several times the executions these models need to
   plateau; the traced run reports the measured shares *)
let steady_execs () = 3_000 * !seconds

(* the [Fuzzer.run] progress interval the runs' latency is cut into *)
let steady_block = 1024

(* median wall time of a 1-execution [Fuzzer.run]: the fixed cost every
   call pays (layout, executor and VM compile, dictionary) *)
let run_fixed name =
  let gen = gen_of name in
  median
    (List.init 5 (fun k ->
         snd
           (timed ~req:name "fuzzer.run_fixed" (fun () ->
                Fuzzer.run
                  ~config:{ Fuzzer.default_config with Fuzzer.seed = Int64.of_int k }
                  gen.Pipeline.program (Fuzzer.Exec_budget 1)))))

let fuzz_steady ~traced =
  let units = Array.of_list (List.concat_map (fun m -> List.init steady_seeds (fun i -> (m, i))) steady_models) in
  let n = Array.length units in
  let ivs = Array.make n [] and keys = Array.make n (0, Digest.string "") in
  (* per run and pass: the wall interval of each full progress block *)
  let blocks = Array.make n [] in
  let covs = ref [] and mcdcs = ref [] and execs = ref 0 and suites = ref [] in
  (* traced, first pass: per run (wall, wall after the last admission,
     execution index of the last admission) *)
  let shares = ref [] in
  let budget = steady_execs () in
  for pass = 0 to passes - 1 do
    begin_pass ~grid:true;
    Array.iteri
      (fun k (name, i) ->
        let gen = gen_of name in
        let req = Printf.sprintf "%s/%d" name i in
        let config = { Fuzzer.default_config with Fuzzer.seed = derive !wseed ("steady-" ^ name) i } in
        let last_admit = ref 0. in
        let on_test_case = if traced && pass = 0 then Some (fun _ -> last_admit := now ()) else None in
        let marks = ref [] in
        let r, ((t0, t1) as iv) =
          unit_timed ~req "fuzzer.run" (fun () ->
              marks := [ now () ];
              Fuzzer.run ~config ?on_test_case
                ~on_progress:(fun _ -> marks := now () :: !marks)
                ~progress_every:steady_block gen.Pipeline.program (Fuzzer.Exec_budget budget))
        in
        ivs.(k) <- iv :: ivs.(k);
        let rec pairs = function a :: (b :: _ as tl) -> (a, b) :: pairs tl | _ -> [] in
        blocks.(k) <- Array.of_list (pairs (List.rev !marks)) :: blocks.(k);
        let st = r.Fuzzer.stats in
        let suite = List.map (fun tc -> tc.Fuzzer.tc_data) r.Fuzzer.test_suite in
        let key = (st.Fuzzer.executions, digest_suites [ suite ]) in
        same_as_first ~req ~pass keys.(k) key;
        if pass = 0 then begin
          keys.(k) <- key;
          if on_test_case <> None then begin
            let last_exec = List.fold_left (fun m tc -> Float.max m tc.Fuzzer.tc_time) 0. r.Fuzzer.test_suite in
            shares := (t1 -. t0, t1 -. Float.max t0 !last_admit, last_exec) :: !shares
          end;
          let report, _ = evaluate ~req gen suite in
          let ok = check_probes ~req gen suite ~claimed:st.Fuzzer.probes_covered in
          op (ok && check (st.Fuzzer.executions = budget) "%s ran %d of %d execs" req st.Fuzzer.executions budget);
          execs := !execs + st.Fuzzer.executions;
          suites := suite :: !suites;
          covs := report.Recorder.decision_pct :: !covs;
          mcdcs := report.Recorder.mcdc_pct :: !mcdcs
        end)
      units
  done;
  tick ();
  let best = Array.map fastest ivs in
  ledger_check ~execs:!execs ~digest:(digest_suites (List.rev !suites));
  (* a unit of latency is one block of [steady_block] executions, at its
     fastest pass; grouped by model, as on campaign-hybrid, since RAC's
     blocks are slower than the others' and a pooled median would sit
     on the boundary between two models *)
  let block_times k =
    match blocks.(k) with
    | [] -> []
    | first :: _ as all -> List.init (Array.length first) (fun b -> fastest (List.map (fun a -> a.(b)) all))
  in
  let latencies =
    List.map (fun m -> List.concat (List.filteri (fun k _ -> fst units.(k) = m) (List.init n block_times))) steady_models
  in
  if traced then begin
    let insts =
      List.map
        (fun name ->
          let n = Ir_opt.static_count (Ir_vm.linearized (Ir_vm.compile (gen_of name).Pipeline.program)) in
          metric ("ir_opt.static_insts." ^ name) "count" (float_of_int n);
          n)
        steady_models
    in
    metric "ir_opt.static_insts" "count" (float_of_int (List.fold_left ( + ) 0 insts));
    metric "fuzzer.steady_exec_us" "us" (sum_array best /. float_of_int !execs *. 1e6);
    (* the shares the workload is chosen for, measured at this size:
       wall outside [Fuzzer.run]'s fixed cost, wall after each run's
       last admission, executions up to it *)
    let wall = sum (List.map (fun (w, _, _) -> w) !shares) in
    let fixed = Array.fold_left (fun acc (name, _) -> acc +. run_fixed name) 0. units in
    metric "fuzzer.steady_loop_share" "ratio" (1. -. (fixed /. wall));
    metric "fuzzer.steady_plateau_share" "ratio" (sum (List.map (fun (_, p, _) -> p) !shares) /. wall);
    metric "fuzzer.steady_admission_exec_share" "ratio"
      (sum (List.map (fun (_, _, e) -> e) !shares) /. float_of_int (budget * List.length !shares))
  end;
  { setup_s = setup_s ();
    time_to_cov_s = sum_array best;
    execs_per_s = float_of_int !execs /. sum_array best;
    coverage_pct = mean !covs;
    mcdc_pct = mean !mcdcs;
    peak_rss_mb = peak_rss_mb 0;
    latencies;
    jobs_per_s = (let all = List.concat latencies in float_of_int (List.length all) /. sum all) }

(* ------------------------------------------------------------------ *)
(* campaign-hybrid *)

let hybrid_seeds () = max 1 (4 * !seconds / 5)

(* bench-owned telemetry sink: timestamps the coordinator events the
   per-layer campaign metrics are cut from *)
type stamps = {
  mutable syncs : (float * int * int) list;  (** time, candidates, kept *)
  mutable ends : float list;
  mutable solver_start : float list;
  mutable solver_done : (float * int * int) list;  (** time, solved, execs *)
}

let stamp_sink st =
  let mu = Mutex.create () in
  let emit e =
    let t = now () in
    Mutex.lock mu;
    (match e with
    | Telemetry.Corpus_sync { candidates; kept; _ } -> st.syncs <- (t, candidates, kept) :: st.syncs
    | Telemetry.Epoch_end _ -> st.ends <- t :: st.ends
    | Telemetry.Solver_phase _ -> st.solver_start <- t :: st.solver_start
    | Telemetry.Solver_done { solved; executions; _ } -> st.solver_done <- (t, solved, executions) :: st.solver_done
    | _ -> ());
    Mutex.unlock mu
  in
  { Telemetry.emit; close = (fun () -> ()) }

let campaign_hybrid ~traced =
  let _, targets = load_targets () in
  let units = Array.of_list (List.concat_map (fun m -> List.init (hybrid_seeds ()) (fun i -> (m, i))) hybrid_models) in
  let n = Array.length units in
  let keys = Array.make n (0, Digest.string "") in
  (* per campaign and pass: the start interval and every epoch step's *)
  let runs = Array.make n [] in
  let covs = ref [] and mcdcs = ref [] and execs = ref 0 and suites = ref [] in
  let fresh () = { syncs = []; ends = []; solver_start = []; solver_done = [] } in
  let st0 = fresh () and events0 = ref [] in
  let steps = ref [] and starts = ref [] and merge = ref 0. and persist = ref 0. in
  (* candidates offered at each merge, and how much each merge grew the
     global corpus *)
  let cands = ref 0 and grown = ref 0 in
  let root = Printf.sprintf "%s/hybrid-%d" run_dir (Unix.getpid ()) in
  rm_rf root;
  Unix.mkdir root 0o755;
  for pass = 0 to passes - 1 do
    begin_pass ~grid:true;
    (* a traced run observes every pass (the program's own spans and
       the stamp sink), so the pass kept as a campaign's time paid for
       tracing too; the per-layer figures are cut from the first *)
    let observe = traced && pass = 0 in
    let st = if observe then st0 else fresh () in
    Cftcg_obs.Trace.clear ();
    Array.iteri
      (fun k (name, i) ->
        let gen = gen_of name in
        let target = List.assoc name targets in
        let req = Printf.sprintf "%s/%d" name i in
        let config =
          { (hybrid_config ~seed:(derive !wseed ("hybrid-" ^ name) i)) with
            Campaign.corpus_dir = Some (Printf.sprintf "%s/p%d-%s-%d" root pass name i);
            sink = (if traced then stamp_sink st else Telemetry.null) }
        in
        (* timed to the campaign's own stop: the plateau after its
           solver phases ran dry, or its budget. The early target is a
           check, not the finish line (see README.md) *)
        let state, start_iv =
          unit_timed ~par:true ~req "campaign.start" (fun () -> Campaign.start ~config gen.Pipeline.program)
        in
        if observe then starts := (snd start_iv -. fst start_iv) :: !starts;
        let these = ref [] and corpus = ref 0 in
        while not (Campaign.finished state) do
          let rounds = (Campaign.progress state).Campaign.pg_solver_rounds in
          let (_ : int), ((t_step, t_done) as iv) = unit_timed ~par:true ~req "campaign.step" (fun () -> Campaign.step state)
          in
          these := (iv, (Campaign.progress state).Campaign.pg_solver_rounds > rounds) :: !these;
          if observe then begin
            steps := (t_done -. t_step) :: !steps;
            match st.syncs with
            | (t_sync, c, kept) :: _ when t_sync >= t_step -> (
              merge := !merge +. (t_sync -. t_step);
              cands := !cands + c;
              grown := !grown + max 0 (kept - !corpus);
              corpus := kept;
              match st.ends with
              | t_end :: _ when t_end >= t_sync -> persist := !persist +. (t_end -. t_sync)
              | _ -> ())
            | _ -> ()
          end
        done;
        runs.(k) <- (start_iv, Array.of_list (List.rev !these)) :: runs.(k);
        let r = Campaign.finish state in
        let key = (r.Campaign.executions, digest_suites [ r.Campaign.suite ]) in
        same_as_first ~req ~pass keys.(k) key;
        if pass = 0 then begin
          keys.(k) <- key;
          let report, _ = evaluate ~req gen r.Campaign.suite in
          let ok = check_probes ~req gen r.Campaign.suite ~claimed:r.Campaign.probes_covered in
          op
            (ok
            && check (r.Campaign.probes_covered >= target) "%s missed its target: %d < %d probes" req
                 r.Campaign.probes_covered target);
          execs := !execs + r.Campaign.executions;
          suites := r.Campaign.suite :: !suites;
          covs := report.Recorder.decision_pct :: !covs;
          mcdcs := report.Recorder.mcdc_pct :: !mcdcs
        end)
      units;
    if observe then events0 := Cftcg_obs.Trace.events ()
  done;
  Cftcg_obs.Trace.clear ();
  tick_par ();
  ledger_check ~execs:!execs ~digest:(digest_suites (List.rev !suites));
  let norm = norm ~par:true in
  let normed =
    Array.map (List.map (fun (start, steps) -> (norm start, Array.map (fun (iv, solver) -> (norm iv, solver)) steps))) runs
  in
  (* a campaign's time is its fastest pass, start to stop *)
  let best =
    Array.map
      (List.fold_left
         (fun m (start, steps) -> Float.min m (Array.fold_left (fun acc (t, _) -> acc +. t) start steps))
         infinity)
      normed
  in
  (* a unit of work here is one fuzzing epoch (a step that ran no solver
     phase), at its fastest pass: solver phases are a few long steps
     whose count varies with the seed, and they would make the p90 jump
     between two regimes *)
  let epochs k =
    match normed.(k) with
    | [] -> []
    | (_, first) :: rest ->
      let fastest_steps =
        List.fold_left
          (fun acc (_, steps) ->
            if Array.length steps = Array.length acc then
              Array.map2 (fun (a, solver) (b, _) -> (Float.min a b, solver)) acc steps
            else acc)
          first rest
      in
      List.filter_map (fun (t, solver) -> if solver then None else Some t) (Array.to_list fastest_steps)
  in
  (* grouped by model: how many epochs each model contributes varies
     with the seed, and a pooled percentile would jump between the two
     models' epoch times *)
  let latencies =
    List.map
      (fun m -> List.concat (List.filter_map (fun k -> if fst units.(k) = m then Some (epochs k) else None) (List.init n Fun.id)))
      hybrid_models
  in
  if traced then begin
    let span_ms name =
      List.fold_left
        (fun acc (ev : Cftcg_obs.Trace.event) ->
          if ev.Cftcg_obs.Trace.ev_name = name then acc +. (ev.Cftcg_obs.Trace.ev_dur_us /. 1000.) else acc)
        0. !events0
    in
    List.iter
      (fun s -> metric (Printf.sprintf "campaign.span.%s_ms" s) "ms" (span_ms ("campaign." ^ s)))
      [ "worker"; "merge"; "persist"; "solver" ];
    let st = st0 in
    let rec solver starts dones (ms, solved, ex) =
      match (starts, dones) with
      | t_s :: ts, (t_d, s, e) :: ds -> solver ts ds (ms +. ((t_d -. t_s) *. 1000.), solved + s, ex + e)
      | _ -> (ms, solved, ex)
    in
    let solver_ms, solved, solver_execs = solver (List.rev st.solver_start) (List.rev st.solver_done) (0., 0, 0) in
    metric "campaign.start_ms" "ms" (sum !starts *. 1000.);
    metric "campaign.step_ms_p50" "ms" (median !steps *. 1000.);
    metric "campaign.step_ms_p90" "ms" (percentile 0.9 !steps *. 1000.);
    metric "campaign.steps" "count" (float_of_int (List.length !steps));
    metric "campaign.workers_merge_ms" "ms" (!merge *. 1000.);
    metric "campaign.persist_ms" "ms" (!persist *. 1000.);
    metric "campaign.kept_ratio" "ratio" (float_of_int !grown /. float_of_int (max 1 !cands));
    metric "symexec.phase_ms" "ms" solver_ms;
    metric "symexec.execs" "count" (float_of_int solver_execs);
    metric "symexec.solved_per_kexec" "1/kexec" (float_of_int solved /. float_of_int (max 1 solver_execs) *. 1000.);
    (* isolated layers on this workload's data *)
    metric "fuzzer.run_fixed_ms" "ms" (sum (List.map run_fixed hybrid_models) *. 1000.);
    let entries = List.concat !suites in
    let store = Corpus_store.open_ (Filename.concat root "isolated") in
    let (), add_t =
      timed "corpus_store.add" (fun () ->
          List.iter
            (fun b -> ignore (Corpus_store.add store ~fingerprint:(Digest.to_hex (Digest.bytes b)) ~metric:1 b))
            entries)
    in
    metric "corpus_store.add_us" "us" (add_t /. float_of_int (max 1 (List.length entries)) *. 1e6);
    let manifest =
      { Corpus_store.m_seed = 1L; m_jobs = 2; m_epoch = 1; m_executions = !execs; m_probes_total = 256;
        m_coverage = Bytes.make 256 '\001' }
    in
    let (), man_t =
      timed "corpus_store.save_manifest" (fun () ->
          for _ = 1 to 20 do
            Corpus_store.save_manifest store manifest
          done)
    in
    metric "corpus_store.save_manifest_ms" "ms" (man_t /. 20. *. 1000.)
  end;
  rm_rf root;
  { setup_s = setup_s ();
    time_to_cov_s = sum_array best;
    (* campaigns run to their own stop, not to a target, so their own
       rate is the user-facing one here *)
    execs_per_s = float_of_int !execs /. sum_array best;
    coverage_pct = mean !covs;
    mcdc_pct = mean !mcdcs;
    peak_rss_mb = peak_rss_mb 0;
    latencies;
    jobs_per_s = (let all = List.concat latencies in float_of_int (List.length all) /. sum all) }

(* ------------------------------------------------------------------ *)
(* serve layers: a [cftcg serve] daemon on a Unix socket and two
   closed-loop clients, traced runs only. Not a gated workload (see
   README.md); it reports the Scheduler, Router, Wire and Server
   figures. *)

let serve_jobs_n () = 10 * !seconds
let serve_execs = 2_000
let serve_epoch = 500
let serve_tenants = 3

let daemon_pid = ref None

let stop_daemon () =
  match !daemon_pid with
  | None -> ()
  | Some pid ->
    daemon_pid := None;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let rec reap () =
      match Unix.waitpid [] pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error _ -> ()
    in
    reap ()

let http addr ~meth ~path ?body () =
  match Wire.http_request addr ~meth ~path ?body () with
  | r -> Some r
  | exception (Unix.Unix_error _ | End_of_file | Sys_error _ | Failure _) -> None

(* spawns the daemon and returns the seconds until /healthz answers *)
let start_daemon addr sock =
  if not (Sys.file_exists cftcg_exe) then die "no cftcg binary at %s" cftcg_exe;
  let log =
    Unix.openfile (Filename.concat run_dir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let t0 = now () in
  let pid = Unix.create_process cftcg_exe [| cftcg_exe; "serve"; "--socket"; sock |] Unix.stdin log log in
  Unix.close log;
  daemon_pid := Some pid;
  let rec wait () =
    if now () -. t0 > 30. then die "daemon did not come up"
    else
      match http addr ~meth:"GET" ~path:"/healthz" () with
      | Some (200, _) -> now () -. t0
      | _ ->
        Thread.delay 0.002;
        wait ()
  in
  wait ()

let serve_layers () =
  (* jobs cycle through the models and tenants; the seed draws every
     job's campaign seed *)
  let order = Array.of_list all_models in
  let n = serve_jobs_n () in
  let root = Printf.sprintf "%s/serve-%d" run_dir (Unix.getpid ()) in
  rm_rf root;
  Unix.mkdir root 0o755;
  let sock = Filename.concat root "d.sock" in
  let addr = Wire.Unix_path sock in
  let start = start_daemon addr sock in
  let rt_mu = Mutex.create () in
  let submit_t = ref [] and status_t = ref [] and events_t = ref [] and http_errors = ref 0 in
  let call cell ~meth ~path ?body () =
    let t0 = now () in
    let r = http addr ~meth ~path ?body () in
    let dt = now () -. t0 in
    Mutex.lock rt_mu;
    cell := dt :: !cell;
    (match r with Some (s, _) when s >= 200 && s < 300 -> () | _ -> incr http_errors);
    Mutex.unlock rt_mu;
    r
  in
  let queue_wait = Array.make n nan in
  let run_job i =
    let body =
      Wire.to_string
        (Wire.Obj
           [ ("model", Wire.Str order.(i mod Array.length order));
             ("tenant", Wire.Str (Printf.sprintf "t%d" (i mod serve_tenants)));
             ("seed", Wire.Num (Int64.to_float (derive !wseed "serve-seed" i)));
             ("jobs", Wire.Num 1.);
             ("total_execs", Wire.Num (float_of_int serve_execs));
             ("execs_per_epoch", Wire.Num (float_of_int serve_epoch));
             ("plateau_epochs", Wire.Num 1000.);
             ("stop_on_full", Wire.Bool false);
             ("corpus_dir", Wire.Str (Printf.sprintf "%s/j%d" root i)) ])
    in
    let t0 = now () in
    (* status polls to a terminal state; the queue wait ends at the
       first status that is no longer [queued] *)
    let rec poll id =
      match call status_t ~meth:"GET" ~path:("/campaigns/" ^ id) () with
      | Some (200, doc) ->
        let status = Wire.get_string "status" (Wire.of_string doc) in
        if status <> "queued" && Float.is_nan queue_wait.(i) then queue_wait.(i) <- now () -. t0;
        if List.mem status [ "done"; "failed"; "cancelled" ] then Some status
        else begin
          Thread.delay 0.005;
          poll id
        end
      | _ -> None
    in
    let req = Printf.sprintf "job%d" i in
    let ok, _ =
      timed ~req "serve.job" (fun () ->
          match call submit_t ~meth:"POST" ~path:"/campaigns" ~body () with
          | Some (201, resp) -> (
            let id = Wire.get_string "id" (Wire.of_string resp) in
            match poll id with
            | Some "done" -> call events_t ~meth:"GET" ~path:("/campaigns/" ^ id ^ "/events") () <> None
            | Some status -> check false "%s ended %s" req status
            | None -> false)
          | _ -> false)
    in
    op (check ok "%s did not complete cleanly" req)
  in
  (* two clients, each a closed loop over alternate jobs *)
  let client c =
    let rec go i =
      if i < n then begin
        (try run_job i with e -> op (check false "job%d: %s" i (Printexc.to_string e)));
        go (i + 2)
      end
    in
    go c
  in
  List.iter Thread.join (List.init 2 (fun c -> Thread.create client c));
  stop_daemon ();
  ignore (check (!http_errors = 0) "%d HTTP responses were not 2xx" !http_errors);
  metric "serve.submit_ms" "ms" (median !submit_t *. 1000.);
  metric "serve.status_ms" "ms" (median !status_t *. 1000.);
  metric "serve.events_ms" "ms" (median !events_t *. 1000.);
  metric "serve.queue_wait_ms" "ms" (median (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list queue_wait)) *. 1000.);
  metric "serve.http_errors" "count" (float_of_int !http_errors);
  metric "serve.daemon_start_ms" "ms" (start *. 1000.);
  rm_rf root

(* ------------------------------------------------------------------ *)
(* entry point *)

let workloads =
  [ ("cov-sweep", cov_sweep); ("fuzz-steady", fuzz_steady); ("campaign-hybrid", campaign_hybrid) ]

(* one workload run, from a fresh set-up grid; a traced run also turns
   on the program's own spans *)
let run_workload f ~traced =
  Hashtbl.reset setup_ivs;
  Cftcg_obs.Trace.clear ();
  span_on := traced;
  Cftcg_obs.Trace.set_enabled traced;
  let r = f ~traced in
  Cftcg_obs.Trace.set_enabled false;
  Cftcg_obs.Trace.clear ();
  r

(* the traced run also measures the set-up layers one by one *)
let setup_layers () =
  let time_ms name f = median (List.init 5 (fun _ -> snd (timed ~req:name "layer" f))) *. 1000. in
  let rows =
    List.map
      (fun name ->
        let text = text_of name in
        let g = Slx.load_string text in
        let prog = Codegen.lower g in
        let vm = Ir_vm.compile ~optimize:false prog in
        [ time_ms name (fun () -> ignore (Slx.load_string text));
          time_ms name (fun () -> ignore (Codegen.lower g));
          time_ms name (fun () -> ignore (Pipeline.generate g));
          time_ms name (fun () -> ignore (Ir_vm.compile ~optimize:false prog));
          time_ms name (fun () -> ignore (Ir_opt.optimize_bytecode (Ir_vm.linearized vm))) ])
      all_models
  in
  List.iteri
    (fun col name -> metric name "ms" (sum (List.map (fun row -> List.nth row col) rows)))
    [ "slx.load_ms"; "codegen.lower_ms"; "pipeline.generate_ms"; "ir_vm.compile_ms"; "ir_opt.optimize_ms" ]

let () =
  parse_args ();
  if not (Sys.file_exists "perfbench" && Sys.is_directory "perfbench") then die "run from the repository root";
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  at_exit stop_daemon;
  if !calibrate then run_calibration ()
  else begin
    let run =
      match List.assoc_opt !workload workloads with
      | Some f -> f
      | None -> die "unknown workload %S (one of: %s)" !workload (String.concat ", " (List.map fst workloads))
    in
    current := !workload;
    if !trace = 0 then report_e2e (run_workload run ~traced:false)
    else begin
      (* untraced run first: the baseline for the tracing overhead *)
      let base = run_workload run ~traced:false in
      let traced = run_workload run ~traced:true in
      metric "trace.overhead_ratio" "ratio" (traced.time_to_cov_s /. base.time_to_cov_s);
      metric "bench.ref_kernel_ms" "ms" (median (Array.to_list (Array.map snd (ref_samples ()))) *. 1000.);
      span_on := true;
      setup_layers ();
      (* the other workloads' layers, from shortened traced runs *)
      let full = !seconds in
      seconds := max 1 (full / 5);
      List.iter
        (fun (name, f) ->
          if name <> !workload then begin
            current := name;
            ignore (run_workload f ~traced:true)
          end)
        workloads;
      span_on := true;
      serve_layers ();
      seconds := full;
      current := !workload;
      write_spans (Printf.sprintf "%s/spans-%s-seed%d.json" run_dir !workload !wseed)
    end;
    let body =
      String.concat ", "
        (List.rev_map
           (fun (n, v, u) ->
             Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
               (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
               u)
           !metrics)
    in
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      (!problems = [] && !failed = 0) !attempted !failed body
  end
