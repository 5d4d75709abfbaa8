(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§4).

     table2   — benchmark model inventory (paper Table 2)
     table3   — SLDV vs SimCoTest vs CFTCG coverage (paper Table 3)
     figure7  — decision coverage vs time (paper Figure 7)
     figure8  — CFTCG vs Fuzz Only (paper Figure 8)
     speed    — compiled vs interpreted iteration rate (§4 text), per
                model VM vs optimized-VM costs; the gates below judge
                the very numbers it prints
     ablation — CFTCG ingredient ablations (DESIGN.md §5)
     scaling  — ensemble campaign throughput at jobs 1/2/4/8
     hybrid   — fuzz-only plateau vs plateau→solve→resume campaigns
                on the deep-state models (TCP, RAC), same seed and
                execution budget
     serve    — DRR scheduler multiplexing overhead vs solo runs,
                sharded corpus-store add throughput
     uncovered — per-model list of decisions CFTCG left unreached

   Usage: main.exe [experiment ...] [--budget SECONDS] [--reps N]
          [--seed N] [--models A,B,C] [--json]
          [--check-opt] [--check-obs]
   A bad argument prints the usage line and exits 2.
   --json additionally writes the speed experiment's numbers to
   BENCH_speed.json (machine-readable, tracked by CI).
   --check-opt makes the speed experiment exit non-zero unless the
   optimized VM keeps up with the plain VM (within 5%) on every bench
   model, on both the whole fuzzer execution and the instrumented
   step (probes live), the path every campaign execution takes.
   --check-obs makes the speed experiment exit non-zero if turning
   observability on (metrics + tracing) costs more than 2% of
   fuzzing throughput on any bench model.
   Default: every experiment at a small smoke budget. Absolute
   numbers differ from the paper (simulated substrate, seconds-scale
   budgets); shapes and orderings are the reproduction target. *)

open Cftcg_model
module Codegen = Cftcg_codegen.Codegen
module Recorder = Cftcg_coverage.Recorder
module Models = Cftcg_bench_models.Bench_models
module Tools = Cftcg_baselines.Tools
module Interp = Cftcg_interp.Interp
module Layout = Cftcg_fuzz.Layout
module Tt = Cftcg_util.Texttable

(* ------------------------------------------------------------------ *)
(* Options                                                             *)
(* ------------------------------------------------------------------ *)

type options = {
  mutable budget : float;  (** seconds per tool per model per rep *)
  mutable reps : int;
  mutable seed : int;
  mutable models : Models.entry list option;
  mutable experiments : string list;
  mutable json : bool;  (** write speed results to BENCH_speed.json *)
  mutable check_opt : bool;
      (** fail the speed experiment if the bytecode optimizer loses
          to the plain VM anywhere *)
  mutable check_obs : bool;
      (** fail the speed experiment if enabling observability costs
          more than 2% of fuzzing throughput anywhere *)
}

let opts =
  { budget = 1.0; reps = 2; seed = 1; models = None; experiments = []; json = false;
    check_opt = false; check_obs = false }

let usage =
  "usage: main.exe [experiment ...] [--budget SECONDS] [--reps N] [--seed N] [--models A,B,C] \
   [--json] [--check-opt] [--check-obs]"

let usage_error fmt = Printf.ksprintf (fun msg -> Printf.eprintf "%s\n%s\n" msg usage; exit 2) fmt

(* [experiments] are the known experiment names *)
let parse_args ~experiments =
  let value flag parse ok v =
    match parse v with
    | Some x when ok x -> x
    | _ -> usage_error "bad value %S for %s" v flag
  in
  let rec go = function
    | [] -> ()
    | "--budget" :: v :: rest ->
      opts.budget <- value "--budget" float_of_string_opt (fun b -> Float.is_finite b && b > 0.0) v;
      go rest
    | "--reps" :: v :: rest ->
      opts.reps <- value "--reps" int_of_string_opt (fun r -> r >= 1) v;
      go rest
    | "--seed" :: v :: rest ->
      opts.seed <- value "--seed" int_of_string_opt (fun _ -> true) v;
      go rest
    | "--models" :: v :: rest ->
      let find n = match Models.find n with Some e -> e | None -> usage_error "unknown model %S" n in
      opts.models <- Some (List.map find (String.split_on_char ',' v));
      go rest
    | "--json" :: rest ->
      opts.json <- true;
      go rest
    | "--check-opt" :: rest ->
      opts.check_opt <- true;
      go rest
    | "--check-obs" :: rest ->
      opts.check_obs <- true;
      go rest
    | [ ("--budget" | "--reps" | "--seed" | "--models") as flag ] ->
      usage_error "%s needs a value" flag
    | arg :: _ when String.starts_with ~prefix:"-" arg -> usage_error "unknown option %S" arg
    | exp :: rest when List.mem exp experiments ->
      opts.experiments <- opts.experiments @ [ exp ];
      go rest
    | exp :: _ ->
      usage_error "unknown experiment %S (known: %s)" exp (String.concat ", " experiments)
  in
  go (List.tl (Array.to_list Sys.argv))

let selected_models () = Option.value opts.models ~default:Models.all

let print_table title t =
  Printf.printf "\n== %s ==\n%s\n-- csv --\n%s" title (Tt.render t) (Tt.to_csv t);
  flush stdout

let pct f = Printf.sprintf "%.0f%%" f

(* ------------------------------------------------------------------ *)
(* Shared tool-campaign cache                                          *)
(* ------------------------------------------------------------------ *)

type campaign = {
  report : Recorder.report;
  series : (float * float) list;  (** decision coverage vs time *)
}

let cache : (string * string * int, campaign) Hashtbl.t = Hashtbl.create 64

let run_tool (e : Models.entry) (tool : Tools.t) rep =
  let key = (e.Models.name, tool.Tools.name, rep) in
  match Hashtbl.find_opt cache key with
  | Some c -> c
  | None ->
    let m = Lazy.force e.Models.model in
    let seed = Int64.of_int (opts.seed + (1000 * rep) + Hashtbl.hash tool.Tools.name) in
    let outcome = tool.Tools.generate m ~seed ~time_budget:opts.budget in
    let prog = Codegen.lower ~mode:Codegen.Full m in
    let suite = List.map (fun (tc : Tools.test_case) -> tc.Tools.data) outcome.Tools.suite in
    let report = Cftcg.Evaluate.replay prog suite in
    let timed =
      List.map (fun (tc : Tools.test_case) -> (tc.Tools.data, tc.Tools.time)) outcome.Tools.suite
    in
    let series = Cftcg.Evaluate.decision_series prog timed in
    let c = { report; series } in
    Hashtbl.replace cache key c;
    c

let avg_report (e : Models.entry) tool =
  let reps = List.init opts.reps (fun r -> (run_tool e tool r).report) in
  let n = float_of_int (List.length reps) in
  let mean f = List.fold_left (fun acc r -> acc +. f r) 0.0 reps /. n in
  ( mean (fun (r : Recorder.report) -> r.Recorder.decision_pct),
    mean (fun (r : Recorder.report) -> r.Recorder.condition_pct),
    mean (fun (r : Recorder.report) -> r.Recorder.mcdc_pct) )

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  let t =
    Tt.create [ "Model"; "Functionality"; "#Branch"; "#Block"; "paper #Branch"; "paper #Block" ]
  in
  List.iter
    (fun (e : Models.entry) ->
      let m = Lazy.force e.Models.model in
      let prog = Codegen.lower ~mode:Codegen.Full m in
      Tt.add_row t
        [ e.Models.name; e.Models.functionality;
          string_of_int (Recorder.branch_total prog);
          string_of_int (Graph.block_count m);
          string_of_int e.Models.paper_branches;
          string_of_int e.Models.paper_blocks ])
    (selected_models ());
  print_table "Table 2: benchmark models" t

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

let comparison_tools = [ Tools.sldv; Tools.simcotest; Tools.cftcg ]

let table3 () =
  let t = Tt.create [ "Model"; "Tool"; "Decision"; "Condition"; "MCDC" ] in
  let per_tool_scores = Hashtbl.create 8 in
  List.iter
    (fun (e : Models.entry) ->
      List.iter
        (fun tool ->
          let d, c, m = avg_report e tool in
          Hashtbl.replace per_tool_scores (tool.Tools.name, e.Models.name) (d, c, m);
          Tt.add_row t [ e.Models.name; tool.Tools.name; pct d; pct c; pct m ])
        comparison_tools;
      Tt.add_separator t)
    (selected_models ());
  (* average relative improvement of CFTCG over each baseline,
     paper-style *)
  let improvement baseline =
    let models = selected_models () in
    let ratios metric_ix =
      List.filter_map
        (fun (e : Models.entry) ->
          let get name = Hashtbl.find_opt per_tool_scores (name, e.Models.name) in
          match (get "CFTCG", get baseline) with
          | Some c, Some b ->
            let pick (d, co, m) =
              match metric_ix with
              | 0 -> d
              | 1 -> co
              | _ -> m
            in
            let cv = pick c and bv = pick b in
            if bv > 0.5 then Some (100.0 *. (cv -. bv) /. bv) else None
          | _ -> None)
        models
    in
    let mean l =
      if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
    in
    (mean (ratios 0), mean (ratios 1), mean (ratios 2))
  in
  let add_improvement name =
    let d, c, m = improvement name in
    Tt.add_row t
      [ "Avg improvement"; "vs " ^ name; Printf.sprintf "%+.1f%%" d; Printf.sprintf "%+.1f%%" c;
        Printf.sprintf "%+.1f%%" m ]
  in
  add_improvement "SLDV";
  add_improvement "SimCoTest";
  print_table
    (Printf.sprintf "Table 3: coverage comparison (budget %.1fs x %d reps)" opts.budget opts.reps)
    t

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

let figure7 () =
  let buckets = 10 in
  let header =
    "Model" :: "Tool"
    :: List.init buckets (fun i ->
           Printf.sprintf "t=%.1fs" (opts.budget *. float_of_int (i + 1) /. float_of_int buckets))
  in
  let t = Tt.create header in
  List.iter
    (fun (e : Models.entry) ->
      List.iter
        (fun tool ->
          let series = (run_tool e tool 0).series in
          let at time =
            List.fold_left (fun acc (ts, cov) -> if ts <= time then cov else acc) 0.0 series
          in
          let cells =
            List.init buckets (fun i ->
                pct (at (opts.budget *. float_of_int (i + 1) /. float_of_int buckets)))
          in
          Tt.add_row t (e.Models.name :: tool.Tools.name :: cells))
        comparison_tools;
      Tt.add_separator t)
    (selected_models ());
  print_table "Figure 7: decision coverage vs time" t

(* ------------------------------------------------------------------ *)
(* Figure 8                                                            *)
(* ------------------------------------------------------------------ *)

let figure8 () =
  let t =
    Tt.create
      [ "Model"; "CFTCG Dec"; "FuzzOnly Dec"; "CFTCG Cond"; "FuzzOnly Cond"; "CFTCG MCDC";
        "FuzzOnly MCDC" ]
  in
  List.iter
    (fun (e : Models.entry) ->
      let cd, cc, cm = avg_report e Tools.cftcg in
      let fd, fc, fm = avg_report e Tools.fuzz_only in
      Tt.add_row t [ e.Models.name; pct cd; pct fd; pct cc; pct fc; pct cm; pct fm ])
    (selected_models ());
  print_table "Figure 8: CFTCG vs Fuzz Only (without model orientation)" t

(* ------------------------------------------------------------------ *)
(* Speed (§4: 26,000 vs 6 iterations per second)                       *)
(* ------------------------------------------------------------------ *)

module Ir_vm = Cftcg_ir.Ir_vm
module Fuzzer = Cftcg_fuzz.Fuzzer

(* Every speed number, JSON value and gate verdict comes from one
   timer. A round times a batch of calls and reads ns per call. The
   two sides of a pair alternate round by round, so frequency drift,
   thermal state and GC pressure hit both alike; after one warm-up
   round per side, each side keeps its best of [rounds]. One
   contiguous sampling window per side would let a single hiccup on a
   throttling box skew a side by more than the optimizer's margin. *)
let rounds = 10

let batch n f () =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    f ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9

let paired a b =
  ignore (a ());
  ignore (b ());
  let best_a = ref infinity and best_b = ref infinity in
  for _ = 1 to rounds do
    best_a := Float.min !best_a (a ());
    best_b := Float.min !best_b (b ())
  done;
  (!best_a, !best_b)

let best_of a =
  ignore (a ());
  let best = ref infinity in
  for _ = 1 to rounds do
    best := Float.min !best (a ())
  done;
  !best

(* A gate leg measures a (baseline_ns, candidate_ns) pair; the
   candidate loses when it is slower than [bound] times the baseline.
   A losing model is measured once more and fails only if it loses
   again. The pair returned is the one the tables print, so they and
   the verdict agree. *)
let gate_failures = ref []

let gate ~flag ~on ~bound ~leg name measure =
  let loses (base, cand) = cand > base *. bound in
  let r = measure () in
  if not (on && loses r) then r
  else begin
    Printf.printf "%s: %s lost %s (%.0f vs %.0f ns), re-measuring\n%!" flag name leg (snd r)
      (fst r);
    let ((base, cand) as r) = measure () in
    if loses r then
      gate_failures :=
        Printf.sprintf "%s FAIL: %s %s: %.0f vs %.0f ns (bound %.2fx)" flag name leg cand base bound
        :: !gate_failures;
    r
  end

let gate_verdict ok =
  if !gate_failures = [] then print_endline ok
  else begin
    List.iter prerr_endline (List.rev !gate_failures);
    exit 1
  end

let n_tuples = 16

(* the fields of tuple [tuple] of [bytes], boxed, into [set] *)
let feed (layout : Layout.t) bytes ~tuple set =
  Array.iteri
    (fun i (f : Layout.field) ->
      set i (Value.decode f.Layout.f_ty bytes ((tuple * layout.Layout.tuple_len) + f.Layout.f_offset)))
    layout.Layout.fields

(* One fuzzer execution of [input] (the fuzzer's inner loop, coverage
   accounting included). g_total saturates after the first call, so
   later calls time the no-new-coverage hot path. *)
let fuzz_exec prog layout input ~optimize =
  let g_total = Bytes.make (max prog.Cftcg_ir.Ir.n_probes 1) '\000' in
  let exec =
    Fuzzer.make_executor ~code:(Ir_vm.prepare ~optimize prog) ~backend:Fuzzer.Vm ~layout ~prog
      ~g_total ~max_tuples:n_tuples ~use_metric:true ()
  in
  let cells = ref [] in
  fun () -> ignore (exec ~fresh_cells:cells input)

let step_tuple layout =
  Layout.random_tuple_bytes layout (Cftcg_util.Rng.create (Int64.of_int (opts.seed + 7)))

(* (plain VM, optimized VM) ns per step of [prog] on [tuple], the
   probe buffer cleared after each step (Plain code fires none). On
   Full code this is the instrumented path every campaign execution
   takes. *)
let step_pair prog layout tuple =
  let stepper optimize =
    let vm = Ir_vm.compile ~optimize prog in
    Ir_vm.reset vm;
    let p = Ir_vm.probes vm in
    fun () ->
      Layout.load_tuple_vm layout tuple ~tuple:0 vm;
      Ir_vm.step vm;
      Ir_vm.clear_probes p
  in
  let vm = stepper false in
  let opt = stepper true in
  paired (batch 2000 vm) (batch 2000 opt)

(* Per bench model; each pair is (optimizer off, optimizer on). *)
type model_speed = {
  ms_name : string;
  ms_interp_ns : float;  (** graph interpreter, one 16-tuple execution *)
  ms_exec_ns : float * float;  (** one 16-tuple fuzzer execution *)
  ms_step_ns : float * float;  (** one instrumented step *)
  ms_static : int * int;  (** uninstrumented instruction count *)
  ms_dyn : int * int;  (** instruction dispatches for one 16-tuple exec *)
}

(* A 16-tuple input through the fuzzer's executor on the plain and the
   optimized VM (both --check-opt legs), and through the graph
   interpreter, the reproduction's stand-in for simulation-based
   execution; plus the optimizer's instruction counts on the
   uninstrumented build over the same input. *)
let model_speed (e : Models.entry) =
  let m = Lazy.force e.Models.model in
  let prog = Codegen.lower ~mode:Codegen.Full m in
  let layout = Layout.of_program prog in
  let rng = Cftcg_util.Rng.create (Int64.of_int (opts.seed + 5)) in
  let input =
    Bytes.concat Bytes.empty (List.init n_tuples (fun _ -> Layout.random_tuple_bytes layout rng))
  in
  let gate_opt = gate ~flag:"check-opt" ~on:opts.check_opt ~bound:1.05 e.Models.name in
  let interp = Interp.create m in
  let interp_exec () =
    Interp.reset interp;
    for tuple = 0 to n_tuples - 1 do
      feed layout input ~tuple (Interp.set_input interp);
      Interp.step interp
    done
  in
  let lin = Cftcg_ir.Ir_linearize.linearize prog in
  let lin_opt = Cftcg_ir.Ir_opt.optimize_bytecode lin in
  let rows =
    Array.init n_tuples (fun tuple ->
        Array.map
          (fun (f : Layout.field) ->
            Value.to_float
              (Value.decode f.Layout.f_ty input ((tuple * layout.Layout.tuple_len) + f.Layout.f_offset)))
          layout.Layout.fields)
  in
  let exec_ns =
    gate_opt ~leg:"vm-opt vs vm ns/exec" (fun () ->
        let vm = fuzz_exec prog layout input ~optimize:false in
        let opt = fuzz_exec prog layout input ~optimize:true in
        paired (batch 100 vm) (batch 100 opt))
  in
  let step_ns =
    gate_opt ~leg:"vmopt-instrumented vs vm-instrumented ns/step" (fun () ->
        step_pair prog layout (step_tuple layout))
  in
  let both f = (f lin, f lin_opt) in
  { ms_name = e.Models.name; ms_interp_ns = best_of (batch 10 interp_exec); ms_exec_ns = exec_ns;
    ms_step_ns = step_ns; ms_static = both Cftcg_ir.Ir_opt.static_count;
    ms_dyn = both (fun lin -> Cftcg_ir.Ir_opt.dynamic_count lin rows) }

(* The --check-obs pair, (obs-off, obs-on) ns per execution, over
   whole fuzzing runs: the metric counters and sampled timing
   histograms live inside Fuzzer.run's loop, not in the executor. The
   on side enables the whole surface — metrics, tracing, debug-level
   structured logging and the flight-recorder ring — so the <2% bound
   covers the logger too. *)
let obs_pair (e : Models.entry) =
  let prog = Codegen.lower ~mode:Codegen.Full (Lazy.force e.Models.model) in
  let config = { Fuzzer.default_config with Fuzzer.seed = Int64.of_int (opts.seed + 11) } in
  let execs = 8000 in
  let run obs () =
    Cftcg_obs.Metrics.set_collect obs;
    Cftcg_obs.Trace.set_enabled obs;
    Cftcg_obs.Log.set_level (if obs then Some Cftcg_obs.Log.Debug else None);
    Cftcg_obs.Flight.set_enabled obs;
    let t0 = Unix.gettimeofday () in
    ignore (Fuzzer.run ~config prog (Fuzzer.Exec_budget execs));
    let dt = Unix.gettimeofday () -. t0 in
    Cftcg_obs.Metrics.set_collect false;
    Cftcg_obs.Trace.set_enabled false;
    Cftcg_obs.Trace.clear ();
    Cftcg_obs.Log.set_level None;
    Cftcg_obs.Flight.set_enabled false;
    Cftcg_obs.Flight.clear ();
    dt /. float_of_int execs *. 1e9
  in
  paired (run false) (run true)

let speed () =
  let models = selected_models () in
  let model_rows = List.map model_speed models in
  (* SolarPV headline: its instrumented rows are SolarPV's step pair *)
  let m = Lazy.force (Option.get (Models.find "SolarPV")).Models.model in
  let prog_plain = Codegen.lower ~mode:Codegen.Plain m in
  let prog_full = Codegen.lower ~mode:Codegen.Full m in
  let layout = Layout.of_program prog_full in
  let tuple = step_tuple layout in
  let vm_instr, vmopt_instr =
    match List.find_opt (fun ms -> ms.ms_name = "SolarPV") model_rows with
    | Some ms -> ms.ms_step_ns
    | None -> step_pair prog_full layout tuple
  in
  let vm_plain, vmopt_plain = step_pair prog_plain layout tuple in
  let evaluator = Cftcg_ir.Ir_eval.create prog_plain in
  Cftcg_ir.Ir_eval.reset evaluator;
  let interp = Interp.create m in
  Interp.reset interp;
  let per_step step set =
    best_of
      (batch 2000 (fun () ->
           feed layout tuple ~tuple:0 set;
           step ()))
  in
  let eval_ns =
    per_step (fun () -> Cftcg_ir.Ir_eval.step evaluator) (Cftcg_ir.Ir_eval.set_input evaluator)
  in
  let interp_ns = per_step (fun () -> Interp.step interp) (Interp.set_input interp) in
  let step_rows =
    [ ("vm-plain", vm_plain); ("vm-instrumented", vm_instr); ("vmopt-plain", vmopt_plain);
      ("vmopt-instrumented", vmopt_instr); ("ir-evaluator", eval_ns);
      ("graph-interpreter", interp_ns) ]
  in
  let f0 = Printf.sprintf "%.0f" and x2 = Printf.sprintf "%.2fx" in
  let t = Tt.create [ "Execution path"; "ns/iteration"; "iterations/s" ] in
  List.iter (fun (label, ns) -> Tt.add_row t [ label; f0 ns; f0 (1e9 /. ns) ]) step_rows;
  Tt.add_row t [ "speedup vm/interpreter"; Printf.sprintf "%.0fx" (interp_ns /. vm_instr); "" ];
  Tt.add_row t [ "speedup vm-opt/interpreter"; Printf.sprintf "%.0fx" (interp_ns /. vmopt_instr); "" ];
  print_table "Speed: SolarPV model iteration rate (paper: 26,000/s vs 6/s)" t;
  let over (off, on) = off /. on in
  let model_table title header cells =
    let t = Tt.create ("Model" :: header) in
    List.iter (fun ms -> Tt.add_row t (ms.ms_name :: cells ms)) model_rows;
    print_table title t
  in
  model_table "Speed: fuzzer executions/s (16-tuple inputs)"
    [ "interp ex/s"; "vm ex/s"; "vm-opt ex/s"; "vm-opt/vm" ]
    (fun { ms_interp_ns; ms_exec_ns = (vm, opt) as p; _ } ->
      [ f0 (1e9 /. ms_interp_ns); f0 (1e9 /. vm); f0 (1e9 /. opt); x2 (over p) ]);
  model_table "Speed: instrumented hot path"
    [ "vm-instr ns/step"; "vmopt-instr ns/step"; "vm/vmopt" ]
    (fun { ms_step_ns = (vm, opt) as p; _ } -> [ f0 vm; f0 opt; x2 (over p) ]);
  model_table "Speed: optimizer instruction counts"
    [ "static insts"; "opt"; "dyn insts/exec"; "opt"; "dyn -%" ]
    (fun { ms_static = st, st_opt; ms_dyn = dyn, dyn_opt; _ } ->
      [ string_of_int st; string_of_int st_opt; string_of_int dyn; string_of_int dyn_opt;
        Printf.sprintf "%.1f%%" (100.0 *. float_of_int (dyn - dyn_opt) /. float_of_int dyn) ]);
  let geomean f =
    exp
      (List.fold_left (fun acc ms -> acc +. log (over (f ms))) 0.0 model_rows
      /. float_of_int (List.length model_rows))
  in
  let exec_geomean = geomean (fun ms -> ms.ms_exec_ns) in
  let step_geomean = geomean (fun ms -> ms.ms_step_ns) in
  let big_dyn_cuts =
    List.length
      (List.filter
         (fun { ms_dyn = dyn, dyn_opt; _ } -> float_of_int dyn_opt <= 0.8 *. float_of_int dyn)
         model_rows)
  in
  Printf.printf "\nvm-opt/vm geomean speedup: %.2fx; >=20%% dynamic-instruction cut on %d/%d models\n"
    exec_geomean big_dyn_cuts (List.length model_rows);
  Printf.printf "vmopt-instrumented/vm-instrumented step geomean: %.2fx\n" step_geomean;
  if opts.json then begin
    let f1 = Printf.sprintf "%.1f" and f3 = Printf.sprintf "%.3f" in
    let model { ms_name; ms_interp_ns = interp; ms_exec_ns = (vm, opt) as exec;
                ms_step_ns = (svm, sopt) as step; ms_static = st, st_opt; ms_dyn = dyn, dyn_opt } =
      [ ("model", "\"" ^ ms_name ^ "\""); ("interp_exec_ns", f1 interp); ("vm_exec_ns", f1 vm);
        ("vm_opt_exec_ns", f1 opt); ("vm_instr_step_ns", f1 svm); ("vm_opt_instr_step_ns", f1 sopt);
        ("vm_opt_over_vm_instr_step", f3 (over step)); ("interp_execs_per_s", f1 (1e9 /. interp));
        ("vm_execs_per_s", f1 (1e9 /. vm)); ("vm_opt_execs_per_s", f1 (1e9 /. opt));
        ("vm_opt_over_vm", f3 (over exec)); ("static_insts", string_of_int st);
        ("static_insts_opt", string_of_int st_opt); ("dyn_insts", string_of_int dyn);
        ("dyn_insts_opt", string_of_int dyn_opt) ]
      |> List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v)
      |> String.concat ", "
    in
    let lines f l = String.concat ",\n" (List.map f l) in
    let oc = open_out "BENCH_speed.json" in
    Printf.fprintf oc
      "{\n\
      \  \"benchmark\": \"speed\",\n\
      \  \"step_ns\": {\n\
       %s\n\
      \  },\n\
      \  \"vm_opt_geomean_speedup\": %.3f,\n\
      \  \"instr_step_geomean_speedup\": %.3f,\n\
      \  \"models\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      (lines (fun (label, ns) -> Printf.sprintf "    \"%s\": %.1f" label ns) step_rows)
      exec_geomean step_geomean
      (lines (fun ms -> "    { " ^ model ms ^ " }") model_rows);
    close_out oc;
    Printf.printf "\nwrote BENCH_speed.json\n"
  end;
  if opts.check_opt then
    gate_verdict
      (Printf.sprintf
         "check-opt OK: vm-opt keeps up with vm on all %d models (whole-exec and instrumented step)"
         (List.length model_rows));
  if opts.check_obs then begin
    let t = Tt.create [ "Model"; "obs-off ns/exec"; "obs-on ns/exec"; "on/off" ] in
    List.iter
      (fun (e : Models.entry) ->
        let off, on =
          gate ~flag:"check-obs" ~on:true ~bound:1.02 ~leg:"obs-on vs obs-off ns/exec" e.Models.name
            (fun () -> obs_pair e)
        in
        Tt.add_row t [ e.Models.name; f0 off; f0 on; Printf.sprintf "%.3f" (on /. off) ])
      models;
    print_table "Speed: observability cost (8000-exec fuzzing runs)" t;
    gate_verdict
      (Printf.sprintf "check-obs OK: observability costs <2%% execs/s on all %d models"
         (List.length models))
  end

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation () =
  let variants =
    [ Tools.cftcg;
      Tools.cftcg_variant ~field_aware:false "CFTCG-noField";
      Tools.cftcg_variant ~iteration_metric:false "CFTCG-noIterMetric";
      Tools.cftcg_variant ~use_dictionary:false "CFTCG-noDict";
      Tools.cftcg_hybrid;
      Tools.fuzz_only ]
  in
  let t = Tt.create [ "Model"; "Variant"; "Decision"; "Condition"; "MCDC" ] in
  List.iter
    (fun (e : Models.entry) ->
      List.iter
        (fun tool ->
          let d, c, m = avg_report e tool in
          Tt.add_row t [ e.Models.name; tool.Tools.name; pct d; pct c; pct m ])
        variants;
      Tt.add_separator t)
    (selected_models ());
  print_table "Ablation: model-oriented ingredients" t

(* ------------------------------------------------------------------ *)
(* Scaling: ensemble campaign throughput vs worker count              *)
(* ------------------------------------------------------------------ *)

module Campaign = Cftcg_campaign.Campaign

let scaling () =
  let e =
    match selected_models () with
    | e :: _ -> e
    | [] -> Option.get (Models.find "SolarPV")
  in
  let m = Lazy.force e.Models.model in
  let prog = Codegen.lower ~mode:Codegen.Full m in
  (* same total execution budget at every worker count, early stops
     disabled, so throughput and coverage are directly comparable *)
  let total = max 1000 (int_of_float (opts.budget *. 20_000.)) in
  let t = Tt.create [ "Jobs"; "Probes covered"; "Executions"; "Wall s"; "Execs/s" ] in
  List.iter
    (fun jobs ->
      let config =
        { Campaign.default_config with
          Campaign.jobs;
          seed = Int64.of_int opts.seed;
          total_execs = total;
          execs_per_epoch = max 1 (total / (4 * jobs));
          stop_on_full = false;
          plateau_epochs = max_int
        }
      in
      let t0 = Unix.gettimeofday () in
      let r = Campaign.run ~config prog in
      let wall = Unix.gettimeofday () -. t0 in
      Tt.add_row t
        [ string_of_int jobs;
          Printf.sprintf "%d/%d" r.Campaign.probes_covered r.Campaign.probes_total;
          string_of_int r.Campaign.executions; Printf.sprintf "%.2f" wall;
          Printf.sprintf "%.0f" (float_of_int r.Campaign.executions /. Float.max wall 1e-9) ])
    [ 1; 2; 4; 8 ];
  print_table
    (Printf.sprintf "Scaling: %s ensemble campaign, %d executions total" e.Models.name total)
    t

(* ------------------------------------------------------------------ *)
(* Hybrid: fuzz-only plateau vs plateau→solve→resume campaigns        *)
(* ------------------------------------------------------------------ *)

(* Table-3-style comparison on the deep-state models (TCP's handshake
   and RAC's guarded transitions hide probes behind cross-inport
   equality constraints that random mutation essentially never
   satisfies): the same seeded campaign once with the classic plateau
   stop and once with the hybrid concolic phase. Both runs share seed
   and execution budget — the hybrid run spends part of its budget
   inside the solver — so any coverage gap is the solver phase's
   contribution, not extra executions. *)
let hybrid_bench () =
  let models =
    match opts.models with
    | Some _ -> selected_models ()
    | None -> List.filter_map Models.find [ "TCP"; "RAC" ]
  in
  (* small epochs so fuzzing plateaus while solvable targets remain,
     and a generous per-phase solver budget (clipped to what is left of
     the total anyway): the regime where the alternation pays *)
  let total = max 40_000 (int_of_float (opts.budget *. 20_000.)) in
  let config hybrid =
    { Campaign.default_config with
      Campaign.jobs = 2;
      seed = Int64.of_int opts.seed;
      total_execs = total;
      execs_per_epoch = max 1 (total / 64);
      plateau_epochs = 2;
      stop_on_full = true;
      hybrid =
        (if hybrid then
           Some { Campaign.default_hybrid with Campaign.solver_execs = 3 * total / 4 }
         else None)
    }
  in
  let t =
    Tt.create
      [ "Model"; "Mode"; "Probes"; "Executions"; "Solver phases"; "Solver closed"; "Stop reason" ]
  in
  let gains = ref [] in
  List.iter
    (fun (e : Models.entry) ->
      let prog = Codegen.lower ~mode:Codegen.Full (Lazy.force e.Models.model) in
      let row mode hybrid =
        let r = Campaign.run ~config:(config hybrid) prog in
        Tt.add_row t
          [ e.Models.name; mode;
            Printf.sprintf "%d/%d" r.Campaign.probes_covered r.Campaign.probes_total;
            string_of_int r.Campaign.executions; string_of_int r.Campaign.solver_rounds;
            string_of_int r.Campaign.solver_solved;
            (match r.Campaign.stop_reason with
            | Some reason -> Campaign.stop_reason_string reason
            | None -> "-") ];
        r
      in
      let fuzz_only = row "fuzz-only" false in
      let hybrid = row "hybrid" true in
      gains :=
        (e.Models.name, hybrid.Campaign.probes_covered - fuzz_only.Campaign.probes_covered)
        :: !gains;
      Tt.add_separator t)
    models;
  print_table
    (Printf.sprintf "Hybrid: fuzz-only plateau vs plateau-solve-resume (%d execs, seed %d)" total
       opts.seed)
    t;
  List.iter
    (fun (name, gain) ->
      Printf.printf "hybrid gain on %s: %+d probe(s) over fuzz-only at the same budget\n" name gain)
    (List.rev !gains)

(* ------------------------------------------------------------------ *)
(* Serve: scheduler multiplexing overhead and shard store throughput  *)
(* ------------------------------------------------------------------ *)

module Scheduler = Cftcg_serve.Scheduler
module Serve_job = Cftcg_serve.Job
module Worker_pool = Cftcg_campaign.Worker_pool
module Store = Cftcg_campaign.Corpus_store
module Bytecodec = Cftcg_util.Bytecodec

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let serve_bench () =
  let e =
    match selected_models () with
    | e :: _ -> e
    | [] -> Option.get (Models.find "SolarPV")
  in
  let prog = Codegen.lower ~mode:Codegen.Full (Lazy.force e.Models.model) in
  let n = 8 in
  let total = max 500 (int_of_float (opts.budget *. 4_000.)) in
  let config_for i =
    { Campaign.default_config with
      Campaign.jobs = 2;
      seed = Int64.of_int (opts.seed + i);
      total_execs = total;
      execs_per_epoch = max 1 (total / 4);
      stop_on_full = false;
      plateau_epochs = max_int
    }
  in
  (* back-to-back solo runs: the no-scheduler baseline *)
  let t0 = Unix.gettimeofday () in
  let execs_solo =
    List.fold_left ( + ) 0
      (List.init n (fun i -> (Campaign.run ~config:(config_for i) prog).Campaign.executions))
  in
  let solo_wall = Unix.gettimeofday () -. t0 in
  (* the same campaigns multiplexed through the DRR scheduler *)
  let pool = Worker_pool.create (Worker_pool.default_capacity ()) in
  let sched = Scheduler.create ~pool () in
  let t0 = Unix.gettimeofday () in
  let ids =
    List.init n (fun i ->
        let sub =
          { Scheduler.sb_model = e.Models.name; sb_tenant = Printf.sprintf "t%d" (i mod 3);
            sb_weight = 1; sb_tenant_budget = None; sb_config = config_for i }
        in
        Result.get_ok (Scheduler.submit sched sub prog))
  in
  let rec drain ids =
    let live =
      List.filter
        (fun id ->
          match Scheduler.find sched id with
          | Some j -> not (Serve_job.terminal j.Serve_job.jb_status)
          | None -> false)
        ids
    in
    if live <> [] then begin
      Thread.delay 0.01;
      drain live
    end
  in
  drain ids;
  let sched_wall = Unix.gettimeofday () -. t0 in
  let execs_sched =
    List.fold_left (fun acc j -> acc + j.Serve_job.jb_spent) 0 (Scheduler.jobs sched)
  in
  Scheduler.shutdown sched;
  let t = Tt.create [ "Mode"; "Campaigns"; "Executions"; "Wall s"; "Execs/s" ] in
  let row label execs wall =
    Tt.add_row t
      [ label; string_of_int n; string_of_int execs; Printf.sprintf "%.2f" wall;
        Printf.sprintf "%.0f" (float_of_int execs /. Float.max wall 1e-9) ]
  in
  row "solo, back to back" execs_solo solo_wall;
  row "DRR scheduler" execs_sched sched_wall;
  print_table
    (Printf.sprintf "Serve: %d multiplexed %s campaigns vs solo (pool %d)" n e.Models.name
       (Worker_pool.default_capacity ()))
    t;
  (* sharded store: add throughput, 1 writer vs 4 concurrent domains *)
  let adds = 4_000 in
  let throughput writers =
    let dir = Filename.concat (Filename.get_temp_dir_name ()) "cftcg_bench_store" in
    rm_rf dir;
    let store = Store.open_ dir in
    let per = adds / writers in
    let t0 = Unix.gettimeofday () in
    let ds =
      List.init writers (fun w ->
          Domain.spawn (fun () ->
              for i = 0 to per - 1 do
                let fp = Bytecodec.hex_of_int64 (Int64.of_int ((w * 7_000_019) + i + 1)) in
                ignore (Store.add store ~fingerprint:fp ~metric:i (Bytes.make 64 'x'))
              done))
    in
    List.iter Domain.join ds;
    let wall = Unix.gettimeofday () -. t0 in
    rm_rf dir;
    float_of_int (per * writers) /. Float.max wall 1e-9
  in
  let t = Tt.create [ "Writers"; "Adds/s" ] in
  List.iter
    (fun w -> Tt.add_row t [ string_of_int w; Printf.sprintf "%.0f" (throughput w) ])
    [ 1; 4 ];
  print_table (Printf.sprintf "Sharded corpus store: %d adds" adds) t

(* ------------------------------------------------------------------ *)
(* Uncovered-decision diagnostic (not a paper artifact)                *)
(* ------------------------------------------------------------------ *)

let uncovered () =
  List.iter
    (fun (e : Models.entry) ->
      let m = Lazy.force e.Models.model in
      let prog = Codegen.lower ~mode:Codegen.Full m in
      let outcome = Tools.cftcg.Tools.generate m ~seed:(Int64.of_int opts.seed) ~time_budget:opts.budget in
      let suite = List.map (fun (tc : Tools.test_case) -> tc.Tools.data) outcome.Tools.suite in
      let recorder = Cftcg.Evaluate.record prog suite in
      Printf.printf "\n== uncovered decisions: %s ==\n" e.Models.name;
      List.iter
        (fun (block, desc, missing) ->
          Printf.printf "  %-40s %-28s missing outcomes %s\n" block desc
            (String.concat "," (List.map string_of_int missing)))
        (Recorder.uncovered recorder))
    (selected_models ());
  flush stdout

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let all_experiments =
  [ ("table2", table2); ("table3", table3); ("figure7", figure7); ("figure8", figure8);
    ("speed", speed); ("ablation", ablation); ("scaling", scaling); ("hybrid", hybrid_bench);
    ("serve", serve_bench); ("uncovered", uncovered) ]

let () =
  parse_args ~experiments:(List.map fst all_experiments);
  let chosen =
    match opts.experiments with
    | [] -> List.map fst all_experiments
    | picked -> picked
  in
  Printf.printf "CFTCG benchmark harness — budget %.1fs, %d rep(s), seed %d\n" opts.budget opts.reps
    opts.seed;
  List.iter (fun name -> (List.assoc name all_experiments) ()) chosen
