(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§4).

     table2   — benchmark model inventory (paper Table 2)
     table3   — SLDV vs SimCoTest vs CFTCG coverage (paper Table 3)
     figure7  — decision coverage vs time (paper Figure 7)
     figure8  — CFTCG vs Fuzz Only (paper Figure 8)
     speed    — compiled vs interpreted iteration rate (§4 text)
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
   --json additionally writes the speed experiment's numbers to
   BENCH_speed.json (machine-readable, tracked by CI).
   --check-opt makes the speed experiment exit non-zero unless the
   optimized VM keeps up with the plain VM on every bench model —
   measured on the instrumented fuzzing path (probes live), the one
   every campaign execution takes.
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
  mutable models : string list option;
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

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--budget" :: v :: rest ->
      opts.budget <- float_of_string v;
      go rest
    | "--reps" :: v :: rest ->
      opts.reps <- int_of_string v;
      go rest
    | "--seed" :: v :: rest ->
      opts.seed <- int_of_string v;
      go rest
    | "--models" :: v :: rest ->
      opts.models <- Some (String.split_on_char ',' v);
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
    | exp :: rest ->
      opts.experiments <- opts.experiments @ [ exp ];
      go rest
  in
  go (List.tl (Array.to_list Sys.argv))

let selected_models () =
  match opts.models with
  | None -> Models.all
  | Some names ->
    List.filter_map
      (fun n ->
        match Models.find n with
        | Some e -> Some e
        | None ->
          Printf.eprintf "unknown model %S\n" n;
          None)
      names

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

let bechamel_estimates tests =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name v acc ->
      match Analyze.OLS.estimates v with
      | Some (est :: _) -> (name, est) :: acc
      | Some [] | None -> acc)
    res []

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Everything the speed experiment measures per bench model:
   execution latency per backend, allocation pressure, and the
   bytecode optimizer's static/dynamic instruction-count effect. *)
type model_speed = {
  ms_name : string;
  ms_interp_ns : float;
  ms_vm_ns : float;  (** plain VM, optimizer disabled *)
  ms_vm_opt_ns : float;  (** VM with the Ir_opt bytecode pipeline *)
  ms_vm_step_ns : float;  (** instrumented ns/step, optimizer off *)
  ms_vm_opt_step_ns : float;  (** instrumented ns/step, optimizer on *)
  ms_static : int;  (** uninstrumented instruction count, pre-opt *)
  ms_static_opt : int;
  ms_dyn : int;  (** instruction dispatches for one 16-tuple exec *)
  ms_dyn_opt : int;
  ms_minor_vm : float;  (** GC minor words per execution *)
  ms_minor_vm_opt : float;
}

(* Steady-state GC minor words per call: the mutation/exec hot paths
   are meant to be allocation-free, so this should sit near zero for
   the VM backends. *)
let minor_words_per_call f =
  f ();
  let n = 64 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* One fuzzer execution (a multi-tuple input through the fuzzer's
   inner loop, coverage accounting included), optimizer off and on.
   The interp row runs the graph interpreter over the same tuples —
   the reproduction's stand-in for simulation-based execution. *)
let backend_execs_per_sec (e : Models.entry) =
  let m = Lazy.force e.Models.model in
  let prog = Codegen.lower ~mode:Codegen.Full m in
  let layout = Layout.of_program prog in
  let rng = Cftcg_util.Rng.create (Int64.of_int (opts.seed + 5)) in
  let n_tuples = 16 in
  let input =
    Bytes.concat Bytes.empty (List.init n_tuples (fun _ -> Layout.random_tuple_bytes layout rng))
  in
  let fuzz_exec ~optimize =
    let g_total = Bytes.make (max prog.Cftcg_ir.Ir.n_probes 1) '\000' in
    let exec =
      Cftcg_fuzz.Fuzzer.make_executor ~optimize ~backend:Cftcg_fuzz.Fuzzer.Vm ~layout ~prog
        ~g_total ~max_tuples:n_tuples ~use_metric:true ()
    in
    let cells = ref [] in
    (* steady state: g_total saturates after the first call, so later
       executions measure the no-new-coverage hot path *)
    fun () -> ignore (exec ~fresh_cells:cells input)
  in
  let interp_exec =
    let interp = Interp.create m in
    let fields = layout.Layout.fields in
    let tuple_len = layout.Layout.tuple_len in
    fun () ->
      Interp.reset interp;
      for tuple = 0 to n_tuples - 1 do
        Array.iteri
          (fun i (f : Layout.field) ->
            Interp.set_input interp i
              (Value.decode f.Layout.f_ty input ((tuple * tuple_len) + f.Layout.f_offset)))
          fields;
        Interp.step interp
      done
  in
  (* Instruction counts on the same build the fuzzer executes
     (uninstrumented — probes only, no hooks), over the same input. *)
  let lin = Cftcg_ir.Ir_linearize.linearize prog in
  let lin_opt = Cftcg_ir.Ir_opt.optimize_bytecode lin in
  let rows =
    Array.init n_tuples (fun tuple ->
        Array.map
          (fun (f : Layout.field) ->
            Value.decode_float f.Layout.f_ty input ((tuple * layout.Layout.tuple_len) + f.Layout.f_offset))
          layout.Layout.fields)
  in
  let vm_exec = fuzz_exec ~optimize:false in
  let vm_opt_exec = fuzz_exec ~optimize:true in
  (* instrumented ns/step — the per-iteration cost of the path every
     campaign execution takes (probes live, coverage buffer cleared
     per step), optimizer off vs on *)
  let step_exec optimize =
    let vm = Cftcg_ir.Ir_vm.compile ~optimize prog in
    Cftcg_ir.Ir_vm.reset vm;
    let p = Cftcg_ir.Ir_vm.probes vm in
    fun () ->
      Layout.load_tuple_vm layout input ~tuple:0 vm;
      Cftcg_ir.Ir_vm.step vm;
      Cftcg_ir.Ir_vm.clear_probes p
  in
  let vm_step = step_exec false in
  let vm_opt_step = step_exec true in
  let open Bechamel in
  let tests =
    Test.make_grouped ~name:"exec"
      [ Test.make ~name:"interp" (Staged.stage interp_exec);
        Test.make ~name:"vm-opt" (Staged.stage vm_opt_exec);
        Test.make ~name:"vm" (Staged.stage vm_exec);
        Test.make ~name:"vm-step" (Staged.stage vm_step);
        Test.make ~name:"vmopt-step" (Staged.stage vm_opt_step) ]
  in
  let estimates = bechamel_estimates tests in
  let get needle =
    match List.find_opt (fun (name, _) -> contains ~needle name) estimates with
    | Some (_, ns) -> ns
    | None -> Float.nan
  in
  (* "vm" is a substring of "vm-opt", so resolve by exact suffix *)
  let get_exact want =
    let suffix = "/" ^ want in
    let ends_with name =
      let nl = String.length name and sl = String.length suffix in
      (nl >= sl && String.sub name (nl - sl) sl = suffix) || name = want
    in
    match List.find_opt (fun (name, _) -> ends_with name) estimates with
    | Some (_, ns) -> ns
    | None -> get want
  in
  { ms_name = e.Models.name;
    ms_interp_ns = get "interp";
    ms_vm_ns = get_exact "vm";
    ms_vm_opt_ns = get_exact "vm-opt";
    ms_vm_step_ns = get_exact "vm-step";
    ms_vm_opt_step_ns = get_exact "vmopt-step";
    ms_static = Cftcg_ir.Ir_opt.static_count lin;
    ms_static_opt = Cftcg_ir.Ir_opt.static_count lin_opt;
    ms_dyn = Cftcg_ir.Ir_opt.dynamic_count lin rows;
    ms_dyn_opt = Cftcg_ir.Ir_opt.dynamic_count lin_opt rows;
    ms_minor_vm = minor_words_per_call vm_exec;
    ms_minor_vm_opt = minor_words_per_call vm_opt_exec
  }

(* Paired A/B measurement for the --check-opt gate: alternate plain-vm
   and vm-opt batches so frequency drift, thermal state and GC
   pressure hit both sides equally, and keep the best round per side.
   The bechamel numbers above measure each backend in one contiguous
   quota window, which a single hiccup (or a slowly throttling box)
   can skew by more than the optimizer's whole margin. Returns
   (vm_opt_ns, vm_ns) per execution. *)
let paired_vm_gate (e : Models.entry) =
  let m = Lazy.force e.Models.model in
  let prog = Codegen.lower ~mode:Codegen.Full m in
  let layout = Layout.of_program prog in
  let rng = Cftcg_util.Rng.create (Int64.of_int (opts.seed + 5)) in
  let n_tuples = 16 in
  let input =
    Bytes.concat Bytes.empty (List.init n_tuples (fun _ -> Layout.random_tuple_bytes layout rng))
  in
  let mk optimize =
    let g_total = Bytes.make (max prog.Cftcg_ir.Ir.n_probes 1) '\000' in
    let exec =
      Cftcg_fuzz.Fuzzer.make_executor ~optimize ~backend:Cftcg_fuzz.Fuzzer.Vm ~layout ~prog
        ~g_total ~max_tuples:n_tuples ~use_metric:true ()
    in
    let cells = ref [] in
    fun () -> ignore (exec ~fresh_cells:cells input)
  in
  let vm = mk false and opt = mk true in
  let batch f =
    let n = 100 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9
  in
  ignore (batch vm);
  ignore (batch opt);
  let best_vm = ref infinity and best_opt = ref infinity in
  for _ = 1 to 10 do
    best_vm := Float.min !best_vm (batch vm);
    best_opt := Float.min !best_opt (batch opt)
  done;
  (!best_opt, !best_vm)

(* Same paired A/B scheme for the instrumented per-step path: the
   optimizer must not lose on the probes-live bytecode either — the
   vmopt-instrumented regression shipped while only the plain path
   was gated. Returns (vm_opt_step_ns, vm_step_ns). *)
let paired_step_gate (e : Models.entry) =
  let m = Lazy.force e.Models.model in
  let prog = Codegen.lower ~mode:Codegen.Full m in
  let layout = Layout.of_program prog in
  let rng = Cftcg_util.Rng.create (Int64.of_int (opts.seed + 7)) in
  let tuple = Layout.random_tuple_bytes layout rng in
  let mk optimize =
    let vm = Cftcg_ir.Ir_vm.compile ~optimize prog in
    Cftcg_ir.Ir_vm.reset vm;
    let p = Cftcg_ir.Ir_vm.probes vm in
    fun () ->
      Layout.load_tuple_vm layout tuple ~tuple:0 vm;
      Cftcg_ir.Ir_vm.step vm;
      Cftcg_ir.Ir_vm.clear_probes p
  in
  let vm = mk false and opt = mk true in
  let batch f =
    let n = 2000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9
  in
  ignore (batch vm);
  ignore (batch opt);
  let best_vm = ref infinity and best_opt = ref infinity in
  for _ = 1 to 10 do
    best_vm := Float.min !best_vm (batch vm);
    best_opt := Float.min !best_opt (batch opt)
  done;
  (!best_opt, !best_vm)

(* Same paired A/B scheme for the --check-obs gate, but over whole
   fuzzing runs (the metric counters and sampled timing histograms
   live inside Fuzzer.run's loop, not in the executor): alternate
   observability-off and observability-on runs of the same seeded
   campaign and keep the best round per side. The on leg enables the
   whole surface — metrics, tracing, debug-level structured logging
   and the flight-recorder ring — so the <2% bound covers the logger
   too. Returns (obs_on_ns, obs_off_ns) per execution. *)
let paired_obs_gate (e : Models.entry) =
  let m = Lazy.force e.Models.model in
  let prog = Codegen.lower ~mode:Codegen.Full m in
  let config =
    { Cftcg_fuzz.Fuzzer.default_config with
      Cftcg_fuzz.Fuzzer.seed = Int64.of_int (opts.seed + 11)
    }
  in
  let execs = 8000 in
  let run obs =
    Cftcg_obs.Metrics.set_collect obs;
    Cftcg_obs.Trace.set_enabled obs;
    Cftcg_obs.Log.set_level (if obs then Some Cftcg_obs.Log.Debug else None);
    Cftcg_obs.Flight.set_enabled obs;
    let t0 = Unix.gettimeofday () in
    ignore (Cftcg_fuzz.Fuzzer.run ~config prog (Cftcg_fuzz.Fuzzer.Exec_budget execs));
    let dt = Unix.gettimeofday () -. t0 in
    Cftcg_obs.Metrics.set_collect false;
    Cftcg_obs.Trace.set_enabled false;
    Cftcg_obs.Trace.clear ();
    Cftcg_obs.Log.set_level None;
    Cftcg_obs.Flight.set_enabled false;
    Cftcg_obs.Flight.clear ();
    dt /. float_of_int execs *. 1e9
  in
  ignore (run false);
  ignore (run true);
  let best_off = ref infinity and best_on = ref infinity in
  for _ = 1 to 10 do
    best_off := Float.min !best_off (run false);
    best_on := Float.min !best_on (run true)
  done;
  (!best_on, !best_off)

let speed () =
  let e = Option.get (Models.find "SolarPV") in
  let m = Lazy.force e.Models.model in
  let prog_plain = Codegen.lower ~mode:Codegen.Plain m in
  let prog_full = Codegen.lower ~mode:Codegen.Full m in
  let layout = Layout.of_program prog_full in
  let vm_plain = Cftcg_ir.Ir_vm.compile ~optimize:false prog_plain in
  Cftcg_ir.Ir_vm.reset vm_plain;
  let vm_instr = Cftcg_ir.Ir_vm.compile ~optimize:false prog_full in
  Cftcg_ir.Ir_vm.reset vm_instr;
  let vm_opt = Cftcg_ir.Ir_vm.compile prog_plain in
  Cftcg_ir.Ir_vm.reset vm_opt;
  let vm_opt_instr = Cftcg_ir.Ir_vm.compile prog_full in
  Cftcg_ir.Ir_vm.reset vm_opt_instr;
  let interp = Interp.create m in
  Interp.reset interp;
  let evaluator = Cftcg_ir.Ir_eval.create prog_plain in
  Cftcg_ir.Ir_eval.reset evaluator;
  let rng = Cftcg_util.Rng.create 5L in
  let tuple = Layout.random_tuple_bytes layout rng in
  let open Bechamel in
  let feed_boxed set =
    Array.iteri
      (fun i (f : Layout.field) -> set i (Value.decode f.Layout.f_ty tuple f.Layout.f_offset))
      layout.Layout.fields
  in
  let tests =
    Test.make_grouped ~name:"step"
      [ Test.make ~name:"vm-plain"
          (Staged.stage (fun () ->
               Layout.load_tuple_vm layout tuple ~tuple:0 vm_plain;
               Cftcg_ir.Ir_vm.step vm_plain));
        Test.make ~name:"vm-instrumented"
          (Staged.stage (fun () ->
               Layout.load_tuple_vm layout tuple ~tuple:0 vm_instr;
               Cftcg_ir.Ir_vm.step vm_instr;
               Cftcg_ir.Ir_vm.clear_probes (Cftcg_ir.Ir_vm.probes vm_instr)));
        Test.make ~name:"vmopt-plain"
          (Staged.stage (fun () ->
               Layout.load_tuple_vm layout tuple ~tuple:0 vm_opt;
               Cftcg_ir.Ir_vm.step vm_opt));
        Test.make ~name:"vmopt-instrumented"
          (Staged.stage (fun () ->
               Layout.load_tuple_vm layout tuple ~tuple:0 vm_opt_instr;
               Cftcg_ir.Ir_vm.step vm_opt_instr;
               Cftcg_ir.Ir_vm.clear_probes (Cftcg_ir.Ir_vm.probes vm_opt_instr)));
        Test.make ~name:"ir-evaluator"
          (Staged.stage (fun () ->
               feed_boxed (Cftcg_ir.Ir_eval.set_input evaluator);
               Cftcg_ir.Ir_eval.step evaluator));
        Test.make ~name:"graph-interpreter"
          (Staged.stage (fun () ->
               feed_boxed (Interp.set_input interp);
               Interp.step interp)) ]
  in
  let estimates = bechamel_estimates tests in
  let find needle = List.find_opt (fun (name, _) -> contains ~needle name) estimates in
  let t = Tt.create [ "Execution path"; "ns/iteration"; "iterations/s" ] in
  let step_rows = ref [] in
  List.iter
    (fun label ->
      match find label with
      | Some (_, ns) ->
        step_rows := (label, ns) :: !step_rows;
        Tt.add_row t [ label; Printf.sprintf "%.0f" ns; Printf.sprintf "%.0f" (1e9 /. ns) ]
      | None -> Tt.add_row t [ label; "n/a"; "n/a" ])
    [ "vm-plain"; "vm-instrumented"; "vmopt-plain"; "vmopt-instrumented"; "ir-evaluator";
      "graph-interpreter" ];
  (match (find "vm-instrumented", find "graph-interpreter") with
  | Some (_, c), Some (_, i) ->
    Tt.add_row t [ "speedup vm/interpreter"; Printf.sprintf "%.0fx" (i /. c); "" ]
  | _ -> ());
  (match (find "vmopt-instrumented", find "graph-interpreter") with
  | Some (_, c), Some (_, i) ->
    Tt.add_row t [ "speedup vm-opt/interpreter"; Printf.sprintf "%.0fx" (i /. c); "" ]
  | _ -> ());
  print_table "Speed: SolarPV model iteration rate (paper: 26,000/s vs 6/s)" t;
  (* fuzzer-execution throughput per bench model: the number that
     decides whether the fuzzing loop should use the optimizer *)
  let tx = Tt.create [ "Model"; "interp ex/s"; "vm ex/s"; "vm-opt ex/s"; "vm-opt/vm" ] in
  let model_rows = List.map backend_execs_per_sec (selected_models ()) in
  let ratio a b = if Float.is_nan a || Float.is_nan b then 0.0 else a /. b in
  List.iter
    (fun ms ->
      let per_s ns = if Float.is_nan ns then 0.0 else 1e9 /. ns in
      Tt.add_row tx
        [ ms.ms_name; Printf.sprintf "%.0f" (per_s ms.ms_interp_ns);
          Printf.sprintf "%.0f" (per_s ms.ms_vm_ns);
          Printf.sprintf "%.0f" (per_s ms.ms_vm_opt_ns);
          Printf.sprintf "%.2fx" (ratio ms.ms_vm_ns ms.ms_vm_opt_ns) ])
    model_rows;
  print_table "Speed: fuzzer executions/s (16-tuple inputs)" tx;
  (* the instrumented hot path per model — probes live, the cost every
     campaign execution pays *)
  let tb = Tt.create [ "Model"; "vm-instr ns/step"; "vmopt-instr ns/step"; "vm/vmopt" ] in
  List.iter
    (fun ms ->
      Tt.add_row tb
        [ ms.ms_name; Printf.sprintf "%.0f" ms.ms_vm_step_ns;
          Printf.sprintf "%.0f" ms.ms_vm_opt_step_ns;
          Printf.sprintf "%.2fx" (ratio ms.ms_vm_step_ns ms.ms_vm_opt_step_ns) ])
    model_rows;
  print_table "Speed: instrumented hot path" tb;
  (* what the optimizer did to the bytecode, and what an execution
     allocates (it should be near zero) *)
  let ti =
    Tt.create
      [ "Model"; "static insts"; "opt"; "dyn insts/exec"; "opt"; "dyn -%"; "alloc w/ex vm";
        "alloc w/ex vm-opt" ]
  in
  List.iter
    (fun ms ->
      let dyn_red =
        if ms.ms_dyn = 0 then 0.0
        else 100.0 *. float_of_int (ms.ms_dyn - ms.ms_dyn_opt) /. float_of_int ms.ms_dyn
      in
      Tt.add_row ti
        [ ms.ms_name; string_of_int ms.ms_static; string_of_int ms.ms_static_opt;
          string_of_int ms.ms_dyn; string_of_int ms.ms_dyn_opt; Printf.sprintf "%.1f%%" dyn_red;
          Printf.sprintf "%.0f" ms.ms_minor_vm;
          Printf.sprintf "%.0f" ms.ms_minor_vm_opt ])
    model_rows;
  print_table "Speed: optimizer instruction counts and allocation per execution" ti;
  (* aggregate optimizer effect over the selected models *)
  let geomean_of ratios =
    match List.filter (fun r -> r > 0.0) ratios with
    | [] -> 0.0
    | l -> exp (List.fold_left (fun acc r -> acc +. log r) 0.0 l /. float_of_int (List.length l))
  in
  let geomean = geomean_of (List.map (fun ms -> ratio ms.ms_vm_ns ms.ms_vm_opt_ns) model_rows) in
  let step_geomean =
    geomean_of (List.map (fun ms -> ratio ms.ms_vm_step_ns ms.ms_vm_opt_step_ns) model_rows)
  in
  let big_dyn_cuts =
    List.length
      (List.filter
         (fun ms -> ms.ms_dyn > 0 && float_of_int ms.ms_dyn_opt <= 0.8 *. float_of_int ms.ms_dyn)
         model_rows)
  in
  Printf.printf "\nvm-opt/vm geomean speedup: %.2fx; >=20%% dynamic-instruction cut on %d/%d models\n"
    geomean big_dyn_cuts (List.length model_rows);
  Printf.printf "vmopt-instrumented/vm-instrumented step geomean: %.2fx\n" step_geomean;
  if opts.json then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n  \"benchmark\": \"speed\",\n  \"step_ns\": {";
    List.iteri
      (fun i (label, ns) ->
        Buffer.add_string buf
          (Printf.sprintf "%s\n    \"%s\": %.1f" (if i = 0 then "" else ",") label ns))
      (List.rev !step_rows);
    Buffer.add_string buf "\n  },\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"vm_opt_geomean_speedup\": %.3f,\n\
         \  \"instr_step_geomean_speedup\": %.3f,\n\
         \  \"models\": [" geomean step_geomean);
    List.iteri
      (fun i ms ->
        let num ns = if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns in
        let per_s ns = if Float.is_nan ns then "null" else Printf.sprintf "%.1f" (1e9 /. ns) in
        let rat a b =
          if Float.is_nan a || Float.is_nan b then "null" else Printf.sprintf "%.3f" (a /. b)
        in
        Buffer.add_string buf
          (Printf.sprintf
             "%s\n    { \"model\": \"%s\", \"interp_exec_ns\": %s, \
              \"vm_exec_ns\": %s, \"vm_opt_exec_ns\": %s, \"vm_instr_step_ns\": %s, \
              \"vm_opt_instr_step_ns\": %s, \"vm_opt_over_vm_instr_step\": %s, \
              \"interp_execs_per_s\": %s, \
              \"vm_execs_per_s\": %s, \"vm_opt_execs_per_s\": %s, \
              \"vm_opt_over_vm\": %s, \
              \"static_insts\": %d, \"static_insts_opt\": %d, \"dyn_insts\": %d, \
              \"dyn_insts_opt\": %d, \"minor_words_per_exec\": { \
              \"vm\": %.1f, \"vm_opt\": %.1f } }"
             (if i = 0 then "" else ",")
             ms.ms_name (num ms.ms_interp_ns) (num ms.ms_vm_ns)
             (num ms.ms_vm_opt_ns) (num ms.ms_vm_step_ns) (num ms.ms_vm_opt_step_ns)
             (rat ms.ms_vm_step_ns ms.ms_vm_opt_step_ns)
             (per_s ms.ms_interp_ns)
             (per_s ms.ms_vm_ns) (per_s ms.ms_vm_opt_ns)
             (rat ms.ms_vm_ns ms.ms_vm_opt_ns)
             ms.ms_static ms.ms_static_opt ms.ms_dyn ms.ms_dyn_opt
             ms.ms_minor_vm ms.ms_minor_vm_opt))
      model_rows;
    Buffer.add_string buf "\n  ]\n}\n";
    let oc = open_out "BENCH_speed.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "\nwrote BENCH_speed.json\n"
  end;
  if opts.check_opt then begin
    (* CI gate: the optimizer must never lose to the plain VM. Uses
       the paired A/B measurement (not the bechamel table above, whose
       contiguous quota windows drift on a throttling box); a small
       tolerance absorbs residual noise and a losing model gets one
       re-measurement before failing. *)
    let loses (opt_ns, vm_ns) = opt_ns > vm_ns *. 1.05 in
    let losers =
      List.filter_map
        (fun e ->
          let ((opt_ns, vm_ns) as r) = paired_vm_gate e in
          if not (loses r) then None
          else begin
            Printf.printf "check-opt: %s lost (vm-opt %.0f vs vm %.0f ns/exec), re-measuring\n%!"
              e.Models.name opt_ns vm_ns;
            let r' = paired_vm_gate e in
            if loses r' then Some (e.Models.name, r') else None
          end)
        (selected_models ())
    in
    List.iter
      (fun (name, (opt_ns, vm_ns)) ->
        Printf.eprintf "check-opt FAIL: %s vm-opt %.0f ns/exec vs vm %.0f ns/exec\n" name opt_ns
          vm_ns)
      losers;
    (* second leg: the instrumented per-step path, probes live — the
       path every campaign execution takes *)
    let step_losers =
      List.filter_map
        (fun e ->
          let ((opt_ns, vm_ns) as r) = paired_step_gate e in
          if not (loses r) then None
          else begin
            Printf.printf
              "check-opt: %s lost instrumented step (vmopt %.0f vs vm %.0f ns/step), \
               re-measuring\n\
               %!"
              e.Models.name opt_ns vm_ns;
            let r' = paired_step_gate e in
            if loses r' then Some (e.Models.name, r') else None
          end)
        (selected_models ())
    in
    List.iter
      (fun (name, (opt_ns, vm_ns)) ->
        Printf.eprintf
          "check-opt FAIL: %s vmopt-instrumented %.0f ns/step vs vm-instrumented %.0f ns/step\n"
          name opt_ns vm_ns)
      step_losers;
    if losers <> [] || step_losers <> [] then exit 1;
    Printf.printf
      "check-opt OK: vm-opt keeps up with vm on all %d models (whole-exec and instrumented step)\n"
      (List.length model_rows)
  end;
  if opts.check_obs then begin
    (* CI gate: idle-path observability (one Atomic load per guarded
       region, sampled timings when on) must stay within 2% of the
       obs-off throughput. Paired A/B like check-opt; a losing model
       gets one re-measurement before failing. *)
    let loses (on_ns, off_ns) = on_ns > off_ns *. 1.02 in
    let losers =
      List.filter_map
        (fun e ->
          let ((on_ns, off_ns) as r) = paired_obs_gate e in
          if not (loses r) then None
          else begin
            Printf.printf
              "check-obs: %s lost (obs-on %.0f vs obs-off %.0f ns/exec), re-measuring\n%!"
              e.Models.name on_ns off_ns;
            let r' = paired_obs_gate e in
            if loses r' then Some (e.Models.name, r') else None
          end)
        (selected_models ())
    in
    List.iter
      (fun (name, (on_ns, off_ns)) ->
        Printf.eprintf "check-obs FAIL: %s obs-on %.0f ns/exec vs obs-off %.0f ns/exec (>2%%)\n"
          name on_ns off_ns)
      losers;
    if losers <> [] then exit 1;
    Printf.printf "check-obs OK: observability costs <2%% execs/s on all %d models\n"
      (List.length (selected_models ()))
  end;
  (* fuzzing-loop component costs *)
  let rng2 = Cftcg_util.Rng.create 9L in
  let parent =
    Bytes.concat Bytes.empty (List.init 16 (fun _ -> Layout.random_tuple_bytes layout rng2))
  in
  let dict = Cftcg_fuzz.Dictionary.of_program prog_full in
  let component_tests =
    let open Bechamel in
    Test.make_grouped ~name:"fuzz"
      [ Test.make ~name:"field-aware-mutation"
          (Staged.stage (fun () ->
               ignore
                 (Cftcg_fuzz.Mutate.mutate ~dict layout rng2 parent ~other:parent ~max_tuples:256)));
        Test.make ~name:"blind-mutation"
          (Staged.stage (fun () ->
               ignore (Cftcg_fuzz.Mutate.mutate_blind rng2 parent ~other:parent ~max_len:2304)));
        Test.make ~name:"metric-replay-16-tuples"
          (Staged.stage (fun () -> ignore (Cftcg_fuzz.Fuzzer.replay_metric prog_full parent))) ]
  in
  let comp = bechamel_estimates component_tests in
  let t2 = Tt.create [ "Fuzzing-loop component"; "ns/op"; "ops/s" ] in
  List.iter
    (fun label ->
      match List.find_opt (fun (name, _) -> contains ~needle:label name) comp with
      | Some (_, ns) ->
        Tt.add_row t2 [ label; Printf.sprintf "%.0f" ns; Printf.sprintf "%.0f" (1e9 /. ns) ]
      | None -> Tt.add_row t2 [ label; "n/a"; "n/a" ])
    [ "field-aware-mutation"; "blind-mutation"; "metric-replay-16-tuples" ];
  print_table "Speed: fuzzing-loop components" t2

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
  parse_args ();
  let chosen =
    match opts.experiments with
    | [] -> List.map fst all_experiments
    | picked -> picked
  in
  Printf.printf "CFTCG benchmark harness — budget %.1fs, %d rep(s), seed %d\n" opts.budget opts.reps
    opts.seed;
  List.iter
    (fun name ->
      match List.assoc_opt name all_experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S (known: %s)\n" name
          (String.concat ", " (List.map fst all_experiments)))
    chosen
