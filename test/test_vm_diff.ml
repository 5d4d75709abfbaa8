(* Differential tests for the bytecode VM: on random programs and
   random input streams, Ir_vm must be observationally identical to
   Ir_eval (the reference interpreter) — same outputs, same probe
   sets, same condition/decision/branch records. This is the
   correctness gate for the VM fast path. *)

open Cftcg_model
open Cftcg_ir
module Codegen = Cftcg_codegen.Codegen
module Rng = Cftcg_util.Rng

let agree name a b =
  if a <> b && not (Float.is_nan a && Float.is_nan b) then
    Alcotest.failf "%s: %.17g <> %.17g" name a b

(* Run the VM and the evaluator in lockstep over one random model and
   check every output at every step. Returns unit or fails the test. *)
let check_outputs_lockstep ~tag ~steps rng prog =
  let vm = Ir_vm.compile prog in
  let evaluator = Ir_eval.create prog in
  Ir_vm.reset vm;
  Ir_eval.reset evaluator;
  let n_out = Array.length prog.Ir.outputs in
  for step = 1 to steps do
    Array.iteri
      (fun i (var : Ir.var) ->
        let v = Model_gen.random_input rng var.Ir.vty in
        Ir_vm.set_input vm i v;
        Ir_eval.set_input evaluator i v)
      prog.Ir.inputs;
    Ir_vm.step vm;
    Ir_eval.step evaluator;
    for o = 0 to n_out - 1 do
      agree
        (Printf.sprintf "%s step %d output %d: evaluator vs vm" tag step o)
        (Value.to_float (Ir_eval.get_output evaluator o))
        (Value.to_float (Ir_vm.get_output vm o))
    done
  done

let test_vm_outputs_match_random_models () =
  let rng = Rng.create 90210L in
  for model_ix = 1 to 120 do
    let prog = Codegen.lower (Model_gen.generate rng) in
    check_outputs_lockstep ~tag:(Printf.sprintf "model %d" model_ix) ~steps:60 rng prog
  done

(* Full-hook observational equality: probes, conditions, decisions
   and branch-distance reports, in order, VM against evaluator. *)
type trace = {
  mutable probes : int list;
  mutable conds : (int * int * bool) list;
  mutable decs : (int * int) list;
  mutable branches : (int * bool * float * float) list;
}

let fresh_trace () = { probes = []; conds = []; decs = []; branches = [] }

let hooks_of trace =
  {
    Hooks.on_probe = Some (fun id -> trace.probes <- id :: trace.probes);
    on_cond = Some (fun d i b -> trace.conds <- (d, i, b) :: trace.conds);
    on_decision = Some (fun d o -> trace.decs <- (d, o) :: trace.decs);
    on_branch =
      Some (fun ix taken dt df -> trace.branches <- (ix, taken, dt, df) :: trace.branches);
  }

(* Floats compare bit-for-bit (-0.0 is not 0.0); any NaN equals any
   NaN. *)
let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) || (Float.is_nan a && Float.is_nan b)

(* Branch minima folded from a stream of [on_branch] events, the way
   the VM's branch record folds them. *)
type minima = {
  m_reached : Bytes.t;
  m_dt : float array;
  m_df : float array;
}

let fresh_minima n =
  {
    m_reached = Bytes.make n '\000';
    m_dt = Array.make n Float.infinity;
    m_df = Array.make n Float.infinity;
  }

let fold_event m ix dt df =
  Bytes.set m.m_reached ix '\001';
  if dt < m.m_dt.(ix) then m.m_dt.(ix) <- dt;
  if df < m.m_df.(ix) then m.m_df.(ix) <- df

let check_minima what m vm =
  let br = Ir_vm.branches vm in
  if not (Bytes.equal m.m_reached br.Ir_vm.b_reached) then
    Alcotest.failf "%s: reached sets differ" what;
  Array.iteri
    (fun ix dt ->
      if not (same_float dt br.Ir_vm.b_min_dt.(ix) && same_float m.m_df.(ix) br.Ir_vm.b_min_df.(ix))
      then
        Alcotest.failf "%s: If %d minima (%h, %h) vs vm (%h, %h)" what ix dt m.m_df.(ix)
          br.Ir_vm.b_min_dt.(ix) br.Ir_vm.b_min_df.(ix))
    m.m_dt

let test_vm_hooks_fire_identically () =
  let rng = Rng.create 1618L in
  for model_ix = 1 to 40 do
    let prog = Codegen.lower (Model_gen.generate rng) in
    let steps = 25 in
    let inputs =
      Array.init steps (fun _ ->
          Array.map (fun (v : Ir.var) -> Model_gen.random_input rng v.Ir.vty) prog.Ir.inputs)
    in
    let run_vm vm =
      Ir_vm.reset vm;
      Array.iter
        (fun vals ->
          Array.iteri (fun i v -> Ir_vm.set_input vm i v) vals;
          Ir_vm.step vm)
        inputs
    in
    let via_vm trace =
      let vm = Ir_vm.compile ~hooks:(hooks_of trace) prog in
      run_vm vm;
      vm
    in
    let via_eval trace =
      let e = Ir_eval.create prog in
      let hooks = hooks_of trace in
      Ir_eval.reset ~hooks e;
      Array.iter
        (fun vals ->
          Array.iteri (fun i v -> Ir_eval.set_input e i v) vals;
          Ir_eval.step ~hooks e)
        inputs
    in
    let tv = fresh_trace () and te = fresh_trace () in
    let hooked = via_vm tv in
    via_eval te;
    let ctx = Printf.sprintf "model %d" model_ix in
    Alcotest.(check (list int)) (ctx ^ " probes vm=eval") te.probes tv.probes;
    Alcotest.(check bool) (ctx ^ " conds vm=eval") true (tv.conds = te.conds);
    Alcotest.(check bool) (ctx ^ " decisions vm=eval") true (tv.decs = te.decs);
    Alcotest.(check bool) (ctx ^ " branches vm=eval") true (tv.branches = te.branches);
    (* branch minima, hooked and hook-free: the fold of Ir_eval's
       events in execution order *)
    let plain =
      List.map
        (fun opt -> (opt, Ir_vm.of_code (Ir_vm.prepare ~optimize:opt ~branches:true prog)))
        [ true; false ]
    in
    List.iter (fun (_, vm) -> run_vm vm) plain;
    let expected = fresh_minima (Bytes.length (Ir_vm.branches hooked).Ir_vm.b_reached) in
    List.iter (fun (ix, _, dt, df) -> fold_event expected ix dt df) (List.rev te.branches);
    check_minima (ctx ^ " hooked vm minima") expected hooked;
    List.iter
      (fun (opt, vm) -> check_minima (ctx ^ Printf.sprintf " vm opt=%b minima" opt) expected vm)
      plain
  done

(* the ids a probe buffer's byte map marks fired, ascending *)
let fired_ids (p : Ir_vm.probes) =
  let ids = ref [] in
  Bytes.iteri (fun id c -> if c <> '\000' then ids := id :: !ids) p.Ir_vm.p_fired;
  List.rev !ids

(* The bit-words must hold exactly the byte map's set: bit [id land 31]
   of word [id lsr 5] iff byte [id], and no bit past the last probe
   or above bit 31. *)
let check_words_match what (p : Ir_vm.probes) =
  let n = Bytes.length p.Ir_vm.p_fired in
  if Array.length p.Ir_vm.p_bits <> (n + 31) / 32 then
    Alcotest.failf "%s: %d words for %d probes" what (Array.length p.Ir_vm.p_bits) n;
  Array.iteri
    (fun w x ->
      for b = 0 to 62 do
        let id = (w * 32) + b in
        let bit = (x lsr b) land 1 = 1 in
        let byte = b < 32 && id < n && Bytes.get p.Ir_vm.p_fired id <> '\000' in
        if bit <> byte then
          Alcotest.failf "%s: word %d bit %d is %b, byte map says %b" what w b bit byte
      done)
    p.Ir_vm.p_bits

let check_cleared what (p : Ir_vm.probes) =
  if fired_ids p <> [] then Alcotest.failf "%s: clear_probes left the byte map marked" what;
  if Array.exists (fun x -> x <> 0) p.Ir_vm.p_bits then
    Alcotest.failf "%s: clear_probes left a word set" what

(* The VM's probe buffer must describe exactly the set of probes the
   evaluator reports through on_probe, and clear_probes must empty
   it. *)
let test_vm_probe_buffer_matches () =
  let rng = Rng.create 2718L in
  for model_ix = 1 to 40 do
    let prog = Codegen.lower (Model_gen.generate rng) in
    let vm = Ir_vm.compile prog in
    let fired = Hashtbl.create 64 in
    let hooks = Hooks.probes_only (fun id -> Hashtbl.replace fired id ()) in
    let e = Ir_eval.create prog in
    Ir_vm.reset vm;
    Ir_eval.reset e;
    Ir_vm.clear_probes (Ir_vm.probes vm);
    for step = 1 to 30 do
      Array.iteri
        (fun i (var : Ir.var) ->
          let v = Model_gen.random_input rng var.Ir.vty in
          Ir_vm.set_input vm i v;
          Ir_eval.set_input e i v)
        prog.Ir.inputs;
      Ir_vm.step vm;
      Ir_eval.step ~hooks e;
      let p = Ir_vm.probes vm in
      let vm_set = fired_ids p in
      List.iter
        (fun id ->
          if not (Ir_vm.probe_fired vm id) then
            Alcotest.failf "model %d step %d: probe %d marked but not reported fired" model_ix
              step id)
        vm_set;
      let eval_set = List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) fired []) in
      if vm_set <> eval_set then
        Alcotest.failf "model %d step %d: probe sets differ (vm %d, eval %d)" model_ix step
          (List.length vm_set) (List.length eval_set);
      Ir_vm.clear_probes p;
      check_cleared (Printf.sprintf "model %d step %d" model_ix step) p;
      Hashtbl.reset fired
    done
  done

(* After every step the bit-words and the byte map agree bit for bit,
   on optimized and unoptimized code, and clear_probes empties both;
   [Ir_vm.iter_fired] walks the same set in ascending order. *)
let check_probe_words ~tag rng prog =
  List.iter
    (fun optimize ->
      let vm = Ir_vm.of_code (Ir_vm.prepare ~optimize prog) in
      let p = Ir_vm.probes vm in
      Ir_vm.reset vm;
      check_words_match (Printf.sprintf "%s opt=%b init" tag optimize) p;
      Ir_vm.clear_probes p;
      for step = 1 to 30 do
        let what = Printf.sprintf "%s opt=%b step %d" tag optimize step in
        Array.iteri
          (fun i (var : Ir.var) -> Ir_vm.set_input vm i (Model_gen.random_input rng var.Ir.vty))
          prog.Ir.inputs;
        Ir_vm.step vm;
        check_words_match what p;
        let walked = ref [] in
        Ir_vm.iter_fired (fun id -> walked := id :: !walked) p;
        if List.rev !walked <> fired_ids p then Alcotest.failf "%s: iter_fired differs" what;
        (* every third step accumulates into the next one's buffer *)
        if step mod 3 <> 0 then begin
          Ir_vm.clear_probes p;
          check_cleared what p
        end
      done)
    [ true; false ]

let test_probe_words_match_bytes () =
  let module Models = Cftcg_bench_models.Bench_models in
  let rng = Rng.create 8128L in
  List.iter
    (fun (e : Models.entry) ->
      check_probe_words ~tag:e.Models.name rng
        (Codegen.lower ~mode:Codegen.Full (Lazy.force e.Models.model)))
    Models.all;
  for i = 1 to 40 do
    check_probe_words ~tag:(Printf.sprintf "random model %d" i) rng
      (Codegen.lower (Model_gen.generate rng))
  done

(* The bytecode optimizer must be invisible to the fuzzing algorithm:
   same seed, same campaign — executions, coverage, metric-driven
   corpus and the emitted test suite all identical with the optimizer
   on and off. *)
let test_fuzzer_backend_parity () =
  let rng = Rng.create 424242L in
  for model_ix = 1 to 12 do
    let prog = Codegen.lower (Model_gen.generate rng) in
    let run optimize =
      Cftcg_fuzz.Fuzzer.run
        ~config:{ Cftcg_fuzz.Fuzzer.default_config with Cftcg_fuzz.Fuzzer.seed = 99L }
        ~code:(Ir_vm.prepare ~optimize prog) prog (Cftcg_fuzz.Fuzzer.Exec_budget 400)
    in
    let rc = run false in
    let compare_campaign ctx (rv : Cftcg_fuzz.Fuzzer.result) =
      let open Cftcg_fuzz.Fuzzer in
      Alcotest.(check int) (ctx ^ " executions") rc.stats.executions rv.stats.executions;
      Alcotest.(check int) (ctx ^ " iterations") rc.stats.iterations rv.stats.iterations;
      Alcotest.(check int) (ctx ^ " probes covered") rc.stats.probes_covered
        rv.stats.probes_covered;
      Alcotest.(check int) (ctx ^ " corpus size") rc.stats.corpus_size rv.stats.corpus_size;
      Alcotest.(check int) (ctx ^ " suite size") (List.length rc.test_suite)
        (List.length rv.test_suite);
      List.iter2
        (fun (a : test_case) (b : test_case) ->
          if not (Bytes.equal a.tc_data b.tc_data) || a.tc_new_probes <> b.tc_new_probes then
            Alcotest.failf "%s: test suites diverge" ctx)
        rc.test_suite rv.test_suite;
      Alcotest.(check int) (ctx ^ " failures") (List.length rc.failures) (List.length rv.failures)
    in
    compare_campaign (Printf.sprintf "model %d vm-opt" model_ix) (run true)
  done

(* The bytecode optimizer must be observationally invisible on the VM
   itself: outputs, per-step probe sets and full hook traces identical
   with and without it. *)
let check_opt_lockstep ~tag ~steps rng prog =
  let vm_o = Ir_vm.compile prog in
  let vm_r = Ir_vm.compile ~optimize:false prog in
  Ir_vm.reset vm_o;
  Ir_vm.reset vm_r;
  let n_out = Array.length prog.Ir.outputs in
  for step = 1 to steps do
    Array.iteri
      (fun i (var : Ir.var) ->
        let v = Model_gen.random_input rng var.Ir.vty in
        Ir_vm.set_input vm_o i v;
        Ir_vm.set_input vm_r i v)
      prog.Ir.inputs;
    Ir_vm.step vm_o;
    Ir_vm.step vm_r;
    for o = 0 to n_out - 1 do
      agree
        (Printf.sprintf "%s step %d output %d: opt vs plain" tag step o)
        (Value.to_float (Ir_vm.get_output vm_r o))
        (Value.to_float (Ir_vm.get_output vm_o o))
    done;
    let fired vm = fired_ids (Ir_vm.probes vm) in
    Alcotest.(check (list int)) (Printf.sprintf "%s step %d fired probes" tag step) (fired vm_r)
      (fired vm_o);
    Ir_vm.clear_probes (Ir_vm.probes vm_o);
    Ir_vm.clear_probes (Ir_vm.probes vm_r)
  done

let test_optimizer_invisible_on_random_models () =
  let rng = Rng.create 5150L in
  for model_ix = 1 to 80 do
    let prog = Codegen.lower (Model_gen.generate rng) in
    check_opt_lockstep ~tag:(Printf.sprintf "model %d" model_ix) ~steps:40 rng prog
  done

let test_optimizer_invisible_to_hooks () =
  let rng = Rng.create 31337L in
  for model_ix = 1 to 25 do
    let prog = Codegen.lower (Model_gen.generate rng) in
    let steps = 20 in
    let inputs =
      Array.init steps (fun _ ->
          Array.map (fun (v : Ir.var) -> Model_gen.random_input rng v.Ir.vty) prog.Ir.inputs)
    in
    let via optimize trace =
      let vm = Ir_vm.compile ~hooks:(hooks_of trace) ~optimize prog in
      Ir_vm.reset vm;
      Array.iter
        (fun vals ->
          Array.iteri (fun i v -> Ir_vm.set_input vm i v) vals;
          Ir_vm.step vm)
        inputs
    in
    let t_o = fresh_trace () and t_r = fresh_trace () in
    via true t_o;
    via false t_r;
    let ctx = Printf.sprintf "model %d" model_ix in
    Alcotest.(check (list int)) (ctx ^ " probes") t_r.probes t_o.probes;
    Alcotest.(check bool) (ctx ^ " conds") true (t_o.conds = t_r.conds);
    Alcotest.(check bool) (ctx ^ " decisions") true (t_o.decs = t_r.decs);
    Alcotest.(check bool) (ctx ^ " branches") true (t_o.branches = t_r.branches)
  done

let prop_optimizer_invisible =
  QCheck.Test.make ~name:"bytecode optimizer preserves VM behaviour" ~count:60
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create (Int64.of_int ((seed * 2) + 1)) in
      let prog = Codegen.lower (Model_gen.generate rng) in
      check_opt_lockstep ~tag:(Printf.sprintf "seed %d" seed) ~steps:25 rng prog;
      true)

(* --- Native branch distances --------------------------------------- *)

(* Branch distances are VM bytecode ([Ir_linearize.lower_cond]); these
   cases aim its opcodes at the operands where float formulas differ
   most easily — NaN, infinities, negative zero, float32 rounding and
   integer wrap-around — under nested [and]/[or]/[not] and opaque
   boolean conditions. Events are compared bit-for-bit (-0.0 is not
   0.0); any NaN equals any NaN. *)

let check_branch_events what expected actual =
  let rec go k = function
    | [], [] -> ()
    | (i, t, dt, df) :: r, (i', t', dt', df') :: r' ->
      if i <> i' || t <> t' || (not (same_float dt dt')) || not (same_float df df') then
        Alcotest.failf "%s: event %d differs: (%d, %b, %h, %h) vs (%d, %b, %h, %h)" what k i t dt
          df i' t' dt' df';
      go (k + 1) (r, r')
    | _ ->
      Alcotest.failf "%s: %d vs %d branch events" what (List.length expected)
        (List.length actual)
  in
  go 0 (expected, actual)

(* A hand-built program whose Ifs cover every comparison on every
   operand class, nested logic, opaque conditions, nested Ifs, and an
   If in init reading state that accumulates infinities and NaNs. *)
let edge_program () =
  let n_vars = ref 0 in
  let var vname vty =
    let v = { Ir.vid = !n_vars; vname; vty } in
    incr n_vars;
    v
  in
  let x = var "x" Dtype.Float64 and y = var "y" Dtype.Float64 in
  let f = var "f" Dtype.Float32 and g = var "g" Dtype.Float32 in
  let i = var "i" Dtype.Int8 and j = var "j" Dtype.Int8 in
  let u = var "u" Dtype.UInt16 in
  let b = var "b" Dtype.Bool in
  let acc = var "acc" Dtype.Float64 and out = var "out" Dtype.Float64 in
  let rd v = Ir.Read v in
  let cmp op a c = Ir.Binop (op, Dtype.Bool, a, c) in
  let and_ a c = Ir.Binop (Ir.B_and, Dtype.Bool, a, c) in
  let or_ a c = Ir.Binop (Ir.B_or, Dtype.Bool, a, c) in
  let not_ a = Ir.Unop (Ir.U_not, a) in
  let n_probes = ref 0 in
  let probe () =
    let id = !n_probes in
    incr n_probes;
    Ir.Probe id
  in
  let if_ ?(then_ = []) ?(else_ = []) cond =
    Ir.If { cond; dec = None; then_ = probe () :: then_; else_ = probe () :: else_ }
  in
  let comparisons = [ Ir.B_eq; Ir.B_ne; Ir.B_lt; Ir.B_le; Ir.B_gt; Ir.B_ge ] in
  let all_cmps a c = List.map (fun op -> if_ (cmp op a c)) comparisons in
  let f32_sum = Ir.Binop (Ir.B_add, Dtype.Float32, rd f, rd g) in
  let i8_sum = Ir.Binop (Ir.B_add, Dtype.Int8, rd i, rd j) in
  let i8_prod = Ir.Binop (Ir.B_mul, Dtype.Int8, rd i, rd j) in
  let u16_diff = Ir.Binop (Ir.B_sub, Dtype.UInt16, rd u, Ir.int_const Dtype.UInt16 1) in
  let init =
    [ if_ (cmp Ir.B_eq (rd acc) (Ir.float_const Dtype.Float64 0.0))
        ~then_:[ Ir.Assign (acc, Ir.float_const Dtype.Float64 (-0.0)) ] ]
  in
  let step =
    [ Ir.Assign (acc, Ir.Binop (Ir.B_add, Dtype.Float64, rd acc, rd x));
      Ir.Assign (out, rd x) ]
    @ all_cmps (rd x) (rd y)
    @ all_cmps (rd f) (rd g)
    @ all_cmps f32_sum (Ir.float_const Dtype.Float32 1.5)
    @ all_cmps (rd f) (rd x)
    @ all_cmps i8_sum (Ir.int_const Dtype.Int8 100)
    @ all_cmps i8_prod (rd i)
    @ all_cmps u16_diff (Ir.int_const Dtype.UInt16 65535)
    @ all_cmps (rd acc) (Ir.float_const Dtype.Float64 (-0.0))
    @ [ if_
          (and_ (cmp Ir.B_lt (rd x) (rd y))
             (or_ (not_ (cmp Ir.B_eq (rd i) (rd j))) (cmp Ir.B_ge (rd f) (rd g))));
        if_
          (not_
             (and_ (cmp Ir.B_ne (rd x) (rd y))
                (cmp Ir.B_le (rd f) (Ir.float_const Dtype.Float32 0.5))));
        if_ (or_ (not_ (rd b)) (cmp Ir.B_gt (rd x) (Ir.float_const Dtype.Float64 0.0)));
        if_
          (and_
             (and_ (cmp Ir.B_ge (rd acc) (rd y)) (not_ (not_ (cmp Ir.B_lt i8_sum (rd j)))))
             (not_ (or_ (cmp Ir.B_eq (rd x) (rd acc)) (or_ (rd b) (cmp Ir.B_ne f32_sum (rd f))))));
        if_
          (or_
             (or_ (cmp Ir.B_eq (rd x) (rd y)) (cmp Ir.B_eq (rd f) (rd g)))
             (cmp Ir.B_eq (rd i) (rd j)));
        (* opaque conditions: a Bool read, raw float and integer
           truthiness, a cast, a select, a negated opaque value *)
        if_ (rd b);
        if_ (rd x);
        if_ i8_sum;
        if_ (Ir.Unop (Ir.U_cast Dtype.Bool, rd f));
        if_ (Ir.Select (rd b, cmp Ir.B_lt (rd x) (rd y), cmp Ir.B_ge (rd f) (rd g)));
        if_ (not_ (rd acc));
        if_ (and_ (rd b) (Ir.Unop (Ir.U_cast Dtype.Bool, rd x)));
        (* nested Ifs: inner sites are reached only through outer arms *)
        if_ (cmp Ir.B_lt (rd x) (rd y))
          ~then_:[ if_ (cmp Ir.B_eq (rd i) (rd j)) ~then_:[ if_ (not_ (rd b)) ] ]
          ~else_:[ if_ (or_ (cmp Ir.B_gt (rd f) (rd g)) (rd b)) ] ]
  in
  let prog =
    {
      Ir.prog_name = "EdgeDistances";
      n_vars = !n_vars;
      inputs = [| x; y; f; g; i; j; u; b |];
      outputs = [| out |];
      states = [| acc |];
      init;
      step;
      n_probes = !n_probes;
      decisions = [||];
      assertions = [||];
      lookup_tables = [||];
    }
  in
  (match Ir.validate prog with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "edge program invalid: %s" msg);
  prog

let edge_floats =
  [| Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 1.0; -1.0; 0.5;
     1.5; 1e308; -1e308; 5e-324; 3.4028235e38; 1e39; 16777217.0 |]

let edge_input rng (ty : Dtype.t) =
  let pick a = a.(Rng.int rng (Array.length a)) in
  match ty with
  | Dtype.Bool -> Value.of_bool (Rng.bool rng)
  | Dtype.Int8 -> Value.of_int ty (pick [| -128; 127; 0; -1; 1; 100; 99; -100; 64 |])
  | ty when Dtype.is_integer ty -> Value.of_int ty (pick [| 0; 1; 65535; 65534; 32768 |])
  | ty -> Value.of_float ty (pick edge_floats)

(* Runs [runs] executions of [steps] steps each (reset between) on
   every backend and checks, after every step: identical on_branch
   event streams from the VM (optimized and not) and Ir_eval, and
   branch minima — of a hook-free
   branch-recording VM and of the hooked VM — equal to the minima
   folded from Ir_eval's events since the last reset. *)
let check_distances ~tag ~runs ~steps ~input rng prog =
  let plain =
    List.map
      (fun opt -> (opt, Ir_vm.of_code (Ir_vm.prepare ~optimize:opt ~branches:true prog)))
      [ true; false ]
  in
  let n_sites = Bytes.length (Ir_vm.branches (snd (List.hd plain))).Ir_vm.b_reached in
  let te = fresh_trace () in
  let expected = ref (fresh_minima n_sites) in
  let eval_hooks =
    { (hooks_of te) with
      Hooks.on_branch =
        Some
          (fun ix taken dt df ->
            te.branches <- (ix, taken, dt, df) :: te.branches;
            fold_event !expected ix dt df) }
  in
  let e = Ir_eval.create prog in
  let hooked = List.map (fun opt -> (opt, fresh_trace ())) [ true; false ] in
  let hooked =
    List.map (fun (opt, t) -> (opt, t, Ir_vm.compile ~hooks:(hooks_of t) ~optimize:opt prog)) hooked
  in
  let check where =
    let ctx which = Printf.sprintf "%s %s: %s" tag where which in
    List.iter
      (fun (opt, t, vm) ->
        check_branch_events (ctx (Printf.sprintf "vm opt=%b vs eval" opt)) te.branches t.branches;
        check_minima (ctx (Printf.sprintf "hooked vm opt=%b minima" opt)) !expected vm)
      hooked;
    List.iter
      (fun (opt, vm) -> check_minima (ctx (Printf.sprintf "vm opt=%b minima" opt)) !expected vm)
      plain
  in
  for run = 1 to runs do
    expected := fresh_minima n_sites;
    Ir_eval.reset ~hooks:eval_hooks e;
    List.iter (fun (_, _, vm) -> Ir_vm.reset vm) hooked;
    List.iter (fun (_, vm) -> Ir_vm.reset vm) plain;
    check (Printf.sprintf "run %d init" run);
    for step = 1 to steps do
      Array.iteri
        (fun k (var : Ir.var) ->
          let v = input rng var.Ir.vty in
          Ir_eval.set_input e k v;
          List.iter (fun (_, _, vm) -> Ir_vm.set_input vm k v) hooked;
          List.iter (fun (_, vm) -> Ir_vm.set_input vm k v) plain)
        prog.Ir.inputs;
      Ir_eval.step ~hooks:eval_hooks e;
      List.iter (fun (_, _, vm) -> Ir_vm.step vm) hooked;
      List.iter (fun (_, vm) -> Ir_vm.step vm) plain;
      check (Printf.sprintf "run %d step %d" run step)
    done
  done

let test_native_distance_edge_cases () =
  let prog = edge_program () in
  let rng = Rng.create 6174L in
  check_distances ~tag:"edge" ~runs:12 ~steps:25 ~input:edge_input rng prog

(* --- state snapshots --- *)

(* wrapped ints (out-of-range values folded into the dtype), NaN,
   ±inf, -0.0 and plain values, mixed *)
let snapshot_input rng (ty : Dtype.t) =
  match Rng.int rng 3 with
  | 0 -> edge_input rng ty
  | 1 when Dtype.is_integer ty ->
    Value.of_int ty ([| 1 lsl 40; -(1 lsl 33) - 7; 70_000; -129; 256; 4_294_967_297 |].(Rng.int rng 6))
  | _ -> Model_gen.random_input rng ty

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_same_state what (a : Ir_vm.state) (b : Ir_vm.state) =
  let floats which x y =
    Array.iteri
      (fun i v ->
        if not (same_bits v y.(i)) then Alcotest.failf "%s: %s.(%d): %h <> %h" what which i v y.(i))
      x
  in
  floats "registers" a.Ir_vm.s_regs b.Ir_vm.s_regs;
  if not (Bytes.equal a.Ir_vm.s_reached b.Ir_vm.s_reached) then
    Alcotest.failf "%s: reached sets differ" what;
  floats "min_dt" a.Ir_vm.s_min_dt b.Ir_vm.s_min_dt;
  floats "min_df" a.Ir_vm.s_min_df b.Ir_vm.s_min_df

let probe_set vm =
  let p = Ir_vm.probes vm in
  (Bytes.copy p.Ir_vm.p_fired, Array.copy p.Ir_vm.p_bits)

(* Run [k] steps, save, run the rest; then scribble over the instance
   with another input, restore and run the rest again. The suffix must
   end in the same registers and branch minima, bit for bit, and fire
   the same probes. *)
let check_snapshot_roundtrip ~tag rng prog =
  List.iter
    (fun optimize ->
      let vm = Ir_vm.of_code (Ir_vm.prepare ~optimize ~branches:true prog) in
      let steps = 12 in
      let rows () =
        Array.init steps (fun _ ->
            Array.map (fun (v : Ir.var) -> snapshot_input rng v.Ir.vty) prog.Ir.inputs)
      in
      let input = rows () and scribble = rows () in
      let run ?(upto = steps) rows ~from =
        for s = from to upto - 1 do
          Array.iteri (Ir_vm.set_input vm) rows.(s);
          Ir_vm.step vm
        done
      in
      let at_k = Ir_vm.fresh_state vm and first = Ir_vm.fresh_state vm in
      let again = Ir_vm.fresh_state vm in
      for k = 0 to steps - 1 do
        let what = Printf.sprintf "%s opt=%b k=%d" tag optimize k in
        Ir_vm.reset vm;
        run input ~from:0 ~upto:k;
        Ir_vm.save_state vm at_k;
        Ir_vm.clear_probes (Ir_vm.probes vm);
        run input ~from:k;
        Ir_vm.save_state vm first;
        let probes_first = probe_set vm in
        Ir_vm.reset vm;
        run scribble ~from:0;
        Ir_vm.restore_state vm at_k;
        Ir_vm.clear_probes (Ir_vm.probes vm);
        run input ~from:k;
        Ir_vm.save_state vm again;
        check_same_state what first again;
        if probe_set vm <> probes_first then Alcotest.failf "%s: suffix probe sets differ" what
      done)
    [ true; false ]

let test_state_roundtrip () =
  let module Models = Cftcg_bench_models.Bench_models in
  let rng = Rng.create 2718L in
  List.iter
    (fun (e : Models.entry) ->
      let prog = Codegen.lower ~mode:Codegen.Full (Lazy.force e.Models.model) in
      check_snapshot_roundtrip ~tag:e.Models.name rng prog)
    Models.all;
  for i = 1 to 40 do
    let prog = Codegen.lower (Model_gen.generate rng) in
    check_snapshot_roundtrip ~tag:(Printf.sprintf "random model %d" i) rng prog
  done

(* qcheck property: any generator seed yields a program on which the
   VM and the evaluator agree on outputs. *)
let prop_backends_agree =
  QCheck.Test.make ~name:"vm and eval agree on random programs" ~count:60
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create (Int64.of_int (seed * 2 + 1)) in
      let prog = Codegen.lower (Model_gen.generate rng) in
      check_outputs_lockstep ~tag:(Printf.sprintf "seed %d" seed) ~steps:30 rng prog;
      true)

module Layout = Cftcg_fuzz.Layout

(* Algorithm 1 the long way, as the fuzzer did it on per-probe lists:
   every probe a step fires is checked against [g_total] (ascending, so
   fresh cells come out in the order the word walk gives them), and the
   metric counts the probes on which consecutive steps' byte maps
   differ. *)
let reference_run_one ~layout ~vm ~g_total ~max_tuples ~fresh_cells data =
  let n = min (Layout.n_tuples layout data) max_tuples in
  let p = Ir_vm.probes vm in
  let n_probes = Bytes.length p.Ir_vm.p_fired in
  Ir_vm.reset vm;
  Ir_vm.clear_probes p;
  let last = ref (Bytes.make n_probes '\000') in
  let metric = ref 0 and fresh = ref 0 in
  for tuple = 0 to n - 1 do
    Layout.load_tuple_vm layout data ~tuple vm;
    Ir_vm.step vm;
    let c = Bytes.copy p.Ir_vm.p_fired in
    Ir_vm.clear_probes p;
    for id = 0 to n_probes - 1 do
      if Bytes.get c id <> '\000' && Bytes.get g_total id = '\000' then begin
        Bytes.set g_total id '\001';
        incr fresh;
        fresh_cells := id :: !fresh_cells
      end;
      if Bytes.get c id <> Bytes.get !last id then incr metric
    done;
    last := c
  done;
  (!metric, !fresh, n)

(* qcheck property: the fuzzer's word-level executor returns the
   metric, fresh count and fresh cells of the per-probe reference, input
   after input against one shared coverage map. *)
let prop_word_accounting_matches_reference =
  QCheck.Test.make ~name:"word-level Algorithm 1 matches the per-probe reference" ~count:40
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create (Int64.of_int ((seed * 2) + 1)) in
      let prog = Codegen.lower (Model_gen.generate rng) in
      let layout = Layout.of_program prog in
      if layout.Layout.tuple_len > 0 then begin
        let n_probes = max prog.Ir.n_probes 1 and max_tuples = 16 in
        let g_words = Bytes.make n_probes '\000' and g_ref = Bytes.make n_probes '\000' in
        let run_words =
          Cftcg_fuzz.Fuzzer.make_executor ~backend:Cftcg_fuzz.Fuzzer.Vm ~layout ~prog
            ~g_total:g_words ~max_tuples ~use_metric:true ()
        in
        let vm = Ir_vm.of_code (Ir_vm.prepare ~optimize:false prog) in
        for input = 1 to 30 do
          let tuples = 1 + Rng.int rng 24 in
          let data =
            Bytes.concat Bytes.empty
              (List.init tuples (fun _ -> Layout.random_tuple_bytes layout rng))
          in
          let cells_w = ref [] and cells_r = ref [] in
          let m_w, f_w, i_w = run_words ~fresh_cells:cells_w data in
          let m_r, f_r, i_r =
            reference_run_one ~layout ~vm ~g_total:g_ref ~max_tuples ~fresh_cells:cells_r data
          in
          let what = Printf.sprintf "seed %d input %d" seed input in
          Alcotest.(check (triple int int int)) (what ^ " metric, fresh, iterations")
            (m_r, f_r, i_r) (m_w, f_w, i_w);
          Alcotest.(check (list int)) (what ^ " fresh cells") !cells_r !cells_w
        done;
        if not (Bytes.equal g_words g_ref) then
          Alcotest.failf "seed %d: coverage maps differ" seed
      end;
      true)

let suites =
  [ ( "vm_diff",
      [ Alcotest.test_case "outputs match on random models" `Slow
          test_vm_outputs_match_random_models;
        Alcotest.test_case "hooks fire identically" `Slow test_vm_hooks_fire_identically;
        Alcotest.test_case "probe buffer matches eval probes" `Slow
          test_vm_probe_buffer_matches;
        Alcotest.test_case "probe words match the byte map" `Slow test_probe_words_match_bytes;
        Alcotest.test_case "fuzzer campaigns identical with optimizer on and off" `Slow
          test_fuzzer_backend_parity;
        Alcotest.test_case "optimizer invisible on random models" `Slow
          test_optimizer_invisible_on_random_models;
        Alcotest.test_case "optimizer invisible to hooks" `Slow test_optimizer_invisible_to_hooks;
        Alcotest.test_case "native distances: edge operands" `Slow test_native_distance_edge_cases;
        Alcotest.test_case "state snapshots round-trip" `Slow test_state_roundtrip;
        QCheck_alcotest.to_alcotest ~verbose:false prop_backends_agree;
        QCheck_alcotest.to_alcotest ~verbose:false prop_optimizer_invisible;
        QCheck_alcotest.to_alcotest ~verbose:false prop_word_accounting_matches_reference ] ) ]
