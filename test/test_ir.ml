(* Tests for the IR: evaluator/compiler agreement, branch distance,
   the C emitter, and IR validation. *)

open Cftcg_model
open Cftcg_ir

let v name vid ty = { Ir.vid; vname = name; vty = ty }

(* Hand-built program: out = |x| saturated to [0, 5]; state s counts
   calls. Exercises If, Probe, casts, arithmetic. *)
let sample_program () =
  let x = v "x" 0 Dtype.Float64 in
  let y = v "y" 1 Dtype.Float64 in
  let s = v "s" 2 Dtype.Int32 in
  let t = v "t" 3 Dtype.Float64 in
  let dec =
    {
      Ir.dec_id = 0;
      dec_block = "sat";
      dec_desc = "saturation";
      n_outcomes = 2;
      outcome_probes = [| 0; 1 |];
      conditions = [| { Ir.cond_ix = 0; cond_desc = "hi"; probe_true = 2; probe_false = 3 } |];
    }
  in
  {
    Ir.prog_name = "sample";
    n_vars = 4;
    inputs = [| x |];
    outputs = [| y |];
    states = [| s |];
    init = [ Ir.Assign (s, Ir.int_const Dtype.Int32 0) ];
    step =
      [ Ir.Assign (t, Ir.Unop (Ir.U_abs, Ir.Read x));
        Ir.Record_cond { dec = 0; cond_ix = 0; value = Ir.Binop (Ir.B_gt, Dtype.Float64, Ir.Read t, Ir.float_const Dtype.Float64 5.0) };
        Ir.If
          {
            cond = Ir.Binop (Ir.B_gt, Dtype.Float64, Ir.Read t, Ir.float_const Dtype.Float64 5.0);
            dec = Some 0;
            then_ =
              [ Ir.Probe 0; Ir.Record_decision { dec = 0; outcome = 0 };
                Ir.Assign (y, Ir.float_const Dtype.Float64 5.0) ];
            else_ =
              [ Ir.Probe 1; Ir.Record_decision { dec = 0; outcome = 1 }; Ir.Assign (y, Ir.Read t) ];
          };
        Ir.Assign (s, Ir.Binop (Ir.B_add, Dtype.Int32, Ir.Read s, Ir.int_const Dtype.Int32 1)) ];
    n_probes = 4;
    decisions = [| dec |];
    assertions = [||];
    lookup_tables = [||];
  }

let test_validate_ok () =
  Alcotest.(check (result unit string)) "sample validates" (Ok ()) (Ir.validate (sample_program ()))

let test_validate_catches_bad_var () =
  let p = sample_program () in
  let bad = { p with Ir.step = Ir.Assign (v "ghost" 99 Dtype.Float64, Ir.float_const Dtype.Float64 0.) :: p.Ir.step } in
  match Ir.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-range var accepted"

let test_validate_catches_bad_probe () =
  let p = sample_program () in
  let bad = { p with Ir.step = Ir.Probe 99 :: p.Ir.step } in
  match Ir.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-range probe accepted"

let test_validate_catches_duplicate_cells () =
  let p = sample_program () in
  let d = p.Ir.decisions.(0) in
  let bad = { p with Ir.decisions = [| { d with Ir.outcome_probes = [| 0; 0 |] } |] } in
  match Ir.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate probe cells accepted"

let test_eval_semantics () =
  let p = sample_program () in
  let e = Ir_eval.create p in
  Ir_eval.reset e;
  Ir_eval.set_input e 0 (Value.of_float Dtype.Float64 (-3.0));
  Ir_eval.step e;
  Alcotest.(check (float 0.0)) "abs" 3.0 (Value.to_float (Ir_eval.get_output e 0));
  Ir_eval.set_input e 0 (Value.of_float Dtype.Float64 100.0);
  Ir_eval.step e;
  Alcotest.(check (float 0.0)) "saturated" 5.0 (Value.to_float (Ir_eval.get_output e 0));
  Alcotest.(check (float 0.0)) "state counts" 2.0 (Value.to_float (Ir_eval.get_var e p.Ir.states.(0)))

let test_compile_matches_eval_on_sample () =
  let p = sample_program () in
  let e = Ir_eval.create p in
  let c = Ir_vm.compile ~optimize:false p in
  Ir_eval.reset e;
  Ir_vm.reset c;
  let rng = Cftcg_util.Rng.create 11L in
  for _ = 1 to 500 do
    let x = Cftcg_util.Rng.float rng 20.0 -. 10.0 in
    Ir_eval.set_input e 0 (Value.of_float Dtype.Float64 x);
    Ir_vm.set_input c 0 (Value.of_float Dtype.Float64 x);
    Ir_eval.step e;
    Ir_vm.step c;
    let ve = Value.to_float (Ir_eval.get_output e 0) in
    let vc = Value.to_float (Ir_vm.get_output c 0) in
    Alcotest.(check (float 0.0)) "outputs agree" ve vc
  done

let test_hooks_fire_identically () =
  let p = sample_program () in
  let run mk_step =
    let probes = ref [] in
    let conds = ref [] in
    let decs = ref [] in
    let branches = ref [] in
    let hooks =
      {
        Hooks.on_probe = Some (fun id -> probes := id :: !probes);
        on_cond = Some (fun d i b -> conds := (d, i, b) :: !conds);
        on_decision = Some (fun d o -> decs := (d, o) :: !decs);
        on_branch = Some (fun ix taken dt df -> branches := (ix, taken, dt, df) :: !branches);
      }
    in
    mk_step hooks;
    (!probes, !conds, !decs, !branches)
  in
  let via_eval hooks =
    let e = Ir_eval.create p in
    Ir_eval.reset ~hooks e;
    Ir_eval.set_input e 0 (Value.of_float Dtype.Float64 7.5);
    Ir_eval.step ~hooks e;
    Ir_eval.set_input e 0 (Value.of_float Dtype.Float64 1.0);
    Ir_eval.step ~hooks e
  in
  let via_compile hooks =
    let c = Ir_vm.compile ~optimize:false ~hooks p in
    Ir_vm.reset c;
    Ir_vm.set_input c 0 (Value.of_float Dtype.Float64 7.5);
    Ir_vm.step c;
    Ir_vm.set_input c 0 (Value.of_float Dtype.Float64 1.0);
    Ir_vm.step c
  in
  let pe, ce, de, be = run via_eval in
  let pc, cc, dc, bc = run via_compile in
  Alcotest.(check (list int)) "probes" pe pc;
  Alcotest.(check bool) "conds" true (ce = cc);
  Alcotest.(check bool) "decisions" true (de = dc);
  Alcotest.(check bool) "branch reports" true (be = bc)

let test_branch_distance_rules () =
  let x = v "x" 0 Dtype.Float64 in
  let store_val = ref 0.0 in
  let eval_fn e =
    match e with
    | Ir.Read _ -> Value.of_float Dtype.Float64 !store_val
    | Ir.Const c -> c
    | _ -> Value.of_float Dtype.Float64 0.0
  in
  let le = Ir.Binop (Ir.B_le, Dtype.Float64, Ir.Read x, Ir.float_const Dtype.Float64 10.0) in
  store_val := 3.0;
  let dt, df = Ir_eval.branch_distances le eval_fn in
  Alcotest.(check (float 1e-9)) "le true: dist_true 0" 0.0 dt;
  Alcotest.(check (float 1e-9)) "le true: dist_false 8" 8.0 df;
  store_val := 14.0;
  let dt, df = Ir_eval.branch_distances le eval_fn in
  Alcotest.(check (float 1e-9)) "le false: dist_true 4" 4.0 dt;
  Alcotest.(check (float 1e-9)) "le false: dist_false 0" 0.0 df;
  let eq = Ir.Binop (Ir.B_eq, Dtype.Float64, Ir.Read x, Ir.float_const Dtype.Float64 10.0) in
  store_val := 7.0;
  let dt, _ = Ir_eval.branch_distances eq eval_fn in
  Alcotest.(check (float 1e-9)) "eq: |a-b|" 3.0 dt;
  (* conjunction adds, disjunction mins *)
  let conj = Ir.Binop (Ir.B_and, Dtype.Float64, le, eq) in
  store_val := 14.0;
  let dt, _ = Ir_eval.branch_distances conj eval_fn in
  Alcotest.(check (float 1e-9)) "and sums" 8.0 dt;
  let disj = Ir.Binop (Ir.B_or, Dtype.Float64, le, eq) in
  let dt, _ = Ir_eval.branch_distances disj eval_fn in
  Alcotest.(check (float 1e-9)) "or mins" 4.0 dt

let test_cemit_contains_expected_shapes () =
  let p = sample_program () in
  let c = Cemit.emit_program p in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has step fn" true (contains "void sample_step(" c);
  Alcotest.(check bool) "has init fn" true (contains "void sample_init(void)" c);
  Alcotest.(check bool) "has probe call" true (contains "CoverageStatistics(0);" c);
  Alcotest.(check bool) "has decision call" true (contains "CoverageDecision(0, 1);" c);
  let d = Cemit.emit_fuzz_driver p in
  Alcotest.(check bool) "driver loop" true (contains "while (1)" d);
  Alcotest.(check bool) "driver memcpy" true (contains "memcpy(&" d);
  Alcotest.(check bool) "driver tuple len" true (contains "const int dataLen = 8;" d);
  Alcotest.(check bool) "emit deterministic" true (Cemit.emit_all p = Cemit.emit_all p)

let test_select_evaluates_both_arms () =
  (* Select is branchless: both arms run; no probes can hide in it,
     and its value matches the condition. *)
  let x = v "x" 0 Dtype.Float64 in
  let y = v "y" 1 Dtype.Float64 in
  let p =
    {
      Ir.prog_name = "sel";
      n_vars = 2;
      inputs = [| x |];
      outputs = [| y |];
      states = [||];
      init = [];
      step =
        [ Ir.Assign
            ( y,
              Ir.Select
                ( Ir.Binop (Ir.B_ge, Dtype.Float64, Ir.Read x, Ir.float_const Dtype.Float64 0.0),
                  Ir.float_const Dtype.Float64 1.0,
                  Ir.float_const Dtype.Float64 (-1.0) ) ) ];
      n_probes = 0;
      decisions = [||];
      assertions = [||];
      lookup_tables = [||];
    }
  in
  let c = Ir_vm.compile ~optimize:false p in
  Ir_vm.reset c;
  Ir_vm.set_input c 0 (Value.of_float Dtype.Float64 3.0);
  Ir_vm.step c;
  Alcotest.(check (float 0.0)) "positive" 1.0 (Value.to_float (Ir_vm.get_output c 0));
  Ir_vm.set_input c 0 (Value.of_float Dtype.Float64 (-3.0));
  Ir_vm.step c;
  Alcotest.(check (float 0.0)) "negative" (-1.0) (Value.to_float (Ir_vm.get_output c 0))

let suites =
  [ ( "ir.core",
      [ Alcotest.test_case "validate ok" `Quick test_validate_ok;
        Alcotest.test_case "validate bad var" `Quick test_validate_catches_bad_var;
        Alcotest.test_case "validate bad probe" `Quick test_validate_catches_bad_probe;
        Alcotest.test_case "validate dup cells" `Quick test_validate_catches_duplicate_cells ] );
    ( "ir.exec",
      [ Alcotest.test_case "eval semantics" `Quick test_eval_semantics;
        Alcotest.test_case "compile matches eval" `Quick test_compile_matches_eval_on_sample;
        Alcotest.test_case "hooks fire identically" `Quick test_hooks_fire_identically;
        Alcotest.test_case "branch distances" `Quick test_branch_distance_rules;
        Alcotest.test_case "select branchless" `Quick test_select_evaluates_both_arms ] );
    ("ir.cemit", [ Alcotest.test_case "C output shapes" `Quick test_cemit_contains_expected_shapes ])
  ]
