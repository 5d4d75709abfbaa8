(* Tests for the bytecode optimizer: behaviour preservation
   (differential against the unoptimized bytecode, including all
   coverage events) and effectiveness (instructions actually
   removed). *)

open Cftcg_model
open Cftcg_ir
module Codegen = Cftcg_codegen.Codegen

let rng_input rng (var : Ir.var) =
  match var.Ir.vty with
  | Dtype.Bool -> Value.of_bool (Cftcg_util.Rng.bool rng)
  | ty when Dtype.is_integer ty -> Value.of_int ty (Cftcg_util.Rng.int_in rng (-500) 500)
  | ty -> Value.of_float ty (Cftcg_util.Rng.float rng 60.0 -. 30.0)

(* Run the program with and without the optimizer over the same
   random stream; compare outputs and the full trace of
   probe/cond/decision events. *)
let differential name prog =
  let trace_a = ref [] in
  let trace_b = ref [] in
  let mk_hooks trace =
    {
      Hooks.on_probe = Some (fun id -> trace := `P id :: !trace);
      on_cond = Some (fun d i b -> trace := `C (d, i, b) :: !trace);
      on_decision = Some (fun d o -> trace := `D (d, o) :: !trace);
      on_branch = None;
    }
  in
  let a = Ir_vm.compile ~hooks:(mk_hooks trace_a) ~optimize:false prog in
  let b = Ir_vm.compile ~hooks:(mk_hooks trace_b) prog in
  Ir_vm.reset a;
  Ir_vm.reset b;
  let rng = Cftcg_util.Rng.create 31L in
  for step = 1 to 300 do
    Array.iteri
      (fun i var ->
        let v = rng_input rng var in
        Ir_vm.set_input a i v;
        Ir_vm.set_input b i v)
      prog.Ir.inputs;
    Ir_vm.step a;
    Ir_vm.step b;
    Array.iteri
      (fun i _ ->
        let va = Value.to_float (Ir_vm.get_output a i) in
        let vb = Value.to_float (Ir_vm.get_output b i) in
        if va <> vb && not (Float.is_nan va && Float.is_nan vb) then
          Alcotest.failf "%s: output %d diverges at step %d: %.17g vs %.17g" name i step va vb)
      prog.Ir.outputs
  done;
  if !trace_a <> !trace_b then
    Alcotest.failf "%s: coverage event traces diverge (%d vs %d events)" name
      (List.length !trace_a) (List.length !trace_b)

let test_preserves_fixtures () =
  List.iter
    (fun (name, mk) -> differential name (Codegen.lower (mk ())))
    [ ("arith", Fixtures.arith_model); ("feedback", Fixtures.feedback_model);
      ("chart", Fixtures.chart_model); ("logic", Fixtures.logic_model);
      ("enabled", Fixtures.enabled_model); ("triggered", Fixtures.triggered_model);
      ("kitchen sink", Fixtures.kitchen_sink_model) ]

let test_preserves_bench_models () =
  List.iter
    (fun (e : Cftcg_bench_models.Bench_models.entry) ->
      differential e.Cftcg_bench_models.Bench_models.name
        (Codegen.lower (Lazy.force e.Cftcg_bench_models.Bench_models.model)))
    Cftcg_bench_models.Bench_models.all

(* ------------------------------------------------------------------ *)
(* Bytecode optimizer (Ir_opt.optimize_bytecode)                       *)
(* ------------------------------------------------------------------ *)

module L = Ir_linearize

(* the ids a probe buffer's byte map marks fired, ascending *)
let fired_ids (p : Ir_vm.probes) =
  let ids = ref [] in
  Bytes.iteri (fun id c -> if c <> '\000' then ids := id :: !ids) p.Ir_vm.p_fired;
  List.rev !ids

(* behavioural check shared by the rule tests: the optimized bytecode
   must produce the same outputs as the unoptimized bytecode *)
let same_outputs name prog ~steps =
  let vm_opt = Ir_vm.compile prog in
  let vm_raw = Ir_vm.compile ~optimize:false prog in
  Ir_vm.reset vm_opt;
  Ir_vm.reset vm_raw;
  let rng = Cftcg_util.Rng.create 77L in
  for step = 1 to steps do
    Array.iteri
      (fun i var ->
        let v = rng_input rng var in
        Ir_vm.set_input vm_opt i v;
        Ir_vm.set_input vm_raw i v)
      prog.Ir.inputs;
    Ir_vm.step vm_opt;
    Ir_vm.step vm_raw;
    Array.iteri
      (fun o _ ->
        let a = Value.to_float (Ir_vm.get_output vm_raw o) in
        let b = Value.to_float (Ir_vm.get_output vm_opt o) in
        if a <> b && not (Float.is_nan a && Float.is_nan b) then
          Alcotest.failf "%s: output %d diverges at step %d: %.17g vs %.17g" name o step a b)
      prog.Ir.outputs
  done

let test_bc_constant_folding () =
  (* (2 + 3) * u : the add of two pool registers must fold away *)
  let b = Build.create "BCF" in
  let u = Build.inport b "u" Dtype.Float64 in
  Build.outport b "y" (Build.product b [ Build.sum b [ Build.const_f b 2.0; Build.const_f b 3.0 ]; u ]);
  let prog = Codegen.lower ~mode:Codegen.Plain (Build.finish b) in
  let lin = L.linearize prog in
  let opt = Ir_opt.optimize_bytecode lin in
  let h_raw = Ir_opt.opcode_histogram lin and h_opt = Ir_opt.opcode_histogram opt in
  Alcotest.(check bool) "an add disappears" true (h_opt.(L.op_add_f) < h_raw.(L.op_add_f));
  same_outputs "bc const fold" prog ~steps:50

let test_bc_constant_branch () =
  (* a switch with a constant-true control resolves to the taken arm:
     no select, no conditional jump and nothing of the dead arm is
     left (the model has no state, so init holds none of these ops) *)
  let model () =
    let b = Build.create "BCB" in
    let u = Build.inport b "u" Dtype.Float64 in
    Build.outport b "y" (Build.switch b u (Build.const_f b 1.0) (Build.neg b u));
    Build.finish b
  in
  let histogram mode =
    Ir_opt.opcode_histogram (Ir_opt.optimize_bytecode (L.linearize (Codegen.lower ~mode (model ()))))
  in
  let cond_jumps h =
    List.fold_left
      (fun acc op -> acc + h.(op))
      0
      L.[ op_jz; op_jnz; op_jlt; op_jle; op_jeq; op_jne; op_jlt_p; op_jle_p; op_jeq_p; op_jne_p;
          op_jz_p; op_jnz_p; op_psel_lt; op_psel_le; op_psel_eq; op_psel_nz; op_setp_lt;
          op_setp_le; op_setp_eq; op_setp_ne; op_setp_nz ]
  in
  let h = histogram Codegen.Plain in
  Alcotest.(check int) "no select" 0 h.(L.op_select);
  Alcotest.(check int) "no conditional jump" 0 (cond_jumps h);
  Alcotest.(check int) "no dead-arm negation" 0 h.(L.op_neg_f);
  let h_full = histogram Codegen.Full in
  Alcotest.(check int) "Full: no conditional jump" 0 (cond_jumps h_full);
  Alcotest.(check int) "Full: no dead-arm negation" 0 h_full.(L.op_neg_f);
  same_outputs "bc constant branch" (Codegen.lower ~mode:Codegen.Plain (model ())) ~steps:20;
  (* the Full build keeps the taken arm's probe: an optimized step
     fires exactly the probes an unoptimized one does *)
  let full = Codegen.lower ~mode:Codegen.Full (model ()) in
  let fired optimize =
    let vm = Ir_vm.compile ~optimize full in
    Ir_vm.reset vm;
    Ir_vm.set_input vm 0 (Value.of_float Dtype.Float64 2.5);
    Ir_vm.step vm;
    fired_ids (Ir_vm.probes vm)
  in
  Alcotest.(check bool) "the taken arm fires a probe" true (fired true <> []);
  Alcotest.(check (list int)) "same probes as unoptimized" (fired false) (fired true)

let test_bc_copy_propagation () =
  (* same-type conversions lower to movs; copy propagation plus DCE
     must leave none of the chain *)
  let b = Build.create "BCP" in
  let u = Build.inport b "u" Dtype.Float64 in
  let v = Build.convert b Dtype.Float64 u in
  let w = Build.convert b Dtype.Float64 v in
  Build.outport b "y" w;
  let prog = Codegen.lower ~mode:Codegen.Plain (Build.finish b) in
  let lin = L.linearize prog in
  let opt = Ir_opt.optimize_bytecode lin in
  Alcotest.(check bool)
    (Printf.sprintf "insts shrink (%d -> %d)" (Ir_opt.static_count lin) (Ir_opt.static_count opt))
    true
    (Ir_opt.static_count opt < Ir_opt.static_count lin);
  same_outputs "bc copy prop" prog ~steps:50

let test_bc_dce_respects_roots () =
  (* a terminated chain dies, but state and output writes survive *)
  let b = Build.create "BDCE" in
  let u = Build.inport b "u" Dtype.Float64 in
  Build.terminator b (Build.gain b 5.0 (Build.gain b 3.0 u));
  let d = Build.unit_delay b ~init:0.0 u in
  Build.outport b "y" (Build.sum b [ d; u ]);
  let prog = Codegen.lower ~mode:Codegen.Plain (Build.finish b) in
  let lin = L.linearize prog in
  let opt = Ir_opt.optimize_bytecode lin in
  Alcotest.(check bool)
    (Printf.sprintf "dead chain removed (%d -> %d)" (Ir_opt.static_count lin)
       (Ir_opt.static_count opt))
    true
    (Ir_opt.static_count opt < Ir_opt.static_count lin);
  (* the delayed feedback still works: outputs must track history *)
  same_outputs "bc dce" prog ~steps:80

(* The disassembly as (index, instruction text) rows, so structural
   properties can be asserted without re-exposing the decoder. Lines
   look like "   12: jmp        -> 29"; the text is what follows the
   colon, trimmed. *)
let disasm_lines lin =
  Ir_opt.disassemble lin |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.index_opt line ':' with
         | Some colon when colon > 0 -> (
           match int_of_string_opt (String.trim (String.sub line 0 colon)) with
           | None -> None (* "init:" / "step:" headers *)
           | Some ix ->
             Some (ix, String.trim (String.sub line (colon + 1) (String.length line - colon - 1))))
         | _ -> None)

(* (index, opname, target option) rows *)
let disasm_insts lin =
  List.map
    (fun (ix, text) ->
      let name = List.hd (String.split_on_char ' ' text) in
      let target =
        match String.index_opt text '>' with
        | Some gt ->
          int_of_string_opt (String.trim (String.sub text (gt + 1) (String.length text - gt - 1)))
        | None -> None
      in
      (ix, name, target))
    (disasm_lines lin)

let test_bc_jump_threading () =
  (* nested switches create jmp-to-jmp chains at the joins; after
     threading, no live jump may land on a jmp *)
  let b = Build.create "BJT" in
  let u = Build.inport b "u" Dtype.Float64 in
  let c1 = Build.compare_const b Graph.R_gt 0.0 u in
  let c2 = Build.compare_const b Graph.R_gt 10.0 u in
  let inner = Build.switch b c2 (Build.const_f b 1.0) (Build.const_f b 2.0) in
  Build.outport b "y" (Build.switch b c1 inner (Build.const_f b 3.0));
  let prog = Codegen.lower ~mode:Codegen.Full (Build.finish b) in
  let lin = L.linearize prog in
  let opt = Ir_opt.optimize_bytecode lin in
  let insts = disasm_insts opt in
  let name_at ix =
    match List.find_opt (fun (i, _, _) -> i = ix) insts with
    | Some (_, n, _) -> n
    | None -> "?"
  in
  List.iter
    (fun (ix, _, target) ->
      match target with
      | Some t ->
        if name_at t = "jmp" then
          Alcotest.failf "instruction %d still jumps to a jmp at %d" ix t
      | None -> ())
    insts;
  same_outputs "bc jump threading" prog ~steps:50

(* the opcodes a fused relation may end up in: its compare-and-jump,
   probe-carrying jump, probe select and probe-firing set. gt and ge
   fuse as lt and le with swapped operands; ne as eq with swapped
   probes, except for the register a setp writes *)
let relation_family rel =
  match rel with
  | Graph.R_lt | Graph.R_gt -> L.[ op_jlt; op_jlt_p; op_psel_lt; op_setp_lt ]
  | Graph.R_le | Graph.R_ge -> L.[ op_jle; op_jle_p; op_psel_le; op_setp_le ]
  | Graph.R_eq -> L.[ op_jeq; op_jeq_p; op_psel_eq; op_setp_eq; op_setp_ne ]
  | Graph.R_ne -> L.[ op_jne; op_jne_p; op_psel_eq; op_setp_ne; op_setp_eq ]

let count_ops h ops = List.fold_left (fun acc op -> acc + h.(op)) 0 ops

let all_relations =
  [ (Graph.R_lt, "lt"); (Graph.R_le, "le"); (Graph.R_eq, "eq"); (Graph.R_ne, "ne");
    (Graph.R_gt, "gt"); (Graph.R_ge, "ge") ]

(* every compare that feeds a branch fuses into its relation's family,
   so no materialized compare is left, and behaviour is unchanged *)
let test_bc_fused_compare_jumps () =
  List.iter
    (fun (rel, label) ->
      let b = Build.create ("BFC" ^ label) in
      let u = Build.inport b "u" Dtype.Float64 in
      let v = Build.inport b "v" Dtype.Float64 in
      let c = Build.relational b rel u v in
      Build.outport b "y" (Build.switch b c (Build.sum b [ u; v ]) (Build.neg b u));
      let prog = Codegen.lower ~mode:Codegen.Full (Build.finish b) in
      let opt = Ir_opt.optimize_bytecode (L.linearize prog) in
      let h = Ir_opt.opcode_histogram opt in
      Alcotest.(check bool) (label ^ " fused compare emitted") true
        (count_ops h (relation_family rel) > 0);
      Alcotest.(check int) (label ^ " no compare left") 0
        (count_ops h L.[ op_cmp_eq; op_cmp_ne; op_cmp_lt; op_cmp_le; op_cmp_gt; op_cmp_ge ]);
      same_outputs ("fused " ^ label) prog ~steps:60)
    all_relations

(* a negated chart guard is the one construct that lowers to an [If]
   with a top-level NOT — i.e. a [not t; jz t] pair — so it is where
   the jnz fusion fires *)
let test_bc_fused_jnz () =
  let open Chart in
  let u = in_ 0 in
  let state name out dst =
    { state_name = name; exit_actions = []; children = [||]; init_child = 0;
      parallel = false; entry = []; during = [ Set_out (0, num out) ];
      outgoing = [ { guard = not_ (Bin (C_gt, u, num 0.)); actions = []; dst } ] }
  in
  let sm =
    { chart_name = "NotSM";
      inputs = [| ("u", Dtype.Float64) |];
      outputs = [| ("y", Dtype.Float64) |];
      locals = [||];
      states = [| state "A" 1. 1; state "B" 2. 0 |];
      init_state = 0 }
  in
  let b = Build.create "BJNZ" in
  let us = Build.inport b "u" Dtype.Float64 in
  let outs = Build.chart b sm [ us ] in
  Build.outport b "y" outs.(0);
  let prog = Codegen.lower ~mode:Codegen.Full (Build.finish b) in
  let opt = Ir_opt.optimize_bytecode (L.linearize prog) in
  let h = Ir_opt.opcode_histogram opt in
  (* with probes instrumented the jnz may fuse one step further into
     the probe-carrying jnz.p — either way the [not; jz] pair is gone *)
  Alcotest.(check bool) "jnz emitted" true (h.(L.op_jnz) > 0 || h.(L.op_jnz_p) > 0);
  same_outputs "fused jnz" prog ~steps:60

let test_bc_fused_f32_arith () =
  let b = Build.create "BF32" in
  let u = Build.inport b "u" Dtype.Float32 in
  let v = Build.inport b "v" Dtype.Float32 in
  let s = Build.sum b [ u; v ] in
  let p = Build.product b [ s; u ] in
  let q = Build.product b ~ops:"*/" [ p; v ] in
  Build.outport b "y" (Build.sum b ~signs:"+-" [ q; u ]);
  let prog = Codegen.lower ~mode:Codegen.Plain (Build.finish b) in
  let opt = Ir_opt.optimize_bytecode (L.linearize prog) in
  let h = Ir_opt.opcode_histogram opt in
  Alcotest.(check bool) "add.f32 emitted" true (h.(L.op_add_f32) > 0);
  Alcotest.(check bool) "mul.f32 emitted" true (h.(L.op_mul_f32) > 0);
  Alcotest.(check bool) "div.f32 emitted" true (h.(L.op_div_f32) > 0);
  Alcotest.(check bool) "sub.f32 emitted" true (h.(L.op_sub_f32) > 0);
  same_outputs "fused f32" prog ~steps:60

let test_bc_fused_arm_tails () =
  (* then-arms end in [probe; jmp] / [mov; jmp]: each collapses into
     one dispatch, and where the else-arm is a lone probe (plus the
     matching 0/1 write) the whole diamond collapses further into a
     psel / setp — either way no unconditional jmp is left *)
  let b = Build.create "BTAIL" in
  let u = Build.inport b "u" Dtype.Float64 in
  let c = Build.compare_const b Graph.R_gt 0.0 u in
  Build.outport b "y" (Build.switch b c (Build.const_f b 4.0) (Build.neg b u));
  let prog = Codegen.lower ~mode:Codegen.Full (Build.finish b) in
  let opt = Ir_opt.optimize_bytecode (L.linearize prog) in
  let h = Ir_opt.opcode_histogram opt in
  Alcotest.(check bool) "arm tails fused" true
    (count_ops h
       L.[ op_probe_jmp; op_mov_jmp; op_psel_lt; op_psel_le; op_psel_eq; op_psel_nz; op_setp_lt;
           op_setp_le; op_setp_eq; op_setp_ne; op_setp_nz ]
    > 0);
  Alcotest.(check int) "no jmp left" 0 h.(L.op_jmp);
  same_outputs "fused arm tails" prog ~steps:60

(* probe parity for the probe-aware rules: the optimized bytecode must
   fire exactly the same probe set per step as the unoptimized *)
let same_probes name prog ~steps =
  let vm_opt = Ir_vm.compile prog in
  let vm_raw = Ir_vm.compile ~optimize:false prog in
  Ir_vm.reset vm_opt;
  Ir_vm.reset vm_raw;
  let po = Ir_vm.probes vm_opt and pr = Ir_vm.probes vm_raw in
  Ir_vm.clear_probes po;
  Ir_vm.clear_probes pr;
  let rng = Cftcg_util.Rng.create 99L in
  for step = 1 to steps do
    Array.iteri
      (fun i var ->
        let v = rng_input rng var in
        Ir_vm.set_input vm_opt i v;
        Ir_vm.set_input vm_raw i v)
      prog.Ir.inputs;
    Ir_vm.step vm_opt;
    Ir_vm.step vm_raw;
    if fired_ids po <> fired_ids pr then Alcotest.failf "%s: probe sets diverge at step %d" name step;
    Ir_vm.clear_probes po;
    Ir_vm.clear_probes pr
  done

let test_bc_probe_compare_jumps () =
  (* instrumented switch: the decision probe on the fall-through arm
     rides along in the compare's own dispatch — a probe-carrying jump
     (jlt.p .. jne.p), or a psel / setp when the other arm is a lone
     probe *)
  List.iter
    (fun (rel, label) ->
      let b = Build.create ("BPC" ^ label) in
      let u = Build.inport b "u" Dtype.Float64 in
      let v = Build.inport b "v" Dtype.Float64 in
      let c = Build.relational b rel u v in
      Build.outport b "y" (Build.switch b c (Build.sum b [ u; v ]) (Build.neg b u));
      let prog = Codegen.lower ~mode:Codegen.Full (Build.finish b) in
      let opt = Ir_opt.optimize_bytecode (L.linearize prog) in
      let h = Ir_opt.opcode_histogram opt in
      let plain = L.[ op_jlt; op_jle; op_jeq; op_jne ] in
      Alcotest.(check bool) (label ^ " probe-carrying compare emitted") true
        (count_ops h (List.filter (fun op -> not (List.mem op plain)) (relation_family rel)) > 0);
      same_outputs ("probe fused " ^ label) prog ~steps:60;
      same_probes ("probe fused " ^ label) prog ~steps:60)
    all_relations

let test_bc_probe_logic_jumps () =
  (* a logic-op condition keeps its jz (no compare to fuse with), so
     the arm probe lands in jz.p / jnz.p, or the whole diamond in
     psel.nz / setp.nz *)
  let b = Build.create "BPL" in
  let u = Build.inport b "u" Dtype.Float64 in
  let v = Build.inport b "v" Dtype.Float64 in
  let c = Build.and_ b (Build.compare_const b Graph.R_gt 0.0 u) (Build.compare_const b Graph.R_lt 1.0 v) in
  Build.outport b "y" (Build.switch b c (Build.sum b [ u; v ]) (Build.neg b u));
  let prog = Codegen.lower ~mode:Codegen.Full (Build.finish b) in
  let opt = Ir_opt.optimize_bytecode (L.linearize prog) in
  let h = Ir_opt.opcode_histogram opt in
  Alcotest.(check bool) "jz.p, jnz.p, psel.nz or setp.nz emitted" true
    (count_ops h L.[ op_jz_p; op_jnz_p; op_psel_nz; op_setp_nz ] > 0);
  same_outputs "probe fused jz" prog ~steps:60;
  same_probes "probe fused jz" prog ~steps:60

(* base linearization for the hand-written bytecode below: a real
   instrumented model supplies valid n_probes / register counts, its
   step stream is replaced per test *)
let dedup_base () =
  let b = Build.create "BDEDUP" in
  let u = Build.inport b "u" Dtype.Float64 in
  Build.outport b "y"
    (Build.switch b (Build.compare_const b Graph.R_gt 0.0 u) u (Build.neg b u));
  L.linearize (Codegen.lower ~mode:Codegen.Full (Build.finish b))

let test_bc_probe_dedup_straight_line () =
  (* three fires of the same cell in a straight line: the buffer write
     is idempotent, so only the first survives *)
  let lin = dedup_base () in
  let dup =
    { lin with L.l_init = [| L.op_halt |];
               l_step = [| L.op_probe; 0; L.op_probe; 0; L.op_probe; 0; L.op_halt |] }
  in
  let opt = Ir_opt.optimize_bytecode dup in
  Alcotest.(check int) "duplicates dropped" 1 (Ir_opt.opcode_histogram opt).(L.op_probe)

let test_bc_probe_dedup_stops_at_join () =
  (* pc0: probe 0;  pc2: jz r0 -> 9;  pc5: probe 0 (dominated, drops);
     pc7: halt;  pc8: probe 0 (jump target: new region, survives) *)
  let lin = dedup_base () in
  let joined =
    { lin with L.l_init = [| L.op_halt |];
               l_step = [| L.op_probe; 0; L.op_jz; 0; 8; L.op_probe; 0; L.op_halt;
                           L.op_probe; 0; L.op_halt |] }
  in
  let opt = Ir_opt.optimize_bytecode joined in
  Alcotest.(check int) "dominated copy dropped, join copy kept" 2
    (Ir_opt.opcode_histogram opt).(L.op_probe)

let test_bc_probe_dedup_uses_branch_knowledge () =
  (* reaching the instruction after a probe-carrying branch means the
     branch fell through and its probe fired — a plain re-fire of the
     same cell on that path is dead *)
  let lin = dedup_base () in
  let carried =
    { lin with L.l_init = [| L.op_halt |];
               l_step = [| L.op_jlt_p; 0; 0; 0; 8; L.op_probe; 0; L.op_halt;
                           L.op_probe; 0; L.op_halt |] }
  in
  let opt = Ir_opt.optimize_bytecode carried in
  let h = Ir_opt.opcode_histogram opt in
  Alcotest.(check int) "fall-through re-fire dropped" 1 h.(L.op_probe);
  Alcotest.(check int) "branch keeps its probe" 1 h.(L.op_jlt_p)

let test_bc_liveness_back_edge () =
  (* pc0: mov t, u;  pc3: cond 0, 0, t (loop head);  pc7: mov t, k0;
     pc10: jz u, 3 (back edge);  pc13: halt. The second write of t is
     read only around the back edge, so a liveness solve that stopped
     after one reverse sweep would drop it *)
  let lin = dedup_base () in
  let prog = lin.L.l_prog in
  let u = prog.Ir.inputs.(0).Ir.vid in
  let io =
    Array.to_list
      (Array.map (fun (v : Ir.var) -> v.Ir.vid)
         (Array.concat [ prog.Ir.inputs; prog.Ir.outputs; prog.Ir.states ]))
  in
  let t = List.find (fun r -> not (List.mem r io)) (List.init lin.L.l_const_base Fun.id) in
  let k0 = lin.L.l_const_base in
  Alcotest.(check bool) "base has a constant" true (Array.length lin.L.l_consts > 0);
  let looped =
    { lin with L.l_init = [| L.op_halt |];
               l_step = [| L.op_mov; t; u; L.op_cond; 0; 0; t; L.op_mov; t; k0;
                           L.op_jz; u; 3; L.op_halt |] }
  in
  let opt = Ir_opt.optimize_bytecode looped in
  Alcotest.(check int) "both writes of t survive" 2 (Ir_opt.opcode_histogram opt).(L.op_mov)

(* Hand-written step code over [dedup_base]'s registers: its input u,
   its output y, a scratch register t outside I/O and state, and a
   two-entry constant pool k0 = 0.0, k1 = 1.0. *)
let hand_base step =
  let lin = dedup_base () in
  let prog = lin.L.l_prog in
  let u = prog.Ir.inputs.(0).Ir.vid and y = prog.Ir.outputs.(0).Ir.vid in
  let io =
    Array.to_list
      (Array.map (fun (v : Ir.var) -> v.Ir.vid)
         (Array.concat [ prog.Ir.inputs; prog.Ir.outputs; prog.Ir.states ]))
  in
  let t = List.find (fun r -> not (List.mem r io)) (List.init lin.L.l_const_base Fun.id) in
  let k0 = lin.L.l_const_base and k1 = lin.L.l_const_base + 1 in
  let code = step ~u ~y ~t ~k0 ~k1 in
  let lin =
    { lin with L.l_init = [| L.op_halt |]; l_step = code; l_consts = [| 0.0; 1.0 |];
               l_n_regs = lin.L.l_const_base + 2 }
  in
  (lin, u, y, t)

(* the disassembled instructions, both blocks, as "name operands"
   with the name padded as [Ir_opt.disassemble] prints it *)
let listing lin = List.map snd (disasm_lines lin)

let has_inst lin text = List.mem text (listing lin)

let test_bc_global_copy_prop () =
  (* pc0: mov t, u;  pc3: jz u -> 10;  pc6: probe 0;  pc8: jmp -> 12;
     pc10: probe 1;  pc12: mov y, t;  pc15: halt. The copy t = u holds
     on both paths into the join at pc12, so y reads u and t's write
     dies *)
  let both, u, y, t =
    hand_base (fun ~u ~y ~t ~k0:_ ~k1:_ ->
        [| L.op_mov; t; u; L.op_jz; u; 10; L.op_probe; 0; L.op_jmp; 12; L.op_probe; 1;
           L.op_mov; y; t; L.op_halt |])
  in
  let opt = Ir_opt.optimize_bytecode both in
  Alcotest.(check bool) "y reads u across the join" true
    (has_inst opt (Printf.sprintf "%-10s r%d, r%d" "mov" y u));
  Alcotest.(check bool) "t is never written" false
    (List.exists (fun l -> has_inst opt l) [ Printf.sprintf "%-10s r%d, r%d" "mov" t u ]);
  (* pc0: mov t, u;  pc3: jz u -> 11;  pc6: mov u, k0;  pc9: jmp -> 13;
     pc11: probe 0;  pc13: mov y, t;  pc16: halt. The then-path
     rewrites u, so at the join t no longer equals u *)
  let killed, u, y, t =
    hand_base (fun ~u ~y ~t ~k0 ~k1:_ ->
        [| L.op_mov; t; u; L.op_jz; u; 11; L.op_mov; u; k0; L.op_jmp; 13; L.op_probe; 0;
           L.op_mov; y; t; L.op_halt |])
  in
  let opt = Ir_opt.optimize_bytecode killed in
  Alcotest.(check bool) "y keeps reading t" true
    (has_inst opt (Printf.sprintf "%-10s r%d, r%d" "mov" y t));
  Alcotest.(check bool) "the copy is not propagated" false
    (has_inst opt (Printf.sprintf "%-10s r%d, r%d" "mov" y u))

(* the operand values the relation tests feed, every pair of them *)
let edge_values = [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 1.0; -1.0 ]

(* the optimized and unoptimized code of [prog] step through every pair
   of [edge_values] on inputs 0 and 1; outputs and probe sets must
   agree bit for bit at every step *)
let same_on_edge_values name prog =
  let vm_opt = Ir_vm.compile prog and vm_raw = Ir_vm.compile ~optimize:false prog in
  Ir_vm.reset vm_opt;
  Ir_vm.reset vm_raw;
  let po = Ir_vm.probes vm_opt and pr = Ir_vm.probes vm_raw in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          List.iter
            (fun vm ->
              Ir_vm.set_input vm 0 (Value.of_float Dtype.Float64 x);
              Ir_vm.set_input vm 1 (Value.of_float Dtype.Float64 y))
            [ vm_opt; vm_raw ];
          Ir_vm.clear_probes po;
          Ir_vm.clear_probes pr;
          Ir_vm.step vm_opt;
          Ir_vm.step vm_raw;
          Array.iteri
            (fun o _ ->
              let a = Value.to_float (Ir_vm.get_output vm_raw o) in
              let b = Value.to_float (Ir_vm.get_output vm_opt o) in
              if Int64.bits_of_float a <> Int64.bits_of_float b then
                Alcotest.failf "%s: output %d diverges on (%g, %g): %h vs %h" name o x y a b)
            prog.Ir.outputs;
          if fired_ids po <> fired_ids pr then
            Alcotest.failf "%s: probe sets diverge on (%g, %g)" name x y)
        edge_values)
    edge_values

let test_bc_probe_selects () =
  (* a materialized relation is a [probe A; r <- 1 | probe B; r <- 0]
     diamond (a setp) plus its condition probes (a psel); gt and ge
     fuse as lt and le with swapped operands, ne's register as setp.ne *)
  List.iter
    (fun (rel, label) ->
      let b = Build.create ("BPS" ^ label) in
      let u = Build.inport b "u" Dtype.Float64 in
      let v = Build.inport b "v" Dtype.Float64 in
      Build.outport b "y" (Build.relational b rel u v);
      let prog = Codegen.lower ~mode:Codegen.Full (Build.finish b) in
      let opt = Ir_opt.optimize_bytecode (L.linearize prog) in
      let h = Ir_opt.opcode_histogram opt in
      let psel, setp =
        match rel with
        | Graph.R_lt | Graph.R_gt -> (L.op_psel_lt, L.op_setp_lt)
        | Graph.R_le | Graph.R_ge -> (L.op_psel_le, L.op_setp_le)
        | Graph.R_eq -> (L.op_psel_eq, L.op_setp_eq)
        | Graph.R_ne -> (L.op_psel_eq, L.op_setp_ne)
      in
      Alcotest.(check bool) (label ^ ": psel emitted") true (h.(psel) > 0);
      Alcotest.(check bool) (label ^ ": setp emitted") true (h.(setp) > 0);
      (* the profiler and the disassembler know them too: one step
         dispatches each once *)
      let bp = Ir_opt.profile_bytecode opt [| [| 1.0; 2.0 |] |] in
      Alcotest.(check int) (label ^ ": one psel dispatch") h.(psel) bp.Ir_opt.bp_opcode_dyn.(psel);
      Alcotest.(check int) (label ^ ": one setp dispatch") h.(setp) bp.Ir_opt.bp_opcode_dyn.(setp);
      Alcotest.(check bool) (label ^ ": listed") true
        (List.exists (String.starts_with ~prefix:(Ir_opt.opcode_name setp ^ " ")) (listing opt));
      same_on_edge_values ("relation " ^ label) prog)
    all_relations;
  (* a logic condition selects on a register: psel.nz / setp.nz *)
  let b = Build.create "BPSNZ" in
  let u = Build.inport b "u" Dtype.Float64 in
  let v = Build.inport b "v" Dtype.Float64 in
  Build.outport b "y"
    (Build.and_ b
       (Build.compare_const b Graph.R_gt 0.0 u)
       (Build.compare_const b Graph.R_le 0.0 v));
  let prog = Codegen.lower ~mode:Codegen.Full (Build.finish b) in
  let h = Ir_opt.opcode_histogram (Ir_opt.optimize_bytecode (L.linearize prog)) in
  Alcotest.(check bool) "psel.nz emitted" true (h.(L.op_psel_nz) > 0);
  Alcotest.(check bool) "setp.nz emitted" true (h.(L.op_setp_nz) > 0);
  same_on_edge_values "logic" prog

let test_bc_psel_needs_sole_predecessor () =
  (* pc0: jz u -> 12;  pc3: probe 2;  pc5: jz t -> 12;  pc8: probe 0;
     pc10: jmp -> 14;  pc12: probe 1;  pc14: probe 3;  pc16: halt. The
     else-arm probe at pc12 is also the first branch's target, so the
     second branch's diamond must not absorb it *)
  let shared, _, _, _ =
    hand_base (fun ~u ~y:_ ~t ~k0:_ ~k1:_ ->
        [| L.op_jz; u; 12; L.op_probe; 2; L.op_jz; t; 12; L.op_probe; 0; L.op_jmp; 14; L.op_probe;
           1; L.op_probe; 3; L.op_halt |])
  in
  let opt = Ir_opt.optimize_bytecode shared in
  let h = Ir_opt.opcode_histogram opt in
  Alcotest.(check int) "no psel" 0
    (count_ops h L.[ op_psel_lt; op_psel_le; op_psel_eq; op_psel_nz ]);
  Alcotest.(check bool) "the shared else-arm probe survives" true
    (has_inst opt (Printf.sprintf "%-10s 1" "probe"));
  (* the same diamond with the else-arm probe to itself does fuse *)
  let own, _, _, t =
    hand_base (fun ~u ~y:_ ~t ~k0:_ ~k1:_ ->
        [| L.op_jz; u; 14; L.op_probe; 2; L.op_jz; t; 12; L.op_probe; 0; L.op_jmp; 14; L.op_probe;
           1; L.op_probe; 3; L.op_halt |])
  in
  Alcotest.(check bool) "sole predecessor: psel" true
    (has_inst (Ir_opt.optimize_bytecode own) (Printf.sprintf "%-10s r%d, 0, 1" "psel.nz" t))

let test_bc_dead_setp_keeps_probe () =
  (* pc0: setp.lt t, u, k0, 0, 1;  pc6: halt — t is never read, yet
     the setp fires a probe: it must become the psel of its relation *)
  let lin, u, _, _ =
    hand_base (fun ~u ~y:_ ~t ~k0 ~k1:_ -> [| L.op_setp_lt; t; u; k0; 0; 1; L.op_halt |])
  in
  let opt = Ir_opt.optimize_bytecode lin in
  Alcotest.(check bool) "psel.lt u, k0, 0, 1" true
    (has_inst opt (Printf.sprintf "%-10s r%d, k0(0), 0, 1" "psel.lt" u));
  (* setp.ne fires its first probe when eq fails: psel.eq swaps them *)
  let lin, u, _, _ =
    hand_base (fun ~u ~y:_ ~t ~k0 ~k1:_ -> [| L.op_setp_ne; t; u; k0; 0; 1; L.op_halt |])
  in
  Alcotest.(check bool) "psel.eq u, k0, 1, 0" true
    (has_inst (Ir_opt.optimize_bytecode lin) (Printf.sprintf "%-10s r%d, k0(0), 1, 0" "psel.eq" u))

let test_bc_const_prop_keeps_fused_probe () =
  (* a setp on known operands writing the output: its register folds
     to a known value but the setp, and with it the probe, stays *)
  let lin, _, y, _ =
    hand_base (fun ~u:_ ~y ~t:_ ~k0 ~k1 -> [| L.op_setp_lt; y; k0; k1; 0; 1; L.op_halt |])
  in
  let opt = Ir_opt.optimize_bytecode lin in
  Alcotest.(check bool) "setp kept" true
    (has_inst opt (Printf.sprintf "%-10s r%d, k0(0), k1(1), 0, 1" "setp.lt" y));
  (* dead and known: the psel it becomes resolves to the probe it fires *)
  let lin, _, _, _ =
    hand_base (fun ~u:_ ~y:_ ~t ~k0 ~k1 -> [| L.op_setp_lt; t; k1; k0; 0; 1; L.op_halt |])
  in
  let opt = Ir_opt.optimize_bytecode lin in
  Alcotest.(check (list string)) "the else probe fires"
    [ "halt"; Printf.sprintf "%-10s 1" "probe"; "halt" ]
    (listing opt)

let test_bc_shrinks_bench_models () =
  List.iter
    (fun (e : Cftcg_bench_models.Bench_models.entry) ->
      let prog =
        Codegen.lower ~mode:Codegen.Full (Lazy.force e.Cftcg_bench_models.Bench_models.model)
      in
      let lin = L.linearize prog in
      let opt = Ir_opt.optimize_bytecode lin in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d -> %d insts" e.Cftcg_bench_models.Bench_models.name
           (Ir_opt.static_count lin) (Ir_opt.static_count opt))
        true
        (Ir_opt.static_count opt < Ir_opt.static_count lin))
    Cftcg_bench_models.Bench_models.all

let test_bc_idempotent () =
  let prog = Codegen.lower ~mode:Codegen.Full (Fixtures.kitchen_sink_model ()) in
  let once = Ir_opt.optimize_bytecode (L.linearize prog) in
  let twice = Ir_opt.optimize_bytecode once in
  Alcotest.(check int) "fixpoint" (Ir_opt.static_count once) (Ir_opt.static_count twice)

(* The optimizer's analysis arrays are allocated once per call and
   reused by every pass: arrays that long skip the minor heap, so
   allocating them per pass made each call's direct major-heap
   allocation grow with its pass count. Pinned at a quarter of what
   the per-pass allocation cost (fewest words over 20 calls, x86-64):
   116,800 words on RAC and 71,200 on TCP. *)
let test_opt_alloc () =
  List.iter
    (fun (name, before) ->
      let e = Option.get (Cftcg_bench_models.Bench_models.find name) in
      let model = Lazy.force e.Cftcg_bench_models.Bench_models.model in
      let lin = L.linearize (Codegen.lower ~mode:Codegen.Full model) in
      ignore (Ir_opt.optimize_bytecode lin);
      let direct (s : Gc.stat) = s.Gc.major_words -. s.Gc.promoted_words in
      let call_words () =
        let s0 = Gc.quick_stat () in
        ignore (Sys.opaque_identity (Ir_opt.optimize_bytecode lin));
        int_of_float (direct (Gc.quick_stat ()) -. direct s0)
      in
      let words = List.fold_left min max_int (List.init 5 (fun _ -> call_words ())) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d direct major words <= %d" name words (before / 4))
        true
        (words <= before / 4))
    [ ("RAC", 116_800); ("TCP", 71_200) ]

let suites =
  [ ( "ir.opt",
      [ Alcotest.test_case "preserves fixtures" `Slow test_preserves_fixtures;
        Alcotest.test_case "preserves bench models" `Slow test_preserves_bench_models ] );
    ( "ir.opt.bytecode",
      [ Alcotest.test_case "constant folding" `Quick test_bc_constant_folding;
        Alcotest.test_case "constant branch pruned" `Quick test_bc_constant_branch;
        Alcotest.test_case "copy propagation" `Quick test_bc_copy_propagation;
        Alcotest.test_case "DCE respects roots" `Quick test_bc_dce_respects_roots;
        Alcotest.test_case "jump threading" `Quick test_bc_jump_threading;
        Alcotest.test_case "fused compare jumps" `Quick test_bc_fused_compare_jumps;
        Alcotest.test_case "fused jnz" `Quick test_bc_fused_jnz;
        Alcotest.test_case "fused f32 arithmetic" `Quick test_bc_fused_f32_arith;
        Alcotest.test_case "fused arm tails" `Quick test_bc_fused_arm_tails;
        Alcotest.test_case "probe-carrying compare jumps" `Quick test_bc_probe_compare_jumps;
        Alcotest.test_case "probe-carrying logic jumps" `Quick test_bc_probe_logic_jumps;
        Alcotest.test_case "probe dedup straight line" `Quick test_bc_probe_dedup_straight_line;
        Alcotest.test_case "probe dedup stops at join" `Quick test_bc_probe_dedup_stops_at_join;
        Alcotest.test_case "probe dedup uses branch knowledge" `Quick
          test_bc_probe_dedup_uses_branch_knowledge;
        Alcotest.test_case "liveness across a back edge" `Quick test_bc_liveness_back_edge;
        Alcotest.test_case "global copy propagation" `Quick test_bc_global_copy_prop;
        Alcotest.test_case "probe selects on edge values" `Quick test_bc_probe_selects;
        Alcotest.test_case "psel needs a sole predecessor" `Quick
          test_bc_psel_needs_sole_predecessor;
        Alcotest.test_case "dead setp keeps its probe" `Quick test_bc_dead_setp_keeps_probe;
        Alcotest.test_case "const-prop keeps a fused probe" `Quick
          test_bc_const_prop_keeps_fused_probe;
        Alcotest.test_case "shrinks bench bytecode" `Quick test_bc_shrinks_bench_models;
        Alcotest.test_case "idempotent" `Quick test_bc_idempotent ] );
    ("ir_opt.alloc", [ Alcotest.test_case "optimizer major-heap words" `Quick test_opt_alloc ]) ]
