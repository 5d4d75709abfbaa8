(* The solver's watch mask: branch-recording code records distances
   only at the If sites [Ir_vm.set_watch] names, and runs every other
   If's plain compare. Under a mask, outputs and probe sets, and the
   minima at watched sites, must equal an all-watched instance's and
   the fold of Ir_eval's [on_branch] stream bit for bit; unwatched
   sites stay unreached. Checked on the eight bench models and 40
   generated models, on optimized and unoptimized code, with the masks
   Symexec sets (target guard chains) and a few others. *)

open Cftcg_model
open Cftcg_ir
module Codegen = Cftcg_codegen.Codegen
module Guards = Cftcg_symexec.Guards
module Layout = Cftcg_fuzz.Layout
module Models = Cftcg_bench_models.Bench_models
module Rng = Cftcg_util.Rng

let full m = Codegen.lower ~mode:Codegen.Full m

(* bit for bit: -0.0 is not 0.0, a NaN equals only the same NaN —
   between two VM runs *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* against Ir_eval, whose boxed arithmetic may pick another NaN
   payload: any NaN equals any NaN *)
let same_value a b = same_bits a b || (Float.is_nan a && Float.is_nan b)

type run = {
  outputs : float array array;  (* per step, per outport *)
  fired : Bytes.t;  (* probes fired over init and every step *)
  reached : Bytes.t;
  min_dt : float array;
  min_df : float array;
}

let snapshot (vm : Ir_vm.t) outputs =
  let br = Ir_vm.branches vm in
  {
    outputs;
    fired = Bytes.copy (Ir_vm.probes vm).Ir_vm.p_fired;
    reached = Bytes.copy br.Ir_vm.b_reached;
    min_dt = Array.copy br.Ir_vm.b_min_dt;
    min_df = Array.copy br.Ir_vm.b_min_df;
  }

let raw_outputs prog vm =
  Array.map (fun (v : Ir.var) -> Ir_vm.read_raw vm v.Ir.vid) prog.Ir.outputs

(* [from..steps-1] of [data] on the VM as it stands *)
let run_steps prog layout data vm ~from ~steps =
  Array.init (steps - from) (fun k ->
      Layout.load_tuple_vm layout data ~tuple:(from + k) vm;
      Ir_vm.step vm;
      raw_outputs prog vm)

(* reset, then every step; [before_reset] / [after_reset] place the
   mask on either side of the reset *)
let run_vm ?(before_reset = ignore) ?(after_reset = ignore) prog layout data steps code =
  let vm = Ir_vm.of_code code in
  before_reset vm;
  Ir_vm.reset vm;
  after_reset vm;
  let outputs = run_steps prog layout data vm ~from:0 ~steps in
  snapshot vm outputs

(* Ir_eval's outputs, probes and on_branch stream folded into minima
   the way the VM's branch record folds them *)
let run_eval prog layout data steps n_sites =
  let fired = Bytes.make (max prog.Ir.n_probes 1) '\000' in
  let reached = Bytes.make n_sites '\000' in
  let min_dt = Array.make n_sites Float.infinity and min_df = Array.make n_sites Float.infinity in
  let hooks =
    {
      Hooks.none with
      Hooks.on_probe = Some (fun id -> Bytes.set fired id '\001');
      on_branch =
        Some
          (fun ix _ dt df ->
            Bytes.set reached ix '\001';
            if dt < min_dt.(ix) then min_dt.(ix) <- dt;
            if df < min_df.(ix) then min_df.(ix) <- df);
    }
  in
  let e = Ir_eval.create prog in
  Ir_eval.reset ~hooks e;
  let outputs =
    Array.init steps (fun tuple ->
        Array.iteri (fun i v -> Ir_eval.set_input e i v) (Layout.load_tuple_values layout data ~tuple);
        Ir_eval.step ~hooks e;
        Array.mapi (fun i _ -> Value.to_float (Ir_eval.get_output e i)) prog.Ir.outputs)
  in
  { outputs; fired; reached; min_dt; min_df }

let check_outputs ?(eq = same_bits) ctx (want : run) (got : run) =
  Array.iteri
    (fun t row ->
      Array.iteri
        (fun o f ->
          if not (eq f got.outputs.(t).(o)) then
            Alcotest.failf "%s: step %d output %d is %h, want %h" ctx t o got.outputs.(t).(o) f)
        row)
    want.outputs;
  if not (Bytes.equal want.fired got.fired) then Alcotest.failf "%s: probe sets differ" ctx

(* watched sites equal [want]'s minima; unwatched ones equal [idle]'s *)
let check_sites ?(eq = same_bits) ctx ~watched (want : run) (idle : run) (got : run) =
  for ix = 0 to Bytes.length got.reached - 1 do
    let ref_ = if watched ix then want else idle in
    if
      Bytes.get ref_.reached ix <> Bytes.get got.reached ix
      || (not (eq ref_.min_dt.(ix) got.min_dt.(ix)))
      || not (eq ref_.min_df.(ix) got.min_df.(ix))
    then
      Alcotest.failf "%s: If %d (%s) reached %b min (%h, %h), want %b (%h, %h)" ctx ix
        (if watched ix then "watched" else "unwatched")
        (Bytes.get got.reached ix <> '\000')
        got.min_dt.(ix) got.min_df.(ix)
        (Bytes.get ref_.reached ix <> '\000')
        ref_.min_dt.(ix) ref_.min_df.(ix)
  done

(* the masks to try: up to six distinct target chains (deepest
   first, the ones the solver spends longest on), no site, every
   other site *)
let masks chains =
  let distinct =
    Array.to_list chains
    |> List.map (fun chain -> List.sort_uniq compare (List.map fst chain))
    |> List.sort_uniq compare
    |> List.sort (fun a b -> compare (List.length b) (List.length a))
  in
  let chain_masks = List.filteri (fun i _ -> i < 6) distinct in
  List.map (fun sites ix -> List.mem ix sites) chain_masks
  @ [ (fun _ -> false); (fun ix -> ix mod 2 = 1) ]

let steps = 12

let check_program (name, prog) =
  let layout = Layout.of_program prog in
  if layout.Layout.tuple_len > 0 then begin
    let rng = Rng.create 97L in
    let data = Bytes.concat Bytes.empty (List.init steps (fun _ -> Layout.random_tuple_bytes layout rng)) in
    let chains = Guards.probe_chains prog in
    List.iter
      (fun optimize ->
        let code = Ir_vm.prepare ~optimize ~branches:true prog in
        let ctx = Printf.sprintf "%s opt=%b" name optimize in
        let all = run_vm prog layout data steps code in
        let n_sites = Bytes.length all.reached in
        let eval = run_eval prog layout data steps n_sites in
        check_outputs ~eq:same_value (ctx ^ " all-watched vs eval") eval all;
        check_sites ~eq:same_value (ctx ^ " all-watched vs eval") ~watched:(fun _ -> true) eval eval
          all;
        (* what init alone records with every site watched *)
        let after_init =
          let vm = Ir_vm.of_code code in
          Ir_vm.reset vm;
          snapshot vm [||]
        in
        let never =
          {
            all with
            reached = Bytes.make n_sites '\000';
            min_dt = Array.make n_sites Float.infinity;
            min_df = Array.make n_sites Float.infinity;
          }
        in
        List.iteri
          (fun k watched ->
            let ctx = Printf.sprintf "%s mask %d" ctx k in
            let set vm = Ir_vm.set_watch vm watched in
            let before = run_vm ~before_reset:set prog layout data steps code in
            check_outputs (ctx ^ " set before reset") all before;
            check_sites (ctx ^ " set before reset vs all-watched") ~watched all never before;
            check_sites ~eq:same_value (ctx ^ " set before reset vs eval") ~watched eval never before;
            (* set after a reset that ran init watching every site:
               the steps record only the mask's sites *)
            let after = run_vm ~after_reset:set prog layout data steps code in
            check_outputs (ctx ^ " set after reset") all after;
            check_sites (ctx ^ " set after reset") ~watched all after_init after;
            (* a state saved under the mask brings it back: resume the
               second half after watching every site in between *)
            let vm = Ir_vm.of_code code in
            set vm;
            Ir_vm.reset vm;
            let half = steps / 2 in
            let first = run_steps prog layout data vm ~from:0 ~steps:half in
            let st = Ir_vm.fresh_state vm in
            Ir_vm.save_state vm st;
            Ir_vm.set_watch vm (fun _ -> true);
            Ir_vm.reset vm;
            ignore (run_steps prog layout data vm ~from:0 ~steps);
            Ir_vm.restore_state vm st;
            let second = run_steps prog layout data vm ~from:half ~steps in
            let resumed = snapshot vm (Array.append first second) in
            check_outputs (ctx ^ " resumed") { all with fired = resumed.fired } resumed;
            check_sites (ctx ^ " resumed") ~watched all never resumed)
          (masks chains))
      [ false; true ]
  end

let test_bench_models () =
  List.iter
    (fun (e : Models.entry) -> check_program (e.Models.name, full (Lazy.force e.Models.model)))
    Models.all

let test_random_models () =
  let rng = Rng.create 2811L in
  for i = 0 to 39 do
    check_program (Printf.sprintf "random%d" i, full (Model_gen.generate rng))
  done

(* probe-only code has no watch registers: the mask is a no-op *)
let test_probe_only_unaffected () =
  let prog = full (Lazy.force (List.hd Models.all).Models.model) in
  let vm = Ir_vm.of_code (Ir_vm.prepare prog) in
  Ir_vm.set_watch vm (fun _ -> false);
  Ir_vm.reset vm;
  Alcotest.(check int) "no sites" 0 (Bytes.length (Ir_vm.branches vm).Ir_vm.b_reached)

let suites =
  [ ( "symexec.watch",
      [ Alcotest.test_case "bench models" `Quick test_bench_models;
        Alcotest.test_case "random models" `Quick test_random_models;
        Alcotest.test_case "probe-only code" `Quick test_probe_only_unaffected ] ) ]
