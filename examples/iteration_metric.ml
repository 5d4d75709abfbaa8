(* The paper's Figure 6, live: run one input through a model and show
   the per-iteration branch coverage, the running total, and how the
   Iteration Difference Coverage metric accumulates.

     dune exec examples/iteration_metric.exe *)

open Cftcg_model
module B = Build
module Codegen = Cftcg_codegen.Codegen
module Layout = Cftcg_fuzz.Layout
module Ir_vm = Cftcg_ir.Ir_vm
module Hooks = Cftcg_ir.Hooks

(* A small controller with a few distinct branch cells: a saturation
   (3 regions) and a comparator (2 outcomes + condition polarity). *)
let demo_model () =
  let b = B.create "MetricDemo" in
  let u = B.inport b "u" Dtype.Int8 in
  let sat = B.saturation b ~lower:(-10.) ~upper:10. (B.convert b Dtype.Float64 u) in
  let hot = B.compare_const b Graph.R_gt 5.0 sat in
  B.outport b "sat" sat;
  B.outport b "hot" hot;
  B.finish b

let () =
  let model = demo_model () in
  let prog = Codegen.lower model in
  let layout = Layout.of_program prog in
  let n = prog.Cftcg_ir.Ir.n_probes in
  let curr = Bytes.make n '\000' in
  let hooks = Hooks.probes_only (fun id -> Bytes.set curr id '\001') in
  let vm = Ir_vm.compile ~hooks prog in
  (* the input data: one byte per iteration, swinging across regions *)
  let stream = [ 3; 20; -128; 7; 7; 0 ] in
  let data = Bytes.create (List.length stream) in
  List.iteri (fun i v -> Cftcg_util.Bytecodec.set_u8 data i (v land 0xFF)) stream;
  Printf.printf "Model has %d branch cells; input stream: %s\n\n" n
    (String.concat " " (List.map string_of_int stream));
  Printf.printf "%-6s %-12s %-*s %-*s %s\n" "iter" "input" n "current" n "total" "metric";
  let total = Bytes.make n '\000' in
  let last = Bytes.make n '\000' in
  let metric = ref 0 in
  Ir_vm.reset vm;
  List.iteri
    (fun tuple v ->
      Bytes.fill curr 0 n '\000';
      Layout.load_tuple_vm layout data ~tuple vm;
      Ir_vm.step vm;
      for i = 0 to n - 1 do
        if Bytes.get curr i <> '\000' then Bytes.set total i '\001';
        if Bytes.get curr i <> Bytes.get last i then incr metric
      done;
      let show b =
        String.init n (fun i -> if Bytes.get b i <> '\000' then 'x' else '.')
      in
      Printf.printf "%-6d %-12d %s %s %d\n" tuple v (show curr) (show total) !metric;
      Bytes.blit curr 0 last 0 n)
    stream;
  Printf.printf
    "\nIteration Difference Coverage metric: %d (Algorithm 1; Fig. 6's example totals 3+4+3)\n"
    !metric;
  Printf.printf "An input that keeps switching regions scores higher than one that settles —\n";
  Printf.printf "the fuzzer keeps such inputs in its corpus to diversify execution paths.\n"
