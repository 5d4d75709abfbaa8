open Cftcg_ir
module Recorder = Cftcg_coverage.Recorder
module Layout = Cftcg_fuzz.Layout

(* Every scoring and replay path runs unoptimized code: with the
   optimizer on, reading back a scratch variable may see a stale
   value. *)
let compile ?hooks prog = Ir_vm.compile ?hooks ~optimize:false prog

let recording prog =
  let recorder = Recorder.create prog in
  (Layout.of_program prog, recorder, compile ~hooks:(Recorder.hooks recorder) prog)

let record ?(max_tuples = 4096) (prog : Ir.program) suite =
  let layout, recorder, vm = recording prog in
  List.iter (Layout.run_case layout vm ~max_tuples) suite;
  recorder

let replay ?max_tuples prog suite = Recorder.report (record ?max_tuples prog suite)

let signal_ranges ?(max_tuples = 4096) (prog : Ir.program) suite =
  let layout = Layout.of_program prog in
  let vm = compile prog in
  let watched = Array.append prog.Ir.outputs prog.Ir.states in
  let mins = Array.make (Array.length watched) Float.infinity in
  let maxs = Array.make (Array.length watched) Float.neg_infinity in
  let observe () =
    Array.iteri
      (fun i (v : Ir.var) ->
        let x = Ir_vm.read_raw vm v.Ir.vid in
        if x < mins.(i) then mins.(i) <- x;
        if x > maxs.(i) then maxs.(i) <- x)
      watched
  in
  List.iter (Layout.run_case ~observe layout vm ~max_tuples) suite;
  Array.to_list
    (Array.mapi
       (fun i (v : Ir.var) ->
         if Float.is_finite mins.(i) then (v.Ir.vname, mins.(i), maxs.(i))
         else (v.Ir.vname, 0.0, 0.0))
       watched)

let decision_series ?(max_tuples = 4096) (prog : Ir.program) timed_suite =
  let layout, recorder, vm = recording prog in
  let sorted = List.sort (fun (_, a) (_, b) -> Float.compare a b) timed_suite in
  List.map
    (fun (data, time) ->
      Layout.run_case layout vm ~max_tuples data;
      (time, (Recorder.report recorder).Recorder.decision_pct))
    sorted
