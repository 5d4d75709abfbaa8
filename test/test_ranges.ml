(* Tests for tester-specified inport value ranges (paper §5). *)

open Cftcg_model
module B = Build
module Codegen = Cftcg_codegen.Codegen
module Fuzzer = Cftcg_fuzz.Fuzzer
module Layout = Cftcg_fuzz.Layout
module Mutate = Cftcg_fuzz.Mutate
module Recorder = Cftcg_coverage.Recorder
module Rng = Cftcg_util.Rng

(* Opcode dispatch: only values 0..4 select real handlers; a huge
   int32 space otherwise (the paper's "int32 used for 0..32768"
   observation). *)
let opcode_model () =
  let b = B.create "Opcode" in
  let op = B.inport b "Op" Dtype.Int32 in
  let arg = B.inport b "Arg" Dtype.Int32 in
  let clamped = B.saturation b ~lower:1. ~upper:5. (B.bias b 1.0 op) in
  let y =
    B.multiport_switch b clamped
      [ B.gain b 2. arg; B.gain b (-1.) arg; B.bias b 7. arg; B.abs_ b arg;
        B.const_f b 0. ]
  in
  B.outport b "y" y;
  B.finish b

let in_range layout data =
  let ok = ref true in
  for tuple = 0 to Layout.n_tuples layout data - 1 do
    Array.iteri
      (fun field (f : Layout.field) ->
        match f.Layout.f_range with
        | None -> ()
        | Some (lo, hi) ->
          let x = Value.to_float (Layout.field_value layout data ~tuple ~field) in
          if x < lo || x > hi then ok := false)
      layout.Layout.fields
  done;
  !ok

let test_random_tuples_respect_ranges () =
  let layout =
    Layout.with_ranges
      (Layout.of_inports [| ("Op", Dtype.Int32); ("Arg", Dtype.Int32) |])
      [ ("Op", 0., 4.); ("Arg", -100., 100.) ]
  in
  let rng = Rng.create 3L in
  for _ = 1 to 500 do
    Alcotest.(check bool) "tuple in range" true (in_range layout (Layout.random_tuple_bytes layout rng))
  done

let test_field_mutations_respect_ranges () =
  let layout =
    Layout.with_ranges
      (Layout.of_inports [| ("Op", Dtype.Int32); ("Arg", Dtype.Int32) |])
      [ ("Op", 0., 4.) ]
  in
  let rng = Rng.create 4L in
  let data = ref (Layout.random_tuple_bytes layout rng) in
  for _ = 1 to 2000 do
    (* only the value strategies write into fields *)
    let s = if Rng.bool rng then Mutate.Change_binary_integer else Mutate.Change_binary_float in
    data := Mutate.apply layout rng s !data ~other:!data ~max_tuples:16;
    (* check the constrained field only: structural strategies insert
       range-respecting fresh tuples *)
    for tuple = 0 to Layout.n_tuples layout !data - 1 do
      let x = Value.to_float (Layout.field_value layout !data ~tuple ~field:0) in
      Alcotest.(check bool) "Op stays in 0..4" true (x >= 0. && x <= 4.)
    done
  done

let test_with_ranges_validation () =
  let layout = Layout.of_inports [| ("a", Dtype.Int8) |] in
  (match Layout.with_ranges layout [ ("a", 5., 1.) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inverted range accepted");
  List.iter
    (fun (lo, hi) ->
      match Layout.with_ranges layout [ ("a", lo, hi) ] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "range %g:%g accepted" lo hi)
    [ (Float.nan, 5.); (0., Float.nan); (Float.neg_infinity, 5.); (0., Float.infinity);
      (Float.neg_infinity, Float.infinity) ];
  (* a range on no inport constrains nothing, so it is an error *)
  Alcotest.check_raises "unknown rejected"
    (Invalid_argument "Layout.with_ranges: nope: no such inport")
    (fun () -> ignore (Layout.with_ranges layout [ ("nope", 0., 1.) ]));
  (* and a campaign refuses it at start, before any worker runs *)
  let module Campaign = Cftcg_campaign.Campaign in
  let prog = Codegen.lower (opcode_model ()) in
  let fuzzer = { Fuzzer.default_config with Fuzzer.ranges = [ ("Op", 0., 4.); ("nope", 0., 1.) ] } in
  Alcotest.check_raises "campaign rejects it"
    (Invalid_argument "Layout.with_ranges: nope: no such inport")
    (fun () -> ignore (Campaign.start ~config:{ Campaign.default_config with Campaign.fuzzer } prog))

let coverage_with ranges seed execs =
  let prog = Codegen.lower (opcode_model ()) in
  (* dictionary off so the comparison isolates the range constraint *)
  let config = { Fuzzer.default_config with Fuzzer.seed; ranges; use_dictionary = false } in
  let r = Fuzzer.run ~config prog (Fuzzer.Exec_budget execs) in
  let suite = List.map (fun (tc : Fuzzer.test_case) -> tc.Fuzzer.tc_data) r.Fuzzer.test_suite in
  (Cftcg.Evaluate.replay prog suite).Recorder.decision_pct

let test_ranges_speed_up_opcode_coverage () =
  (* averaged over seeds: constraining the opcode makes the tiny
     budget sufficient *)
  let seeds = [ 1L; 2L; 3L; 4L; 5L ] in
  let avg f = List.fold_left (fun a s -> a +. f s) 0. seeds /. 5. in
  let unconstrained = avg (fun s -> coverage_with [] s 60) in
  let constrained = avg (fun s -> coverage_with [ ("Op", 0., 4.) ] s 60) in
  Alcotest.(check bool)
    (Printf.sprintf "constrained (%.0f%%) >= unconstrained (%.0f%%)" constrained unconstrained)
    true
    (constrained >= unconstrained)

let test_ranged_campaign_outputs_in_range () =
  let prog = Codegen.lower (opcode_model ()) in
  let ranges = [ ("Op", 0., 4.); ("Arg", -50., 50.) ] in
  let config = { Fuzzer.default_config with Fuzzer.seed = 8L; ranges } in
  let r = Fuzzer.run ~config prog (Fuzzer.Exec_budget 2000) in
  let layout = Layout.with_ranges (Layout.of_program prog) ranges in
  List.iter
    (fun (tc : Fuzzer.test_case) ->
      Alcotest.(check bool) "test case in range" true (in_range layout tc.Fuzzer.tc_data))
    r.Fuzzer.test_suite

let suites =
  [ ( "fuzz.ranges",
      [ Alcotest.test_case "random tuples" `Quick test_random_tuples_respect_ranges;
        Alcotest.test_case "field mutations" `Quick test_field_mutations_respect_ranges;
        Alcotest.test_case "validation" `Quick test_with_ranges_validation;
        Alcotest.test_case "speeds up opcode coverage" `Slow test_ranges_speed_up_opcode_coverage;
        Alcotest.test_case "campaign outputs in range" `Quick test_ranged_campaign_outputs_in_range
      ] ) ]
