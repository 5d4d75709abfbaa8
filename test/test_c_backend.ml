(* C-backend differential test: compile the emitted C fuzz code with
   gcc -O2 and check it computes exactly what the reference IR
   evaluator computes over random tuple streams. This validates the
   paper's core premise — the generated C faithfully implements the
   model — end to end. Skipped when no C compiler is installed. *)

open Cftcg_model
module Codegen = Cftcg_codegen.Codegen
module Layout = Cftcg_fuzz.Layout
module Cemit = Cftcg_ir.Cemit
module Ir_eval = Cftcg_ir.Ir_eval

let gcc_available =
  lazy (Sys.command "command -v gcc > /dev/null 2>&1" = 0)

let run_command cmd =
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Ok (Buffer.contents buf)
  | Unix.WEXITED n -> Error (Printf.sprintf "exit %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "signal %d" n)

(* Expected output computed by the reference evaluator, formatted
   exactly like the C harness prints it. *)
let ocaml_reference prog layout data =
  let e = Ir_eval.create prog in
  Ir_eval.reset e;
  let buf = Buffer.create 1024 in
  for tuple = 0 to Layout.n_tuples layout data - 1 do
    Array.iteri (Ir_eval.set_input e) (Layout.load_tuple_values layout data ~tuple);
    Ir_eval.step e;
    Array.iteri
      (fun o (_ : Cftcg_ir.Ir.var) ->
        let v = Value.to_float (Ir_eval.get_output e o) in
        Buffer.add_string buf (Printf.sprintf "%.17g " v))
      prog.Cftcg_ir.Ir.outputs;
    Buffer.add_string buf "\n"
  done;
  Buffer.contents buf

let differential name m =
  if not (Lazy.force gcc_available) then ()
  else begin
    let prog = Codegen.lower ~mode:Codegen.Full m in
    let layout = Layout.of_program prog in
    let c_source = Cemit.emit_program prog ^ Cemit.emit_test_harness prog in
    let dir = Filename.temp_file "cftcg_cdiff" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o755;
    let c_path = Filename.concat dir (name ^ ".c") in
    let exe_path = Filename.concat dir (name ^ ".exe") in
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Unix.rmdir dir)
      (fun () ->
        let oc = open_out c_path in
        output_string oc c_source;
        close_out oc;
        (match
           run_command
             (Printf.sprintf "gcc -O2 -fwrapv -o %s %s -lm 2>&1" (Filename.quote exe_path)
                (Filename.quote c_path))
         with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "%s: gcc failed: %s" name msg);
        let rng = Cftcg_util.Rng.create 99L in
        for trial = 1 to 5 do
          let tuples = 10 + Cftcg_util.Rng.int rng 40 in
          let data =
            Bytes.concat Bytes.empty
              (List.init tuples (fun _ -> Layout.random_tuple_bytes layout rng))
          in
          let hex = Cftcg_util.Bytecodec.hex_of_bytes data in
          let expected = ocaml_reference prog layout data in
          match run_command (Printf.sprintf "%s %s" (Filename.quote exe_path) hex) with
          | Ok actual ->
            if String.trim actual <> String.trim expected then
              Alcotest.failf "%s: trial %d diverges\nC:     %s\nOCaml: %s" name trial
                (String.sub actual 0 (min 200 (String.length actual)))
                (String.sub expected 0 (min 200 (String.length expected)))
          | Error msg -> Alcotest.failf "%s: C binary failed: %s" name msg
        done)
  end

let test_fixtures () =
  List.iter
    (fun (name, mk) -> differential name (mk ()))
    [ ("arith", Fixtures.arith_model); ("feedback", Fixtures.feedback_model);
      ("chart", Fixtures.chart_model); ("logic", Fixtures.logic_model);
      ("enabled", Fixtures.enabled_model); ("triggered", Fixtures.triggered_model);
      ("parallel", Test_parallel_states.model) ]

let test_bench_models () =
  List.iter
    (fun (e : Cftcg_bench_models.Bench_models.entry) ->
      differential e.Cftcg_bench_models.Bench_models.name
        (Lazy.force e.Cftcg_bench_models.Bench_models.model))
    Cftcg_bench_models.Bench_models.all

let test_random_models () =
  let rng = Cftcg_util.Rng.create 2718L in
  for i = 1 to 10 do
    differential (Printf.sprintf "random%d" i) (Model_gen.generate rng)
  done

let suites =
  [ ( "cemit.gcc_differential",
      [ Alcotest.test_case "fixtures" `Slow test_fixtures;
        Alcotest.test_case "benchmark models" `Slow test_bench_models;
        Alcotest.test_case "random models" `Slow test_random_models ] ) ]
