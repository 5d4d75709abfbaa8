(* Parent-prefix resume: a child run from its parent's saved
   trajectory must give exactly what a run of the same child from
   reset gives — metric, fresh count, fresh cells in order, iterations
   and the coverage bytes afterwards. Checked on the eight benchmark
   models and 40 generated models, on optimized and unoptimized code,
   at the default [max_tuples] and at a cap shorter than most inputs.
   Also pins that executing an input allocates the same few words
   whatever its length. *)

open Cftcg_model
open Cftcg_ir
module Codegen = Cftcg_codegen.Codegen
module Models = Cftcg_bench_models.Bench_models
module Fuzzer = Cftcg_fuzz.Fuzzer
module Layout = Cftcg_fuzz.Layout
module Mutate = Cftcg_fuzz.Mutate
module Rng = Cftcg_util.Rng

let bench_prog name =
  let e = Option.get (Models.find name) in
  (Cftcg.Pipeline.generate (Lazy.force e.Models.model)).Cftcg.Pipeline.program

let random_stream layout rng n =
  Bytes.concat Bytes.empty (List.init n (fun _ -> Layout.random_tuple_bytes layout rng))

let specials = [ Float.nan; Float.infinity; Float.neg_infinity; -0.0 ]

(* a copy of [data] with float field [field] of tuple [tuple] set to [v] *)
let with_float layout data ~tuple ~field v =
  let d = Bytes.copy data in
  let ty = layout.Layout.fields.(field).Layout.f_ty in
  Layout.set_field layout d ~tuple ~field (Value.of_float ty v);
  d

(* Runs every check for one program and code at one [max_tuples];
   returns (children run, children resumed past step 0). *)
let check_program ~label ~code ~max_tuples prog rng =
  let layout = Layout.of_program prog in
  let tl = layout.Layout.tuple_len in
  let n_probes = max prog.Ir.n_probes 1 in
  let ga = Bytes.make n_probes '\000' and gb = Bytes.make n_probes '\000' in
  let make g_total = Fuzzer.executor ~code ~layout ~prog ~g_total ~max_tuples ~use_metric:true () in
  let xa = make ga and xb = make gb in
  let run_both what data =
    let ca = ref [] and cb = ref [] in
    let ra = Fuzzer.exec xa ~fresh_cells:ca data in
    let rb = Fuzzer.exec xb ~fresh_cells:cb data in
    Alcotest.(check (triple int int int)) (label ^ what) rb ra;
    Alcotest.(check (list int)) (label ^ what ^ " cells") !cb !ca
  in
  let children = ref 0 and resumed = ref 0 in
  let check_child what ~parent traj child =
    let ca = ref [] and cb = ref [] in
    let start = Fuzzer.resume_step xa ~parent traj child in
    let ra = Fuzzer.exec_child xa ~fresh_cells:ca ~parent traj child in
    let rb = Fuzzer.exec xb ~fresh_cells:cb child in
    let what = Printf.sprintf "%s %s (resumed at %d)" label what start in
    Alcotest.(check (triple int int int)) what rb ra;
    Alcotest.(check (list int)) (what ^ ": fresh cells") !cb !ca;
    Alcotest.(check string) (what ^ ": coverage") (Bytes.to_string gb) (Bytes.to_string ga);
    incr children;
    if start > 0 then incr resumed
  in
  let floats = layout.Layout.float_fields in
  for p = 0 to 3 do
    (* parents of 2 to 70 tuples: short ones keep a checkpoint per
       step, long ones one per few steps *)
    let n = if p = 3 then 40 + Rng.int rng 31 else 2 + Rng.int rng 20 in
    let parent = random_stream layout rng n in
    (* special float values inside the shared prefix *)
    let parent =
      if Array.length floats = 0 then parent
      else
        List.fold_left
          (fun d v ->
            with_float layout d ~tuple:(Rng.int rng n) ~field:(Rng.choose rng floats) v)
          parent specials
    in
    run_both " parent" parent;
    let traj = Fuzzer.record xa parent in
    (* another input in between leaves the VM in an unrelated state *)
    run_both " other" (random_stream layout rng (1 + Rng.int rng 6));
    let other = random_stream layout rng (1 + Rng.int rng 8) in
    let child what c = check_child what ~parent traj c in
    child "identical" (Bytes.copy parent);
    child "strict prefix" (Bytes.sub parent 0 ((1 + Rng.int rng (n - 1)) * tl));
    child "longer" (Bytes.cat parent (random_stream layout rng (1 + Rng.int rng 4)));
    for _ = 1 to 16 do
      child "mutated" (snd (Mutate.mutate layout rng parent ~other ~max_tuples))
    done;
    for _ = 1 to 4 do
      child "blind" (Mutate.mutate_blind rng parent ~other ~max_len:(max_tuples * tl))
    done;
    (* a ragged tail: the child's last tuple is cut short *)
    child "ragged tail"
      (Bytes.sub parent 0 ((Bytes.length parent) - 1 - Rng.int rng (max 1 (tl - 1))));
    if Array.length floats > 0 then
      List.iter
        (fun v ->
          let tuple = 1 + Rng.int rng (n - 1) in
          child (Printf.sprintf "%h at tuple %d" v tuple)
            (with_float layout parent ~tuple ~field:(Rng.choose rng floats) v))
        (* -0.0 where the parent has +0.0 and vice versa differ in bytes *)
        (0.0 :: specials)
  done;
  (!children, !resumed)

let check_all ~label progs =
  let rng = Rng.create 4242L in
  let children = ref 0 and resumed = ref 0 in
  List.iteri
    (fun i prog ->
      List.iter
        (fun (opt, code) ->
          List.iter
            (fun max_tuples ->
              let c, r =
                check_program
                  ~label:(Printf.sprintf "%s %d %s max_tuples=%d" label i opt max_tuples)
                  ~code ~max_tuples prog rng
              in
              children := !children + c;
              resumed := !resumed + r)
            [ Fuzzer.default_config.Fuzzer.max_tuples; 4 ])
        [ ("opt", Ir_vm.prepare prog); ("unopt", Ir_vm.prepare ~optimize:false prog) ])
    progs;
  (* the resumed path is what is under test: most children take it *)
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d children resumed" !resumed !children)
    true
    (2 * !resumed > !children)

let test_bench_models () =
  check_all ~label:"bench" (List.map (fun (e : Models.entry) -> bench_prog e.Models.name) Models.all)

let test_random_models () =
  let rng = Rng.create 8191L in
  check_all ~label:"random" (List.init 40 (fun _ -> Codegen.lower (Model_gen.generate rng)))

(* [Fuzzer.record] refuses an input that never ran against the
   executor's coverage bytes *)
let test_record_needs_a_run () =
  let prog = bench_prog "TCP" in
  let layout = Layout.of_program prog in
  let g_total = Bytes.make prog.Ir.n_probes '\000' in
  let x = Fuzzer.executor ~layout ~prog ~g_total ~max_tuples:256 ~use_metric:true () in
  let data = random_stream layout (Rng.create 5L) 6 in
  Alcotest.check_raises "never ran" (Invalid_argument "Fuzzer.record: the input had not run against this coverage")
    (fun () -> ignore (Fuzzer.record x data))

(* ---- allocation ---------------------------------------------------- *)

let words_per_exec f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 50 do
    f ()
  done;
  (Gc.minor_words () -. w0) /. 50.

(* Words per execution must not grow with the number of tuples: the
   decode of a tuple, a VM step and Algorithm 1's accounting allocate
   nothing, from reset and resumed alike. *)
let test_words_flat () =
  List.iter
    (fun (e : Models.entry) ->
      let prog = bench_prog e.Models.name in
      let layout = Layout.of_program prog in
      let rng = Rng.create 77L in
      let g_total = Bytes.make (max prog.Ir.n_probes 1) '\000' in
      let x = Fuzzer.executor ~layout ~prog ~g_total ~max_tuples:256 ~use_metric:true () in
      let fresh_cells = ref [] in
      let exec data () =
        fresh_cells := [];
        ignore (Sys.opaque_identity (Fuzzer.exec x ~fresh_cells data))
      in
      let w1 = words_per_exec (exec (random_stream layout rng 1)) in
      List.iter
        (fun n ->
          let parent = random_stream layout rng n in
          let w = words_per_exec (exec parent) in
          Alcotest.(check (float 0.0)) (Printf.sprintf "%s: %d tuples" e.Models.name n) w1 w;
          let traj = Fuzzer.record x parent in
          let child = Bytes.cat parent (random_stream layout rng n) in
          exec child ();
          let resumed () =
            fresh_cells := [];
            ignore (Sys.opaque_identity (Fuzzer.exec_child x ~fresh_cells ~parent traj child))
          in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s: %d tuples resumed at %d" e.Models.name (2 * n) n)
            w1 (words_per_exec resumed))
        [ 16; 64 ])
    Models.all

(* [Ir_vm.load_input] decodes as the boxed [Value.decode] does, bit
   for bit, for every dtype and any bytes *)
let test_load_input () =
  let prog = bench_prog "SolarPV" in
  let vm = Ir_vm.of_code (Ir_vm.prepare prog) in
  let vid = prog.Ir.inputs.(0).Ir.vid in
  let rng = Rng.create 99L in
  let data = Bytes.create 16 in
  List.iter
    (fun ty ->
      for _ = 1 to 200 do
        Bytes.iteri (fun i _ -> Bytes.set_uint8 data i (Rng.int rng 256)) data;
        let off = Rng.int rng (16 - Dtype.size_bytes ty + 1) in
        Ir_vm.load_input vm 0 ty data off;
        Alcotest.(check int64) (Dtype.name ty)
          (Int64.bits_of_float (Value.to_float (Value.decode ty data off)))
          (Int64.bits_of_float (Ir_vm.read_raw vm vid))
      done)
    Dtype.[ Bool; Int8; UInt8; Int16; UInt16; Int32; UInt32; Float32; Float64 ]

let suites =
  [ ( "fuzz.resume",
      [ Alcotest.test_case "bench models" `Quick test_bench_models;
        Alcotest.test_case "random models" `Quick test_random_models;
        Alcotest.test_case "record needs a run" `Quick test_record_needs_a_run ] );
    ( "fuzz.alloc",
      [ Alcotest.test_case "words per exec flat in tuples" `Quick test_words_flat;
        Alcotest.test_case "load_input = to_float . decode" `Quick test_load_input ] ) ]
