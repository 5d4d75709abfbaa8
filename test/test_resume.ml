(* Parent-prefix resume and suffix rejoin: a child run from its
   parent's saved trajectory, and stopped where it rejoins it, must
   give exactly what a run of the same child from reset gives —
   metric, fresh count, fresh cells in order, iterations and the
   coverage bytes afterwards. Checked on the eight benchmark models
   and 40 generated models, on optimized and unoptimized code, at the
   default [max_tuples] and at a cap shorter than most inputs, and on
   a hand-built unit delay where a rejoin must not fire. Also pins
   that executing an input allocates the same few words whatever its
   length. *)

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

(* tuples [i, j) of [data] *)
let tuples tl data i j = Bytes.sub data (i * tl) ((j - i) * tl)

(* [data] with [chunk] inserted before tuple [i] *)
let insert tl data i chunk =
  Bytes.concat Bytes.empty [ tuples tl data 0 i; chunk; tuples tl data i (Bytes.length data / tl) ]

(* [data] with one field of tuple [i] rewritten from a random tuple *)
let with_field layout rng data i =
  let f = layout.Layout.fields.(Rng.int rng (Array.length layout.Layout.fields)) in
  let at = (i * layout.Layout.tuple_len) + f.Layout.f_offset in
  let d = Bytes.copy data in
  Bytes.blit (Layout.random_tuple_bytes layout rng) f.Layout.f_offset d at
    (Dtype.size_bytes f.Layout.f_ty);
  d

(* Runs every check for one program and code at one [max_tuples];
   returns (children run, children resumed past step 0, children
   sharing a tail with their parent, of those the ones that
   rejoined). *)
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
  let children = ref 0 and resumed = ref 0 and tails = ref 0 and rejoined = ref 0 in
  let check_child ?(tail = false) what ~parent traj child =
    let ca = ref [] and cb = ref [] in
    let start = Fuzzer.resume_step xa ~parent traj child in
    let ra = Fuzzer.exec_child xa ~fresh_cells:ca ~parent traj child in
    let rb = Fuzzer.exec xb ~fresh_cells:cb child in
    let what = Printf.sprintf "%s %s (resumed at %d)" label what start in
    Alcotest.(check (triple int int int)) what rb ra;
    Alcotest.(check (list int)) (what ^ ": fresh cells") !cb !ca;
    Alcotest.(check string) (what ^ ": coverage") (Bytes.to_string gb) (Bytes.to_string ga);
    incr children;
    if start > 0 then incr resumed;
    if tail then incr tails;
    if tail && Fuzzer.rejoined xa > 0 then incr rejoined
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
    let tail what c = check_child ~tail:true what ~parent traj c in
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
        (0.0 :: specials);
    (* children that keep the parent's tail, shifted by the tuples
       they insert or erase *)
    let at () = Rng.int rng (n + 1) in
    for _ = 1 to 3 do
      tail "field changed" (with_field layout rng parent (Rng.int rng n))
    done;
    tail "tuple inserted" (insert tl parent (at ()) (random_stream layout rng 1));
    (let t = Layout.random_tuple_bytes layout rng in
     let repeats = Bytes.concat Bytes.empty (List.init (2 + Rng.int rng 5) (fun _ -> t)) in
     tail "repeats inserted" (insert tl parent (at ()) repeats));
    (let i = Rng.int rng n in
     let r = 1 + Rng.int rng (n - i) in
     tail "tuples erased"
       (Bytes.cat (tuples tl parent 0 i) (tuples tl parent (min n (i + r)) n)));
    (let a = Rng.int rng n in
     let chunk = tuples tl parent a (a + 1 + Rng.int rng (n - a)) in
     tail "chunk copied" (insert tl parent (at ()) chunk));
    (* the parent is the child's whole tail: the child's first steps
       map onto no parent step *)
    tail "parent as tail" (Bytes.cat (random_stream layout rng (1 + Rng.int rng 4)) parent);
    (* a field change in a child that [max_tuples] cuts *)
    tail "cut by max_tuples"
      (Bytes.cat
         (with_field layout rng parent (Rng.int rng (min n max_tuples)))
         (random_stream layout rng (max_tuples + 1)))
  done;
  (!children, !resumed, !tails, !rejoined)

let check_all ~label progs =
  let rng = Rng.create 4242L in
  let children = ref 0 and resumed = ref 0 and tails = ref 0 and rejoined = ref 0 in
  List.iteri
    (fun i prog ->
      List.iter
        (fun (opt, code) ->
          List.iter
            (fun max_tuples ->
              let c, r, t, j =
                check_program
                  ~label:(Printf.sprintf "%s %d %s max_tuples=%d" label i opt max_tuples)
                  ~code ~max_tuples prog rng
              in
              children := !children + c;
              resumed := !resumed + r;
              tails := !tails + t;
              rejoined := !rejoined + j)
            [ Fuzzer.default_config.Fuzzer.max_tuples; 4 ])
        [ ("opt", Ir_vm.prepare prog); ("unopt", Ir_vm.prepare ~optimize:false prog) ])
    progs;
  (* the resumed path is what is under test: most children take it *)
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d children resumed" !resumed !children)
    true
    (2 * !resumed > !children);
  (* and so is the rejoin: about a quarter of the tail-sharing
     children rejoin (bench 287 of 1152, random 1318 of 5760) *)
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d tail-sharing children rejoined" !rejoined !tails)
    true
    (6 * !rejoined > !tails)

let test_bench_models () =
  check_all ~label:"bench" (List.map (fun (e : Models.entry) -> bench_prog e.Models.name) Models.all)

let test_random_models () =
  let rng = Rng.create 8191L in
  check_all ~label:"random" (List.init 40 (fun _ -> Codegen.lower (Model_gen.generate rng)))

(* ---- where a rejoin must not fire --------------------------------- *)

(* A unit delay: [z] carries the last step's input [u], and each step
   fires probe 0 when [1 / z < 0], else probe 1, before storing [u].
   The IR's division is total (1 / ±0.0 = 0), so no probe tells -0.0
   from +0.0; the checks below pin the rejoin decision itself. *)
let delay_program () =
  let u = { Ir.vid = 0; vname = "u"; vty = Dtype.Float64 } in
  let z = { Ir.vid = 1; vname = "z"; vty = Dtype.Float64 } in
  let f = Ir.float_const Dtype.Float64 in
  { Ir.prog_name = "delay"; n_vars = 2; inputs = [| u |]; outputs = [||]; states = [| z |];
    init = [ Ir.Assign (z, f 0.0) ];
    step =
      [ Ir.If
          { cond =
              Ir.Binop
                ( Ir.B_lt,
                  Dtype.Float64,
                  Ir.Binop (Ir.B_div, Dtype.Float64, f 1.0, Ir.Read z),
                  f 0.0 );
            dec = None; then_ = [ Ir.Probe 0 ]; else_ = [ Ir.Probe 1 ] };
        Ir.Assign (z, Ir.Read u) ];
    n_probes = 2; decisions = [||]; assertions = [||]; lookup_tables = [||] }

let floats_input layout vs =
  let d = Bytes.make (List.length vs * layout.Layout.tuple_len) '\000' in
  List.iteri
    (fun tuple v -> Layout.set_field layout d ~tuple ~field:0 (Value.of_float Dtype.Float64 v))
    vs;
  d

let nan_a = Int64.float_of_bits 0x7ff8000000000001L
let nan_b = Int64.float_of_bits 0x7ff8000000000002L

(* Each child differs from its parent in tuple 1 only and shares the
   rest, so it resumes at step 1 and may rejoin from step 1 on. It
   must rejoin at the stated step, no earlier, and still equal its
   run from reset. *)
let test_no_early_rejoin () =
  let prog = delay_program () in
  (match Ir.validate prog with Ok () -> () | Error e -> Alcotest.fail e);
  let layout = Layout.of_program prog in
  List.iter
    (fun (opt, code) ->
      List.iter
        (fun (what, p1, c1, step) ->
          let ga = Bytes.make 2 '\000' and gb = Bytes.make 2 '\000' in
          let make g_total =
            Fuzzer.executor ~code ~layout ~prog ~g_total ~max_tuples:256 ~use_metric:true ()
          in
          let xa = make ga and xb = make gb in
          let parent = floats_input layout [ 1.0; p1; 1.0; 1.0; 1.0; 1.0 ] in
          let child = floats_input layout [ 1.0; c1; 1.0; 1.0; 1.0; 1.0 ] in
          let label = Printf.sprintf "%s %s" opt what in
          ignore (Fuzzer.exec xa ~fresh_cells:(ref []) parent);
          ignore (Fuzzer.exec xb ~fresh_cells:(ref []) parent);
          let traj = Fuzzer.record xa parent in
          let ca = ref [] and cb = ref [] in
          let ra = Fuzzer.exec_child xa ~fresh_cells:ca ~parent traj child in
          let rb = Fuzzer.exec xb ~fresh_cells:cb child in
          Alcotest.(check (triple int int int)) label rb ra;
          Alcotest.(check (list int)) (label ^ ": fresh cells") !cb !ca;
          Alcotest.(check string) (label ^ ": coverage") (Bytes.to_string gb) (Bytes.to_string ga);
          Alcotest.(check int) (label ^ ": rejoined after step " ^ string_of_int step) (5 - step)
            (Fuzzer.rejoined xa))
        [ (* the registers differ only in the sign of a zero *)
          ("-0.0 against +0.0", 0.0, -0.0, 2);
          ("+0.0 against -0.0", -0.0, 0.0, 2);
          (* or in a NaN's payload *)
          ("NaN payloads", nan_a, nan_b, 2);
          (* step 2's registers match, but its probe does not *)
          ("probe bits differ", 1.0, -1.0, 3) ])
    [ ("opt", Ir_vm.prepare prog); ("unopt", Ir_vm.prepare ~optimize:false prog) ]

(* [Ir_vm.carried_equal] compares bit for bit *)
let test_carried_equal () =
  let prog = delay_program () in
  let layout = Layout.of_program prog in
  let vm = Ir_vm.of_code (Ir_vm.prepare prog) in
  let buf = Array.make (Array.length (Ir_vm.carried vm)) 0.0 in
  (* after a step, z holds [v] *)
  let hold v =
    Ir_vm.load_input vm 0 Dtype.Float64 (floats_input layout [ v ]) 0;
    Ir_vm.step vm
  in
  Ir_vm.reset vm;
  List.iter
    (fun (saved, now, equal) ->
      hold saved;
      Ir_vm.save_carried vm buf ~at:0;
      hold now;
      Alcotest.(check bool) (Printf.sprintf "%h against %h" saved now) equal
        (Ir_vm.carried_equal vm buf ~at:0))
    [ (1.5, 1.5, true); (1.5, 2.5, false); (0.0, 0.0, true); (-0.0, -0.0, true);
      (0.0, -0.0, false); (-0.0, 0.0, false); (nan_a, nan_a, true); (nan_a, nan_b, false);
      (nan_a, 1.0, false); (Float.infinity, Float.infinity, true);
      (Float.infinity, Float.neg_infinity, false) ];
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Ir_vm: carried registers out of the buffer's bounds")
    (fun () -> ignore (Ir_vm.carried_equal vm buf ~at:1))

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
   nothing, from reset, resumed and rejoined alike. *)
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
            w1 (words_per_exec resumed);
          (* a child that rejoins its parent: the first of a fixed
             sequence of one-field changes that does *)
          let rec rejoining tries =
            if tries = 0 then Alcotest.failf "%s: no child of %d tuples rejoined" e.Models.name n;
            let c = with_field layout rng parent (Rng.int rng (n / 2)) in
            exec c ();
            ignore (Fuzzer.exec_child x ~fresh_cells ~parent traj c);
            if Fuzzer.rejoined x > 0 then c else rejoining (tries - 1)
          in
          let child = rejoining 200 in
          let rejoined () =
            fresh_cells := [];
            ignore (Sys.opaque_identity (Fuzzer.exec_child x ~fresh_cells ~parent traj child))
          in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s: %d tuples rejoined" e.Models.name n)
            w1 (words_per_exec rejoined))
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
        Alcotest.test_case "record needs a run" `Quick test_record_needs_a_run;
        Alcotest.test_case "no early rejoin" `Quick test_no_early_rejoin;
        Alcotest.test_case "carried_equal bit for bit" `Quick test_carried_equal ] );
    ( "fuzz.alloc",
      [ Alcotest.test_case "words per exec flat in tuples" `Quick test_words_flat;
        Alcotest.test_case "load_input = to_float . decode" `Quick test_load_input ] ) ]
