open Cftcg_model
open Cftcg_ir
module Rng = Cftcg_util.Rng
module Layout = Cftcg_fuzz.Layout

type config = {
  seed : int64;
  unroll_bounds : int list;
  moves_per_target : int;
}

let default_config = { seed = 1L; unroll_bounds = [ 1; 2; 4; 8; 16 ]; moves_per_target = 400 }

type test_case = {
  data : Bytes.t;
  time : float;
}

type budget =
  | Time_budget of float
  | Exec_budget of int

type result = {
  suite : test_case list;
  executions : int;
  targets_total : int;
  targets_solved : int;
  probes_covered : int;
}

let big = 1.0e15

(* Approach level + raw branch distance (Wegener et al.). The distance
   is kept raw rather than normalized: normalizing with d/(d+1) makes
   a unit improvement on a distance of 1e9 smaller than double
   precision, which silently kills the descent on wide integer
   constraints. [big] dominates any achievable distance, so approach
   levels still order first. [br] is the executed input's branch
   observation: per If, the minimum distance-to-then / distance-to-else
   over every iteration in which it executed. *)
let fitness chains target (br : Ir_vm.branches) probe_hit =
  if probe_hit then 0.0
  else begin
    let chain = chains.(target) in
    let depth_total = List.length chain in
    let rec walk depth = function
      | [] ->
        (* full chain satisfied but probe not hit (e.g. condition
           probes behind Record semantics): treat as nearly solved *)
        0.5
      | (if_ix, want_then) :: rest ->
        if Bytes.get br.Ir_vm.b_reached if_ix = '\000' then
          (* approach level: how many chain levels remain *)
          float_of_int (depth_total - depth) *. big
        else begin
          let d = if want_then then br.Ir_vm.b_min_dt.(if_ix) else br.Ir_vm.b_min_df.(if_ix) in
          if d <= 0.0 then walk (depth + 1) rest
          else (float_of_int (depth_total - depth - 1) *. big) +. Float.min d (0.5 *. big)
        end
    in
    walk 0 chain
  end

(* Branch-recording bytecode: the VM folds every If visit's distances
   into its minima, so an execution allocates nothing for them.
   Unoptimized: the optimizer costs under 2 ms and would repay itself
   within ~1k–5k solver executions, but traced hybrid campaigns read
   the same solver time with it on or off (measured in DESIGN §3 "Code
   vs instance"). *)
let prepare_code prog = Ir_vm.prepare ~optimize:false ~branches:true prog

let covered_bitmap ?initial_coverage (prog : Ir.program) =
  let n_probes = max prog.Ir.n_probes 1 in
  let g_total = Bytes.make n_probes '\000' in
  (match initial_coverage with
  | Some bitmap ->
    for i = 0 to min (Bytes.length bitmap) n_probes - 1 do
      if Bytes.get bitmap i <> '\000' then Bytes.set g_total i '\001'
    done
  | None -> ());
  g_total

(* Targets ordered shallow-first, the way a bounded solver clears easy
   objectives before hard ones. Shard [k] of [n > 1] keeps the
   initially-uncovered targets whose rank in that order is [k] mod
   [n]; a single shard keeps every probe, so already-covered ones are
   credited as solved exactly as before sharding existed. *)
let order_targets ~chains ~shard:(k, n) covered (prog : Ir.program) =
  if n < 1 || k < 0 || k >= n then invalid_arg "Symexec.run: shard must be (k, n) with 0 <= k < n";
  let ordered =
    List.init prog.Ir.n_probes (fun i -> i)
    |> List.sort (fun a b -> compare (List.length chains.(a)) (List.length chains.(b)))
  in
  if n = 1 then ordered
  else
    List.filter (fun t -> Bytes.get covered t = '\000') ordered
    |> List.filteri (fun rank _ -> rank mod n = k)

let shard_targets ?(shard = (0, 1)) ?initial_coverage prog =
  let covered = covered_bitmap ?initial_coverage prog in
  order_targets ~chains:(Guards.probe_chains prog) ~shard covered prog

let run ?(config = default_config) ?initial_coverage ?(shard = (0, 1)) ?code ?chains
    ?should_stop (prog : Ir.program) budget =
  let layout = Layout.of_program prog in
  if layout.Layout.tuple_len = 0 then invalid_arg "Symexec.run: model has no inports";
  let rng = Rng.create config.seed in
  let chains = match chains with Some c -> c | None -> Guards.probe_chains prog in
  let g_total = covered_bitmap ?initial_coverage prog in
  let targets = order_targets ~chains ~shard g_total prog in
  let vm = Ir_vm.of_code (match code with Some c -> c | None -> prepare_code prog) in
  let br = Ir_vm.branches vm in
  let cov = Ir_vm.probes vm in
  let executions = ref 0 in
  (* Exec-budget runs pace themselves on the execution counter — a
     virtual clock — and never read the wall clock, so same-seed runs
     are byte-identical, timestamps included (the discipline
     Fuzzer.run follows). Only a time budget touches gettimeofday. *)
  let start, deadline =
    match budget with
    | Time_budget s ->
      let now = Unix.gettimeofday () in
      (now, now +. s)
    | Exec_budget _ -> (0.0, 0.0)
  in
  let budget_left () =
    match budget with
    | Time_budget _ -> Unix.gettimeofday () < deadline
    | Exec_budget n -> !executions < n
  in
  (* an unset [should_stop] is never called: no transcript can depend
     on it *)
  let budget_ok =
    match should_stop with
    | None -> budget_left
    | Some stop -> fun () -> budget_left () && not (stop ())
  in
  let elapsed_now () =
    match budget with
    | Time_budget _ -> Unix.gettimeofday () -. start
    | Exec_budget _ -> float_of_int !executions
  in
  let suite = ref [] in
  let record_new_coverage data =
    (* fold this execution's probes (its dirty list, init included)
       into the global set; emit a test case when anything new
       appeared *)
    let fresh = ref false in
    for k = 0 to cov.Ir_vm.p_n - 1 do
      let i = cov.Ir_vm.p_dirty.(k) in
      if Bytes.unsafe_get g_total i = '\000' then begin
        Bytes.unsafe_set g_total i '\001';
        fresh := true
      end
    done;
    if !fresh then suite := { data = Bytes.copy data; time = elapsed_now () } :: !suite
  in
  (* Execute [data]; returns whether [target] was hit this run. *)
  let execute data target =
    incr executions;
    Ir_vm.clear_probes cov;
    (* uncapped: a candidate is as long as its unrolling bound *)
    Layout.run_case layout vm ~max_tuples:max_int data;
    record_new_coverage data;
    Ir_vm.probe_fired vm target
  in
  let n_fields = Array.length layout.Layout.fields in
  (* candidate = matrix of field values, encoded through the layout *)
  let encode matrix =
    let steps = Array.length matrix in
    let data = Bytes.make (steps * layout.Layout.tuple_len) '\000' in
    Array.iteri
      (fun s row ->
        Array.iteri (fun f v -> Layout.set_field layout data ~tuple:s ~field:f v) row)
      matrix;
    data
  in
  let random_row () =
    Array.init n_fields (fun f ->
        let ty = layout.Layout.fields.(f).Layout.f_ty in
        match ty with
        | Dtype.Bool -> Value.of_bool (Rng.bool rng)
        | ty when Dtype.is_integer ty -> Value.of_int ty (Rng.int_in rng (-64) 64)
        | ty -> Value.of_float ty (Rng.float rng 20.0 -. 10.0))
  in
  let nudge matrix s f delta =
    let row = Array.copy matrix.(s) in
    let ty = layout.Layout.fields.(f).Layout.f_ty in
    (row.(f) <-
       (match ty with
       | Dtype.Bool -> Value.of_bool (not (Value.is_true row.(f)))
       | ty when Dtype.is_integer ty -> Value.of_int ty (Value.to_int row.(f) + int_of_float delta)
       | ty -> Value.of_float ty (Value.to_float row.(f) +. delta)));
    let m' = Array.copy matrix in
    m'.(s) <- row;
    m'
  in
  let eval_candidate matrix target =
    let data = encode matrix in
    let hit = execute data target in
    fitness chains target br hit
  in
  (* Alternating-variable search for one target at one unrolling bound. *)
  let solve_target target bound =
    let matrix = ref (Array.init bound (fun _ -> random_row ())) in
    let best = ref (eval_candidate !matrix target) in
    let moves = ref 0 in
    let improved_once = ref true in
    while !best > 0.0 && !moves < config.moves_per_target && budget_ok () && !improved_once do
      improved_once := false;
      (* sweep dimensions; exponential pattern moves on improvement *)
      let dims = Array.init (bound * n_fields) (fun i -> i) in
      Rng.shuffle_in_place rng dims;
      Array.iter
        (fun dim ->
          if !best > 0.0 && !moves < config.moves_per_target && budget_ok () then begin
            let s = dim / n_fields and f = dim mod n_fields in
            let try_dir dir =
              let delta = ref dir in
              let continue_ = ref true in
              while !continue_ && !best > 0.0 && !moves < config.moves_per_target && budget_ok () do
                let cand = nudge !matrix s f !delta in
                incr moves;
                let fit = eval_candidate cand target in
                if fit < !best then begin
                  best := fit;
                  matrix := cand;
                  improved_once := true;
                  delta := !delta *. 2.0
                end
                else continue_ := false
              done
            in
            try_dir 1.0;
            try_dir (-1.0)
          end)
        dims;
      (* random restart of one step row when stuck *)
      if !best > 0.0 && not !improved_once && bound > 0 && !moves < config.moves_per_target
         && budget_ok ()
      then begin
        let cand = Array.copy !matrix in
        cand.(Rng.int rng bound) <- random_row ();
        incr moves;
        let fit = eval_candidate cand target in
        if fit < !best then begin
          best := fit;
          matrix := cand;
          improved_once := true
        end
      end
    done;
    !best = 0.0
  in
  let solved = ref 0 in
  let consider target =
    if Bytes.get g_total target <> '\000' then incr solved (* already covered incidentally *)
    else begin
      let rec try_bounds = function
        | [] -> ()
        | bound :: rest ->
          (* A target can become covered between bounds (an escalating
             search executes inputs that fire other probes too); that
             still counts as solved — the guard used to stop the
             escalation here without crediting it, leaving
             [targets_solved] in disagreement with [probes_covered]
             over the very same targets. *)
          if Bytes.get g_total target <> '\000' then incr solved
          else if budget_ok () then begin
            if solve_target target bound then incr solved else try_bounds rest
          end
      in
      try_bounds config.unroll_bounds
    end
  in
  List.iter (fun t -> if budget_ok () then consider t) targets;
  let covered = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr covered) g_total;
  {
    suite = List.rev !suite;
    executions = !executions;
    targets_total = List.length targets;
    targets_solved = !solved;
    probes_covered = !covered;
  }

let run_timed ?config ?initial_coverage prog ~time_budget =
  run ?config ?initial_coverage prog (Time_budget time_budget)
