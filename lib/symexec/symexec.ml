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
   Unoptimized: with the optimizer, traced hybrid campaigns spend about
   a fifth less time in solver phases, but each campaign then optimizes
   a second code, and the extra allocation raises a campaign's peak
   RSS by more than that is worth (measured in DESIGN §3 "Code vs
   instance"). *)
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
  if List.exists (fun b -> b < 1) config.unroll_bounds then
    invalid_arg "Symexec.run: unroll bounds must be >= 1";
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
    (* fold this execution's probes (its fired set, init included)
       into the global set; emit a test case when anything new
       appeared *)
    let fresh = ref false in
    Ir_vm.iter_fired
      (fun i ->
        if Bytes.unsafe_get g_total i = '\000' then begin
          Bytes.unsafe_set g_total i '\001';
          fresh := true
        end)
      cov;
    if !fresh then suite := { data = Bytes.copy data; time = elapsed_now () } :: !suite
  in
  let n_fields = Array.length layout.Layout.fields in
  let tuple_len = layout.Layout.tuple_len in
  (* Incremental evaluation. Every candidate after the first of a
     search differs from the current best in one step row [s], so it
     resumes from the best's saved state before step [s] instead of
     re-running steps [0..s-1] from reset. The transcript is the same
     as a full run's, byte for byte:
     - the skipped prefix fires the best's prefix probes, which are
       already in [g_total] (the best was executed in full or resumed
       from an executed prefix), so [record_new_coverage] sees the
       same fresh set from the suffix's probes alone;
     - the target cannot have fired in the prefix, or the best's
       fitness would already be 0 and the search would have stopped;
     - a state holds the branch minima as well as the registers, so
       the suffix folds its distances into the prefix's minima exactly
       as a full run would.
     [best_states.(k)] is the best's state before step [k]; a
     candidate saves its states after [s] into [spare_states], and the
     two swap on acceptance. The pool is allocated once per run, for
     the largest bound: per-search pools churn the major heap. *)
  let max_bound = List.fold_left max 0 config.unroll_bounds in
  let best_states = Array.init max_bound (fun _ -> Ir_vm.fresh_state vm) in
  let spare_states = Array.init max_bound (fun _ -> Ir_vm.fresh_state vm) in
  (* runs steps [from..bound-1] of [data] on the VM as it stands,
     saving the state before each step after [from] into [states] *)
  let run_steps data ~from ~bound states =
    for k = from to bound - 1 do
      if k > from then Ir_vm.save_state vm states.(k);
      Layout.load_tuple_vm layout data ~tuple:k vm;
      Ir_vm.step vm
    done
  in
  let finish data target =
    record_new_coverage data;
    fitness chains target br (Ir_vm.probe_fired vm target)
  in
  let random_row () =
    Array.init n_fields (fun f ->
        let ty = layout.Layout.fields.(f).Layout.f_ty in
        match ty with
        | Dtype.Bool -> Value.of_bool (Rng.bool rng)
        | ty when Dtype.is_integer ty -> Value.of_int ty (Rng.int_in rng (-64) 64)
        | ty -> Value.of_float ty (Rng.float rng 20.0 -. 10.0))
  in
  let set_row data s row =
    Array.iteri (fun f v -> Layout.set_field layout data ~tuple:s ~field:f v) row
  in
  let nudge v f delta =
    match layout.Layout.fields.(f).Layout.f_ty with
    | Dtype.Bool -> Value.of_bool (not (Value.is_true v))
    | ty when Dtype.is_integer ty -> Value.of_int ty (Value.to_int v + int_of_float delta)
    | ty -> Value.of_float ty (Value.to_float v +. delta)
  in
  (* Alternating-variable search for one target at one unrolling bound. *)
  let solve_target target bound =
    let matrix = Array.init bound (fun _ -> random_row ()) in
    let best_data = Bytes.create (bound * tuple_len) in
    Array.iteri (set_row best_data) matrix;
    (* [cand_data] equals [best_data] outside the row under trial *)
    let cand_data = Bytes.copy best_data in
    let best =
      incr executions;
      Ir_vm.clear_probes cov;
      Ir_vm.reset vm;
      Ir_vm.save_state vm best_states.(0);
      run_steps best_data ~from:0 ~bound best_states;
      ref (finish best_data target)
    in
    (* evaluates [cand_data], whose row [s] is patched; keeps it when
       it improves on the best, and puts row [s] back otherwise *)
    let try_row s =
      incr executions;
      Ir_vm.clear_probes cov;
      Ir_vm.restore_state vm best_states.(s);
      run_steps cand_data ~from:s ~bound spare_states;
      let fit = finish cand_data target in
      let off = s * tuple_len in
      if fit < !best then begin
        best := fit;
        Bytes.blit cand_data off best_data off tuple_len;
        for k = s + 1 to bound - 1 do
          let st = best_states.(k) in
          best_states.(k) <- spare_states.(k);
          spare_states.(k) <- st
        done;
        true
      end
      else begin
        Bytes.blit best_data off cand_data off tuple_len;
        false
      end
    in
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
                let v = nudge matrix.(s).(f) f !delta in
                Layout.set_field layout cand_data ~tuple:s ~field:f v;
                incr moves;
                if try_row s then begin
                  matrix.(s).(f) <- v;
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
      (* random restart of one step row when stuck; the row is drawn
         before its index, the order the RNG stream was pinned in *)
      if !best > 0.0 && not !improved_once && !moves < config.moves_per_target && budget_ok ()
      then begin
        let row = random_row () in
        let s = Rng.int rng bound in
        set_row cand_data s row;
        incr moves;
        if try_row s then begin
          matrix.(s) <- row;
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
