open Cftcg_model

(* K-lane lockstep bytecode VM — executes K independent inputs through
   one instruction stream over a structure-of-arrays register file.

   The scalar VM ({!Ir_vm}) pays one dispatch + operand decode per
   instruction per input. Here a group of lanes at the same pc pays
   that cost once and then runs the arm body per lane over a flat
   float64 plane (register [r], lane [l] lives at [r * k + l], so one
   instruction touches k adjacent cells — the cache-friendly
   direction). Conditional branches partition the group: if all lanes
   agree the group continues batched; otherwise the branch's pc gets
   a divergence tick and the group splits into two adjacent slices of
   the lane arena (a stable in-place partition, fall-through lanes
   first). Model bytecode jumps only forward, so the two slices
   reconverge: the lower-pc slice runs batched until it reaches the
   other slice's pc, the slices merge zero-copy (they are adjacent),
   and execution continues batched — lanes re-gain lockstep as soon
   as control flow rejoins, not only at the next [step] call. A slice
   parked on [halt] is terminal; the other runs out on its own.

   Per-lane semantics are bit-identical to {!Ir_vm}: arm formulas are
   copied verbatim (the batched differential suite holds them
   bit-identical), and each lane's probe dirty list records fires in
   that lane's own execution order. Hook-carrying instrumentation
   (probe_h / cond / decision) and branch-recording code are not
   supported: this VM exists for the fuzzing hot path, which compiles
   without either. *)

module L = Ir_linearize

type regfile = float array

(* Packed probe coverage for K lanes: the fired byte for probe [id] in
   lane [l] is at [id * k + l] (lane-minor, so one probe instruction
   touches k adjacent bytes), plus per-lane dirty lists mirroring
   {!Ir_vm.probes}. *)
type probes = {
  bp_k : int;
  bp_fired : Bytes.t;  (* n_probes * k *)
  bp_dirty : int array array;  (* per lane: fired ids, insertion order *)
  bp_n : int array;  (* per lane fill count *)
}

type t = {
  lin : L.t;
  k : int;
  regs : regfile;
  mutable probes : probes;
  act : int array;  (* arena: lane indices; groups are adjacent slices *)
  scratch : int array;  (* split scratch for stable slice partition *)
  d_init : int array;  (* divergence splits per init pc *)
  d_step : int array;  (* divergence splits per step pc *)
}

let make_probes ~k n =
  {
    bp_k = k;
    bp_fired = Bytes.make (n * k) '\000';
    bp_dirty = Array.init k (fun _ -> Array.make n 0);
    bp_n = Array.make k 0;
  }

let clear_lane p ~lane =
  let k = p.bp_k in
  let dirty = Array.unsafe_get p.bp_dirty lane in
  for j = 0 to p.bp_n.(lane) - 1 do
    Bytes.unsafe_set p.bp_fired ((Array.unsafe_get dirty j * k) + lane) '\000'
  done;
  p.bp_n.(lane) <- 0

let clear_probes p =
  for l = 0 to p.bp_k - 1 do
    clear_lane p ~lane:l
  done

let of_code ~k (code : Ir_vm.code) =
  if k < 1 || k > 64 then invalid_arg "Ir_vm_batch: k must be in 1..64";
  let lin = (code :> L.t) in
  if lin.L.l_branch_sites > 0 then invalid_arg "Ir_vm_batch: branch-recording code";
  let prog = lin.L.l_prog in
  let n_regs = max lin.L.l_n_regs 1 in
  let regs = Array.make (n_regs * k) 0.0 in
  Array.fill regs 0 (Array.length regs) 0.0;
  {
    lin;
    k;
    regs;
    probes = make_probes ~k (max prog.Ir.n_probes 1);
    act = Array.init k (fun l -> l);
    scratch = Array.make k 0;
    d_init = Array.make (max (Array.length lin.L.l_init) 1) 0;
    d_step = Array.make (max (Array.length lin.L.l_step) 1) 0;
  }

let compile ?optimize ~k prog = of_code ~k (Ir_vm.prepare ?optimize prog)

let k bvm = bvm.k
let program bvm = bvm.lin.L.l_prog
let linearized bvm = bvm.lin
let code_size bvm = L.code_size bvm.lin

(* same two's-complement wrap as Ir_vm *)
let[@inline] wrap n mask half =
  let m = n land mask in
  if m >= half then m - (mask + 1) else m

let[@inline] fire pb k id l =
  let cell = (id * k) + l in
  if Bytes.unsafe_get pb.bp_fired cell = '\000' then begin
    Bytes.unsafe_set pb.bp_fired cell '\001';
    let n = Array.unsafe_get pb.bp_n l in
    Array.unsafe_set (Array.unsafe_get pb.bp_dirty l) n id;
    Array.unsafe_set pb.bp_n l (n + 1)
  end

(* The dispatch loop. Lane groups are adjacent slices of the [arena]
   array: [go stop i base n] runs [arena.(base .. base+n-1)] from pc
   [i] until the whole slice parks at one pc — at [stop] or at a
   [halt] — and returns that pc. Per-lane arm formulas are copied
   verbatim from Ir_vm.exec.

   Conditional branches count the jumping lanes first: a unanimous
   group continues batched. A divergent one records a split at
   [divs.(pc)] (for `cftcg ir --batch`) and stable-partitions the
   slice in place — fall-through lanes first, jumping lanes after —
   into two adjacent sub-slices, which [converge] then RECONVERGES:
   jumps are forward-only (the IR has no loops), so repeatedly
   advancing the lower-pc sub-slice until it reaches the higher one
   must make the two meet, at which point they merge zero-copy (the
   slices are adjacent) and continue batched. A short then/else
   diamond therefore costs only its own length of split execution,
   not scalar execution to the end of the block. *)
let exec bvm code (divs : int array) (arena : int array) n0 =
  let k = bvm.k in
  let regs = bvm.regs in
  let pb = bvm.probes in
  let scratch = bvm.scratch in
  let rec go stop i base n =
    if i >= stop then i
    else
    match Array.unsafe_get code i with
    | 0 (* mov *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l) (Array.unsafe_get regs (s + l))
      done;
      go stop (i + 3) base n
    | 1 (* add_f *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l) (Array.unsafe_get regs (x + l) +. Array.unsafe_get regs (y + l))
      done;
      go stop (i + 4) base n
    | 2 (* sub_f *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l) (Array.unsafe_get regs (x + l) -. Array.unsafe_get regs (y + l))
      done;
      go stop (i + 4) base n
    | 3 (* mul_f *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l) (Array.unsafe_get regs (x + l) *. Array.unsafe_get regs (y + l))
      done;
      go stop (i + 4) base n
    | 4 (* div_f *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        let yv = Array.unsafe_get regs (y + l) in
        Array.unsafe_set regs (d + l) (if yv = 0.0 then 0.0 else Array.unsafe_get regs (x + l) /. yv)
      done;
      go stop (i + 4) base n
    | 5 (* rem_f *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        let yv = Array.unsafe_get regs (y + l) in
        Array.unsafe_set regs (d + l)
          (if yv = 0.0 then 0.0 else Float.rem (Array.unsafe_get regs (x + l)) yv)
      done;
      go stop (i + 4) base n
    | 6 (* add_i *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      let mask = Array.unsafe_get code (i + 4) in
      let half = Array.unsafe_get code (i + 5) in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        let v =
          int_of_float (Array.unsafe_get regs (x + l)) + int_of_float (Array.unsafe_get regs (y + l))
        in
        Array.unsafe_set regs (d + l) (float_of_int (wrap v mask half))
      done;
      go stop (i + 6) base n
    | 7 (* sub_i *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      let mask = Array.unsafe_get code (i + 4) in
      let half = Array.unsafe_get code (i + 5) in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        let v =
          int_of_float (Array.unsafe_get regs (x + l)) - int_of_float (Array.unsafe_get regs (y + l))
        in
        Array.unsafe_set regs (d + l) (float_of_int (wrap v mask half))
      done;
      go stop (i + 6) base n
    | 8 (* mul_i *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      let mask = Array.unsafe_get code (i + 4) in
      let half = Array.unsafe_get code (i + 5) in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        let v =
          int_of_float (Array.unsafe_get regs (x + l)) * int_of_float (Array.unsafe_get regs (y + l))
        in
        Array.unsafe_set regs (d + l) (float_of_int (wrap v mask half))
      done;
      go stop (i + 6) base n
    | 9 (* div_i *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      let mask = Array.unsafe_get code (i + 4) in
      let half = Array.unsafe_get code (i + 5) in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        let xv = int_of_float (Array.unsafe_get regs (x + l)) in
        let yv = int_of_float (Array.unsafe_get regs (y + l)) in
        let v = if yv = 0 then 0 else xv / yv in
        Array.unsafe_set regs (d + l) (float_of_int (wrap v mask half))
      done;
      go stop (i + 6) base n
    | 10 (* rem_i *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      let mask = Array.unsafe_get code (i + 4) in
      let half = Array.unsafe_get code (i + 5) in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        let xv = int_of_float (Array.unsafe_get regs (x + l)) in
        let yv = int_of_float (Array.unsafe_get regs (y + l)) in
        let v = if yv = 0 then 0 else xv mod yv in
        Array.unsafe_set regs (d + l) (float_of_int (wrap v mask half))
      done;
      go stop (i + 6) base n
    | 11 (* neg_f *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l) (-.Array.unsafe_get regs (s + l))
      done;
      go stop (i + 3) base n
    | 12 (* neg_i *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      let mask = Array.unsafe_get code (i + 3) in
      let half = Array.unsafe_get code (i + 4) in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (float_of_int (wrap (-int_of_float (Array.unsafe_get regs (s + l))) mask half))
      done;
      go stop (i + 5) base n
    | 13 (* abs_f *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l) (Float.abs (Array.unsafe_get regs (s + l)))
      done;
      go stop (i + 3) base n
    | 14 (* abs_i *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      let mask = Array.unsafe_get code (i + 3) in
      let half = Array.unsafe_get code (i + 4) in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (float_of_int (wrap (Int.abs (int_of_float (Array.unsafe_get regs (s + l)))) mask half))
      done;
      go stop (i + 5) base n
    | 15 (* not *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l) (if Array.unsafe_get regs (s + l) <> 0.0 then 0.0 else 1.0)
      done;
      go stop (i + 3) base n
    | 16 (* to_bool *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l) (if Array.unsafe_get regs (s + l) <> 0.0 then 1.0 else 0.0)
      done;
      go stop (i + 3) base n
    | 17 (* round_f32 *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (Value.normalize_float Dtype.Float32 (Array.unsafe_get regs (s + l)))
      done;
      go stop (i + 3) base n
    | 18 (* f2i_sat *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      let lo = Array.unsafe_get code (i + 3) * k in
      let hi = Array.unsafe_get code (i + 4) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        let f = Array.unsafe_get regs (s + l) in
        let r =
          if Float.is_nan f then 0.0
          else begin
            let t = Float.trunc f in
            let lov = Array.unsafe_get regs (lo + l) in
            let hiv = Array.unsafe_get regs (hi + l) in
            if t <= lov then lov else if t >= hiv then hiv else t
          end
        in
        Array.unsafe_set regs (d + l) r
      done;
      go stop (i + 5) base n
    | 19 (* wrap_i *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      let mask = Array.unsafe_get code (i + 3) in
      let half = Array.unsafe_get code (i + 4) in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (float_of_int (wrap (int_of_float (Array.unsafe_get regs (s + l))) mask half))
      done;
      go stop (i + 5) base n
    | 20 (* floor *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l) (Float.floor (Array.unsafe_get regs (s + l)))
      done;
      go stop (i + 3) base n
    | 21 (* ceil *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l) (Float.ceil (Array.unsafe_get regs (s + l)))
      done;
      go stop (i + 3) base n
    | 22 (* round *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l) (Float.round (Array.unsafe_get regs (s + l)))
      done;
      go stop (i + 3) base n
    | 23 (* trunc *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l) (Float.trunc (Array.unsafe_get regs (s + l)))
      done;
      go stop (i + 3) base n
    | 24 (* exp *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        let v = Float.exp (Array.unsafe_get regs (s + l)) in
        Array.unsafe_set regs (d + l) (if Float.is_nan v then 0.0 else v)
      done;
      go stop (i + 3) base n
    | 25 (* log *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        let x = Array.unsafe_get regs (s + l) in
        Array.unsafe_set regs (d + l) (if x <= 0.0 then 0.0 else Float.log x)
      done;
      go stop (i + 3) base n
    | 26 (* log10 *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        let x = Array.unsafe_get regs (s + l) in
        Array.unsafe_set regs (d + l) (if x <= 0.0 then 0.0 else Float.log10 x)
      done;
      go stop (i + 3) base n
    | 27 (* sqrt *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        let x = Array.unsafe_get regs (s + l) in
        Array.unsafe_set regs (d + l) (if x < 0.0 then 0.0 else Float.sqrt x)
      done;
      go stop (i + 3) base n
    | 28 (* sin *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        let v = Float.sin (Array.unsafe_get regs (s + l)) in
        Array.unsafe_set regs (d + l) (if Float.is_nan v then 0.0 else v)
      done;
      go stop (i + 3) base n
    | 29 (* cos *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        let v = Float.cos (Array.unsafe_get regs (s + l)) in
        Array.unsafe_set regs (d + l) (if Float.is_nan v then 0.0 else v)
      done;
      go stop (i + 3) base n
    | 30 (* cmp_eq *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (if Array.unsafe_get regs (x + l) = Array.unsafe_get regs (y + l) then 1.0 else 0.0)
      done;
      go stop (i + 4) base n
    | 31 (* cmp_ne *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (if Array.unsafe_get regs (x + l) <> Array.unsafe_get regs (y + l) then 1.0 else 0.0)
      done;
      go stop (i + 4) base n
    | 32 (* cmp_lt *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (if Array.unsafe_get regs (x + l) < Array.unsafe_get regs (y + l) then 1.0 else 0.0)
      done;
      go stop (i + 4) base n
    | 33 (* cmp_le *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (if Array.unsafe_get regs (x + l) <= Array.unsafe_get regs (y + l) then 1.0 else 0.0)
      done;
      go stop (i + 4) base n
    | 34 (* cmp_gt *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (if Array.unsafe_get regs (x + l) > Array.unsafe_get regs (y + l) then 1.0 else 0.0)
      done;
      go stop (i + 4) base n
    | 35 (* cmp_ge *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (if Array.unsafe_get regs (x + l) >= Array.unsafe_get regs (y + l) then 1.0 else 0.0)
      done;
      go stop (i + 4) base n
    | 36 (* and *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (if Array.unsafe_get regs (x + l) <> 0.0 && Array.unsafe_get regs (y + l) <> 0.0 then 1.0
           else 0.0)
      done;
      go stop (i + 4) base n
    | 37 (* or *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (if Array.unsafe_get regs (x + l) <> 0.0 || Array.unsafe_get regs (y + l) <> 0.0 then 1.0
           else 0.0)
      done;
      go stop (i + 4) base n
    | 38 (* select *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let c = Array.unsafe_get code (i + 2) * k in
      let x = Array.unsafe_get code (i + 3) * k in
      let y = Array.unsafe_get code (i + 4) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (if Array.unsafe_get regs (c + l) <> 0.0 then Array.unsafe_get regs (x + l)
           else Array.unsafe_get regs (y + l))
      done;
      go stop (i + 5) base n
    | 39 (* jmp *) -> go stop (Array.unsafe_get code (i + 1)) base n
    | 40 (* jz *) ->
      let r = Array.unsafe_get code (i + 1) * k in
      branch stop i base n
        (Array.unsafe_get code (i + 2))
        (i + 3)
        (fun l -> Array.unsafe_get regs (r + l) = 0.0)
    | 41 (* probe *) ->
      let id = Array.unsafe_get code (i + 1) in
      for j = base to base + n - 1 do
        fire pb k id (Array.unsafe_get arena j)
      done;
      go stop (i + 2) base n
    | 46 (* halt *) -> i
    | 47 (* jlt *) ->
      let x = Array.unsafe_get code (i + 1) * k in
      let y = Array.unsafe_get code (i + 2) * k in
      branch stop i base n
        (Array.unsafe_get code (i + 3))
        (i + 4)
        (fun l -> not (Array.unsafe_get regs (x + l) < Array.unsafe_get regs (y + l)))
    | 48 (* jle *) ->
      let x = Array.unsafe_get code (i + 1) * k in
      let y = Array.unsafe_get code (i + 2) * k in
      branch stop i base n
        (Array.unsafe_get code (i + 3))
        (i + 4)
        (fun l -> not (Array.unsafe_get regs (x + l) <= Array.unsafe_get regs (y + l)))
    | 49 (* jeq *) ->
      let x = Array.unsafe_get code (i + 1) * k in
      let y = Array.unsafe_get code (i + 2) * k in
      branch stop i base n
        (Array.unsafe_get code (i + 3))
        (i + 4)
        (fun l -> not (Array.unsafe_get regs (x + l) = Array.unsafe_get regs (y + l)))
    | 50 (* jne *) ->
      let x = Array.unsafe_get code (i + 1) * k in
      let y = Array.unsafe_get code (i + 2) * k in
      branch stop i base n
        (Array.unsafe_get code (i + 3))
        (i + 4)
        (fun l -> not (Array.unsafe_get regs (x + l) <> Array.unsafe_get regs (y + l)))
    | 51 (* jgt *) ->
      let x = Array.unsafe_get code (i + 1) * k in
      let y = Array.unsafe_get code (i + 2) * k in
      branch stop i base n
        (Array.unsafe_get code (i + 3))
        (i + 4)
        (fun l -> not (Array.unsafe_get regs (x + l) > Array.unsafe_get regs (y + l)))
    | 52 (* jge *) ->
      let x = Array.unsafe_get code (i + 1) * k in
      let y = Array.unsafe_get code (i + 2) * k in
      branch stop i base n
        (Array.unsafe_get code (i + 3))
        (i + 4)
        (fun l -> not (Array.unsafe_get regs (x + l) >= Array.unsafe_get regs (y + l)))
    | 53 (* jnz *) ->
      let r = Array.unsafe_get code (i + 1) * k in
      branch stop i base n
        (Array.unsafe_get code (i + 2))
        (i + 3)
        (fun l -> Array.unsafe_get regs (r + l) <> 0.0)
    | 54 (* add_f32 *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (Value.normalize_float Dtype.Float32
             (Array.unsafe_get regs (x + l) +. Array.unsafe_get regs (y + l)))
      done;
      go stop (i + 4) base n
    | 55 (* sub_f32 *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (Value.normalize_float Dtype.Float32
             (Array.unsafe_get regs (x + l) -. Array.unsafe_get regs (y + l)))
      done;
      go stop (i + 4) base n
    | 56 (* mul_f32 *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l)
          (Value.normalize_float Dtype.Float32
             (Array.unsafe_get regs (x + l) *. Array.unsafe_get regs (y + l)))
      done;
      go stop (i + 4) base n
    | 57 (* div_f32 *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let x = Array.unsafe_get code (i + 2) * k in
      let y = Array.unsafe_get code (i + 3) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        let yv = Array.unsafe_get regs (y + l) in
        Array.unsafe_set regs (d + l)
          (Value.normalize_float Dtype.Float32
             (if yv = 0.0 then 0.0 else Array.unsafe_get regs (x + l) /. yv))
      done;
      go stop (i + 4) base n
    | 58 (* probe + jmp *) ->
      let id = Array.unsafe_get code (i + 1) in
      for j = base to base + n - 1 do
        fire pb k id (Array.unsafe_get arena j)
      done;
      go stop (Array.unsafe_get code (i + 2)) base n
    | 59 (* mov + jmp *) ->
      let d = Array.unsafe_get code (i + 1) * k in
      let s = Array.unsafe_get code (i + 2) * k in
      for j = base to base + n - 1 do
        let l = Array.unsafe_get arena j in
        Array.unsafe_set regs (d + l) (Array.unsafe_get regs (s + l))
      done;
      go stop (Array.unsafe_get code (i + 3)) base n
    | 60 (* jlt.p *) ->
      let x = Array.unsafe_get code (i + 1) * k in
      let y = Array.unsafe_get code (i + 2) * k in
      probe_branch stop i base n
        (Array.unsafe_get code (i + 3))
        (Array.unsafe_get code (i + 4))
        (i + 5)
        (fun l -> Array.unsafe_get regs (x + l) < Array.unsafe_get regs (y + l))
    | 61 (* jle.p *) ->
      let x = Array.unsafe_get code (i + 1) * k in
      let y = Array.unsafe_get code (i + 2) * k in
      probe_branch stop i base n
        (Array.unsafe_get code (i + 3))
        (Array.unsafe_get code (i + 4))
        (i + 5)
        (fun l -> Array.unsafe_get regs (x + l) <= Array.unsafe_get regs (y + l))
    | 62 (* jeq.p *) ->
      let x = Array.unsafe_get code (i + 1) * k in
      let y = Array.unsafe_get code (i + 2) * k in
      probe_branch stop i base n
        (Array.unsafe_get code (i + 3))
        (Array.unsafe_get code (i + 4))
        (i + 5)
        (fun l -> Array.unsafe_get regs (x + l) = Array.unsafe_get regs (y + l))
    | 63 (* jne.p *) ->
      let x = Array.unsafe_get code (i + 1) * k in
      let y = Array.unsafe_get code (i + 2) * k in
      probe_branch stop i base n
        (Array.unsafe_get code (i + 3))
        (Array.unsafe_get code (i + 4))
        (i + 5)
        (fun l -> Array.unsafe_get regs (x + l) <> Array.unsafe_get regs (y + l))
    | 64 (* jgt.p *) ->
      let x = Array.unsafe_get code (i + 1) * k in
      let y = Array.unsafe_get code (i + 2) * k in
      probe_branch stop i base n
        (Array.unsafe_get code (i + 3))
        (Array.unsafe_get code (i + 4))
        (i + 5)
        (fun l -> Array.unsafe_get regs (x + l) > Array.unsafe_get regs (y + l))
    | 65 (* jge.p *) ->
      let x = Array.unsafe_get code (i + 1) * k in
      let y = Array.unsafe_get code (i + 2) * k in
      probe_branch stop i base n
        (Array.unsafe_get code (i + 3))
        (Array.unsafe_get code (i + 4))
        (i + 5)
        (fun l -> Array.unsafe_get regs (x + l) >= Array.unsafe_get regs (y + l))
    | 66 (* jz.p *) ->
      let r = Array.unsafe_get code (i + 1) * k in
      probe_branch stop i base n
        (Array.unsafe_get code (i + 2))
        (Array.unsafe_get code (i + 3))
        (i + 4)
        (fun l -> Array.unsafe_get regs (r + l) <> 0.0)
    | 67 (* jnz.p *) ->
      let r = Array.unsafe_get code (i + 1) * k in
      probe_branch stop i base n
        (Array.unsafe_get code (i + 2))
        (Array.unsafe_get code (i + 3))
        (i + 4)
        (fun l -> Array.unsafe_get regs (r + l) = 0.0)
    | _ ->
      (* 42..45 and 68..74: hook-carrying and branch-recording
         instrumentation — [of_code] refuses code carrying either *)
      assert false
  (* Conditional branch: [jumps l] says lane [l] takes the jump to
     [target]; the rest fall through to [fall]. Unanimous slices stay
     batched; a split stable-partitions the slice into two adjacent
     sub-slices (fall lanes first — [fall] < [target], jumps are
     forward) and lets [converge] rejoin them. *)
  and branch stop i base n target fall jumps =
    let nt = ref 0 in
    for j = base to base + n - 1 do
      if jumps (Array.unsafe_get arena j) then incr nt
    done;
    let nt = !nt in
    if nt = n then go stop target base n
    else if nt = 0 then go stop fall base n
    else begin
      Array.unsafe_set divs i (Array.unsafe_get divs i + 1);
      Array.blit arena base scratch 0 n;
      let f = ref base in
      let t = ref (base + n - nt) in
      for j = 0 to n - 1 do
        let l = Array.unsafe_get scratch j in
        if jumps l then begin
          Array.unsafe_set arena !t l;
          incr t
        end
        else begin
          Array.unsafe_set arena !f l;
          incr f
        end
      done;
      converge stop fall base (n - nt) target (base + n - nt) nt
    end
  (* Probe-carrying branch: lanes where [holds] is true fire the probe
     and fall through; the rest jump. Probes fire before any split
     handling, matching each lane's scalar execution order. *)
  and probe_branch stop i base n id target fall holds =
    let nh = ref 0 in
    for j = base to base + n - 1 do
      let l = Array.unsafe_get arena j in
      if holds l then begin
        incr nh;
        fire pb k id l
      end
    done;
    let nh = !nh in
    if nh = n then go stop fall base n
    else if nh = 0 then go stop target base n
    else begin
      Array.unsafe_set divs i (Array.unsafe_get divs i + 1);
      Array.blit arena base scratch 0 n;
      let f = ref base in
      let t = ref (base + nh) in
      for j = 0 to n - 1 do
        let l = Array.unsafe_get scratch j in
        if holds l then begin
          Array.unsafe_set arena !f l;
          incr f
        end
        else begin
          Array.unsafe_set arena !t l;
          incr t
        end
      done;
      converge stop fall base nh target (base + nh) (n - nh)
    end
  (* Reconvergence: two adjacent parked slices — [arena.(ba..ba+na-1)]
     at pc [pa] and [arena.(bb..bb+nb-1)] at pc [pcb], with
     [bb = ba + na]. Jumps only go forward, so advancing whichever
     slice has the lower pc (stopping at the other's pc) moves the
     pair monotonically toward a common pc; when they meet, the merged
     slice continues batched. A slice parked on [halt] is terminal —
     if the other slice cannot reach that same halt, it just runs out
     on its own. *)
  and converge stop pa ba na pcb bb nb =
    if pa = pcb then go stop pa ba (na + nb)
    else if pa < pcb then
      if Array.unsafe_get code pa = 46 then begin
        let (_ : int) = go max_int pcb bb nb in
        pa
      end
      else converge stop (go pcb pa ba na) ba na pcb bb nb
    else if Array.unsafe_get code pcb = 46 then begin
      let (_ : int) = go max_int pa ba na in
      pcb
    end
    else converge stop pa ba na (go pa pcb bb nb) bb nb
  in
  let (_ : int) = go max_int 0 0 n0 in
  ()

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

let reset ?lanes bvm =
  let n = match lanes with None -> bvm.k | Some n -> n in
  if n < 1 || n > bvm.k then invalid_arg "Ir_vm_batch.reset: lanes out of range";
  Array.fill bvm.regs 0 (Array.length bvm.regs) 0.0;
  let consts = bvm.lin.L.l_consts in
  let base = bvm.lin.L.l_const_base in
  for j = 0 to Array.length consts - 1 do
    let plane = (base + j) * bvm.k in
    let c = Array.unsafe_get consts j in
    for l = 0 to bvm.k - 1 do
      Array.unsafe_set bvm.regs (plane + l) c
    done
  done;
  for l = 0 to bvm.k - 1 do
    bvm.act.(l) <- l
  done;
  exec bvm bvm.lin.L.l_init bvm.d_init bvm.act n

let step ?lanes bvm =
  let n = match lanes with None -> bvm.k | Some n -> n in
  if n < 1 || n > bvm.k then invalid_arg "Ir_vm_batch.step: lanes out of range";
  for l = 0 to n - 1 do
    bvm.act.(l) <- l
  done;
  exec bvm bvm.lin.L.l_step bvm.d_step bvm.act n

let set_input_raw bvm ~lane i f =
  Array.set bvm.regs (((program bvm).Ir.inputs.(i).Ir.vid * bvm.k) + lane) f

let set_input bvm ~lane i v =
  let var = (program bvm).Ir.inputs.(i) in
  Array.set bvm.regs ((var.Ir.vid * bvm.k) + lane) (Value.to_float (Value.cast var.Ir.vty v))

(* same float->value reconstruction as Ir_vm *)
let of_float_exact (ty : Dtype.t) f =
  match ty with
  | Dtype.Bool -> Value.of_bool (f <> 0.0)
  | ty when Dtype.is_integer ty -> Value.of_int ty (int_of_float f)
  | ty -> Value.of_float ty f

let get_output bvm ~lane i =
  let var = (program bvm).Ir.outputs.(i) in
  of_float_exact var.Ir.vty (Array.get bvm.regs ((var.Ir.vid * bvm.k) + lane))

let read_raw bvm ~lane vid = Array.get bvm.regs ((vid * bvm.k) + lane)

let probes bvm = bvm.probes
let set_probes bvm p = bvm.probes <- p
let fresh_probes bvm = make_probes ~k:bvm.k (Bytes.length bvm.probes.bp_fired / bvm.k)

let record p ~lane id = fire p p.bp_k id lane

let probe_fired bvm ~lane id = Bytes.get bvm.probes.bp_fired ((id * bvm.k) + lane) <> '\000'

(* Divergence profile: (pc, split count) per branch that ever split a
   group, hottest first — the data behind `cftcg ir --batch`'s
   lane-divergence table. *)
let divergence_of divs =
  let out = ref [] in
  Array.iteri (fun pc c -> if c > 0 then out := (pc, c) :: !out) divs;
  List.sort (fun (p1, a) (p2, b) -> if a = b then compare p1 p2 else compare b a) !out

let step_divergence bvm = divergence_of bvm.d_step
let init_divergence bvm = divergence_of bvm.d_init

let total_divergence bvm =
  Array.fold_left ( + ) 0 bvm.d_init + Array.fold_left ( + ) 0 bvm.d_step

let reset_divergence bvm =
  Array.fill bvm.d_init 0 (Array.length bvm.d_init) 0;
  Array.fill bvm.d_step 0 (Array.length bvm.d_step) 0
