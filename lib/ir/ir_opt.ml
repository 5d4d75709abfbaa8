open Cftcg_model

(* Each pass gets its own trace span so `cftcg profile` shows where
   compile time goes; spans are one boolean load when tracing is off. *)
let span = Cftcg_obs.Trace.with_span

(* ================================================================== *)
(* Bytecode optimizer                                                  *)
(*                                                                     *)
(* Rewrites Ir_linearize bytecode before Ir_vm execution. Working on   *)
(* the instruction stream rather than the IR tree lets it see          *)
(* linearization artifacts: every comparison materializes a float      *)
(* register that one jz consumes, port-wiring copies survive as MOVs,  *)
(* and saturation bounds / float32 rounding turn single IR nodes into  *)
(* instruction pairs. The passes work on the decoded instruction       *)
(* stream:                                                             *)
(*   1. constant folding + propagation through the register file       *)
(*   2. global copy propagation (forward over the whole block, copies  *)
(*      meeting by intersection at jump targets) and move elimination  *)
(*   3. unreachable-code elimination                                   *)
(*   4. dead-register-write elimination (probe/cond/decision/branch    *)
(*      ops, jumps, outputs, states, and cross-iteration reads are     *)
(*      roots; a dead setp becomes a psel, never disappears)           *)
(*   5. jump threading + fall-through elision                          *)
(*   6. superinstruction fusion (cmp+jz -> jlt/…, with gt/ge           *)
(*      canonicalized as lt/le on swapped operands; not+jz -> jnz;     *)
(*      arith_f+round_f32 -> *_f32; arm tails -> probe.jmp/mov.jmp;    *)
(*      branch+probe -> j*.p; whole two-probe diamonds -> psel, and    *)
(*      0/1-materializing ones -> setp)                                *)
(* Folding reuses the exact VM arm formulas (wrap masks, div-by-zero   *)
(* guards, NaN handling, float32 normalization), so optimized code is  *)
(* bit-identical to unoptimized — the differential suite enforces it.  *)
(* Each call allocates its analysis arrays once ([scratch]) and every  *)
(* pass reuses them.                                                   *)
(* ================================================================== *)

module L = Ir_linearize

(* --- static instruction shapes ------------------------------------ *)

(* Operand slots are classified so the passes know which slots hold
   registers (rewritable), which hold immediates (masks, probe ids —
   never touched), and which hold a jump target pc. *)
type shape = {
  s_name : string;
  s_size : int;  (* total slots including the opcode *)
  s_dst : bool;
      (* slot 1 is a written register; all such ops are pure except
         the setp forms, which also fire a probe (see [is_setp]) *)
  s_srcs : int array;  (* slot offsets read as registers *)
  s_target : int;  (* slot offset of a jump target, or -1 *)
}

let shapes : shape array =
  let t =
    Array.make L.n_opcodes { s_name = "?"; s_size = 1; s_dst = false; s_srcs = [||]; s_target = -1 }
  in
  let def op s_name s_size s_dst srcs s_target =
    t.(op) <- { s_name; s_size; s_dst; s_srcs = Array.of_list srcs; s_target }
  in
  def L.op_mov "mov" 3 true [ 2 ] (-1);
  def L.op_add_f "add.f" 4 true [ 2; 3 ] (-1);
  def L.op_sub_f "sub.f" 4 true [ 2; 3 ] (-1);
  def L.op_mul_f "mul.f" 4 true [ 2; 3 ] (-1);
  def L.op_div_f "div.f" 4 true [ 2; 3 ] (-1);
  def L.op_rem_f "rem.f" 4 true [ 2; 3 ] (-1);
  def L.op_add_i "add.i" 6 true [ 2; 3 ] (-1);
  def L.op_sub_i "sub.i" 6 true [ 2; 3 ] (-1);
  def L.op_mul_i "mul.i" 6 true [ 2; 3 ] (-1);
  def L.op_div_i "div.i" 6 true [ 2; 3 ] (-1);
  def L.op_rem_i "rem.i" 6 true [ 2; 3 ] (-1);
  def L.op_neg_f "neg.f" 3 true [ 2 ] (-1);
  def L.op_neg_i "neg.i" 5 true [ 2 ] (-1);
  def L.op_abs_f "abs.f" 3 true [ 2 ] (-1);
  def L.op_abs_i "abs.i" 5 true [ 2 ] (-1);
  def L.op_not "not" 3 true [ 2 ] (-1);
  def L.op_to_bool "to_bool" 3 true [ 2 ] (-1);
  def L.op_round_f32 "round.f32" 3 true [ 2 ] (-1);
  def L.op_f2i_sat "f2i.sat" 5 true [ 2; 3; 4 ] (-1);
  def L.op_wrap_i "wrap.i" 5 true [ 2 ] (-1);
  def L.op_floor "floor" 3 true [ 2 ] (-1);
  def L.op_ceil "ceil" 3 true [ 2 ] (-1);
  def L.op_round "round" 3 true [ 2 ] (-1);
  def L.op_trunc "trunc" 3 true [ 2 ] (-1);
  def L.op_exp "exp" 3 true [ 2 ] (-1);
  def L.op_log "log" 3 true [ 2 ] (-1);
  def L.op_log10 "log10" 3 true [ 2 ] (-1);
  def L.op_sqrt "sqrt" 3 true [ 2 ] (-1);
  def L.op_sin "sin" 3 true [ 2 ] (-1);
  def L.op_cos "cos" 3 true [ 2 ] (-1);
  def L.op_cmp_eq "cmp.eq" 4 true [ 2; 3 ] (-1);
  def L.op_cmp_ne "cmp.ne" 4 true [ 2; 3 ] (-1);
  def L.op_cmp_lt "cmp.lt" 4 true [ 2; 3 ] (-1);
  def L.op_cmp_le "cmp.le" 4 true [ 2; 3 ] (-1);
  def L.op_cmp_gt "cmp.gt" 4 true [ 2; 3 ] (-1);
  def L.op_cmp_ge "cmp.ge" 4 true [ 2; 3 ] (-1);
  def L.op_and "and" 4 true [ 2; 3 ] (-1);
  def L.op_or "or" 4 true [ 2; 3 ] (-1);
  def L.op_select "select" 5 true [ 2; 3; 4 ] (-1);
  def L.op_jmp "jmp" 2 false [] 1;
  def L.op_jz "jz" 3 false [ 1 ] 2;
  def L.op_probe "probe" 2 false [] (-1);
  def L.op_probe_h "probe.h" 2 false [] (-1);
  def L.op_cond "cond" 4 false [ 3 ] (-1);
  def L.op_decision "decision" 3 false [] (-1);
  def L.op_branch "branch" 5 false [ 2; 3; 4 ] (-1);
  def L.op_halt "halt" 1 false [] (-1);
  def L.op_jlt "jlt" 4 false [ 1; 2 ] 3;
  def L.op_jle "jle" 4 false [ 1; 2 ] 3;
  def L.op_jeq "jeq" 4 false [ 1; 2 ] 3;
  def L.op_jne "jne" 4 false [ 1; 2 ] 3;
  def L.op_jnz "jnz" 3 false [ 1 ] 2;
  def L.op_add_f32 "add.f32" 4 true [ 2; 3 ] (-1);
  def L.op_sub_f32 "sub.f32" 4 true [ 2; 3 ] (-1);
  def L.op_mul_f32 "mul.f32" 4 true [ 2; 3 ] (-1);
  def L.op_div_f32 "div.f32" 4 true [ 2; 3 ] (-1);
  def L.op_probe_jmp "probe.jmp" 3 false [] 2;
  def L.op_mov_jmp "mov.jmp" 4 true [ 2 ] 3;
  def L.op_jlt_p "jlt.p" 5 false [ 1; 2 ] 4;
  def L.op_jle_p "jle.p" 5 false [ 1; 2 ] 4;
  def L.op_jeq_p "jeq.p" 5 false [ 1; 2 ] 4;
  def L.op_jne_p "jne.p" 5 false [ 1; 2 ] 4;
  def L.op_jz_p "jz.p" 4 false [ 1 ] 3;
  def L.op_jnz_p "jnz.p" 4 false [ 1 ] 3;
  def L.op_dt_eq "dt.eq" 4 true [ 2; 3 ] (-1);
  def L.op_df_eq "df.eq" 4 true [ 2; 3 ] (-1);
  def L.op_dt_lt "dt.lt" 4 true [ 2; 3 ] (-1);
  def L.op_df_lt "df.lt" 4 true [ 2; 3 ] (-1);
  def L.op_dt_le "dt.le" 4 true [ 2; 3 ] (-1);
  def L.op_df_le "df.le" 4 true [ 2; 3 ] (-1);
  def L.op_min_f "min.f" 4 true [ 2; 3 ] (-1);
  def L.op_psel_lt "psel.lt" 5 false [ 1; 2 ] (-1);
  def L.op_psel_le "psel.le" 5 false [ 1; 2 ] (-1);
  def L.op_psel_eq "psel.eq" 5 false [ 1; 2 ] (-1);
  def L.op_psel_nz "psel.nz" 4 false [ 1 ] (-1);
  def L.op_setp_lt "setp.lt" 6 true [ 2; 3 ] (-1);
  def L.op_setp_le "setp.le" 6 true [ 2; 3 ] (-1);
  def L.op_setp_eq "setp.eq" 6 true [ 2; 3 ] (-1);
  def L.op_setp_ne "setp.ne" 6 true [ 2; 3 ] (-1);
  def L.op_setp_nz "setp.nz" 5 true [ 2 ] (-1);
  t

(* --- decoded form ------------------------------------------------- *)

type binst = {
  mutable b_op : int;
  mutable b_args : int array;  (* slots 1..size-1; the target slot (if any) is shadowed by b_target *)
  mutable b_target : int;  (* jump target as an instruction INDEX, or -1 *)
  mutable b_dead : bool;
}

let count_insts code =
  let len = Array.length code in
  let rec count i n = if i >= len then n else count (i + shapes.(code.(i)).s_size) (n + 1) in
  count 0 0

(* [starts] (at least one slot per instruction) receives each
   instruction's pc; a jump target pc is resolved to its index by
   binary search over it *)
let decode ?starts code =
  let len = Array.length code in
  let n = count_insts code in
  let starts = match starts with Some a -> a | None -> Array.make n 0 in
  let insts = Array.make n { b_op = L.op_halt; b_args = [||]; b_target = -1; b_dead = false } in
  let i = ref 0 and k = ref 0 in
  while !i < len do
    let sh = shapes.(code.(!i)) in
    starts.(!k) <- !i;
    insts.(!k) <-
      { b_op = code.(!i); b_args = Array.sub code (!i + 1) (sh.s_size - 1); b_target = -1; b_dead = false };
    i := !i + sh.s_size;
    incr k
  done;
  let index_of pc =
    let rec search lo hi =
      if lo = hi then lo
      else
        let mid = (lo + hi) / 2 in
        if starts.(mid) < pc then search (mid + 1) hi else search lo mid
    in
    search 0 (n - 1)
  in
  Array.iter
    (fun b ->
      let sh = shapes.(b.b_op) in
      if sh.s_target >= 0 then b.b_target <- index_of b.b_args.(sh.s_target - 1))
    insts;
  insts

(* The final HALT of a block is never removed, so [first_live] is
   total: every index resolves to a live instruction at or after it. *)
let first_live insts t =
  let rec go j = if insts.(j).b_dead then go (j + 1) else j in
  go t

let next_live insts i = first_live insts (i + 1)

let is_cond_jump op =
  op = L.op_jz || op = L.op_jnz
  || (op >= L.op_jlt && op <= L.op_jne)
  || (op >= L.op_jlt_p && op <= L.op_jnz_p)

(* conditional jumps that fire a probe on fall-through — they carry a
   side effect, so they can never be deleted even when the branch
   itself becomes redundant *)
let is_probe_jump op = op >= L.op_jlt_p && op <= L.op_jnz_p

(* jumps that never fall through *)
let is_uncond_jump op = op = L.op_jmp || op = L.op_probe_jmp || op = L.op_mov_jmp

let is_psel op = op >= L.op_psel_lt && op <= L.op_psel_nz

(* register writes that also fire a probe: never deleted or folded *)
let is_setp op = op >= L.op_setp_lt && op <= L.op_setp_nz

(* --- scratch ------------------------------------------------------ *)

(* Every array the passes work in, allocated once per
   [optimize_bytecode] call and reused by every pass and cycle on both
   blocks. Arrays this long bypass the minor heap, so allocating them
   per pass call made the optimizer's major-heap traffic grow with its
   pass count. Sized for the larger
   block — passes never add instructions — and the runtime registers.
   Per-instruction and per-register facts carry the tick they were
   learned at and hold only while that tick is current, so forgetting
   them all is one increment of [tick]; ticks are never reused. *)
type scratch = {
  mutable tick : int;
  leaders : bool array;  (* per instruction *)
  preds : int array;
      (* per instruction: live predecessor edges while fusing; each
         instruction's pc while decoding and encoding *)
  stamp : int array;  (* per instruction: visited / followed / back-edge target *)
  live_at : int array;  (* n + 1: the first live instruction at or after j *)
  succ : int array;  (* 2n: see [successor_table] *)
  live_in : int array;  (* n register sets: see [solve_liveness] *)
  out : int array;  (* one register set *)
  known_v : float array;  (* per register: constant propagation *)
  known_at : int array;
  bool_at : int array;
  fired_at : int array;  (* per probe id: probe dedup *)
  cp_src : int array;  (* per register: copy propagation *)
  cp_at : int array;
  cp_ver : int array;
  version : int array;
  last_read : int array;
  active : int array;
  active_at : int array;
  pend_at : int array;  (* per instruction: copies pending at a jump target *)
  pend_lo : int array;
  pend_n : int array;
  mutable pend : int array;  (* the [copy]-packed pairs of every pending set *)
}

let word_bits = 63

let words_for nregs = (nregs + word_bits - 1) / word_bits

let make_scratch ~n ~nregs ~n_probes =
  let w = words_for nregs in
  let per_reg () = Array.make (max nregs 1) (-1) in
  {
    tick = 0;
    leaders = Array.make n false;
    preds = Array.make n 0;
    stamp = Array.make n (-1);
    live_at = Array.make (n + 1) n;
    succ = Array.make (2 * n) (-1);
    live_in = Array.make (n * w) 0;
    out = Array.make w 0;
    known_v = Array.make (max nregs 1) 0.0;
    known_at = per_reg ();
    bool_at = per_reg ();
    fired_at = Array.make (max n_probes 1) (-1);
    cp_src = per_reg ();
    cp_at = per_reg ();
    cp_ver = per_reg ();
    version = Array.make (max nregs 1) 0;
    last_read = per_reg ();
    active = per_reg ();
    active_at = per_reg ();
    pend_at = Array.make n (-1);
    pend_lo = Array.make n 0;
    pend_n = Array.make n 0;
    pend = Array.make (2 * n) 0;
  }

let next_tick sc =
  sc.tick <- sc.tick + 1;
  sc.tick

(* Leaders: instructions that can be reached from more than just the
   textually preceding instruction — straight-line dataflow state must
   be discarded there. Conservative superset is fine. *)
let compute_leaders sc insts =
  let n = Array.length insts in
  let leaders = sc.leaders in
  Array.fill leaders 0 n false;
  leaders.(first_live insts 0) <- true;
  for i = 0 to n - 1 do
    let b = insts.(i) in
    if not b.b_dead then begin
      if b.b_target >= 0 then leaders.(first_live insts b.b_target) <- true;
      if (is_uncond_jump b.b_op || b.b_op = L.op_halt) && i + 1 < n then
        leaders.(first_live insts (i + 1)) <- true
    end
  done;
  leaders

(* --- constant pool ------------------------------------------------ *)

type pool = {
  mutable p_vals : float array;
  mutable p_n : int;
  p_ix : (int64, int) Hashtbl.t;
}

let pool_of consts =
  let n = Array.length consts in
  let p = { p_vals = Array.make (max 8 (2 * n)) 0.0; p_n = n; p_ix = Hashtbl.create 16 } in
  Array.blit consts 0 p.p_vals 0 n;
  Array.iteri (fun ix f -> Hashtbl.replace p.p_ix (Int64.bits_of_float f) ix) consts;
  p

let pool_get p ix = p.p_vals.(ix)

let pool_find p f =
  let bits = Int64.bits_of_float f in
  match Hashtbl.find_opt p.p_ix bits with
  | Some ix -> ix
  | None ->
    let ix = p.p_n in
    if ix = Array.length p.p_vals then begin
      let bigger = Array.make (2 * ix) 0.0 in
      Array.blit p.p_vals 0 bigger 0 ix;
      p.p_vals <- bigger
    end;
    p.p_vals.(ix) <- f;
    Hashtbl.replace p.p_ix bits ix;
    p.p_n <- ix + 1;
    ix

(* --- pure-op evaluator -------------------------------------------- *)

(* same two's-complement wrap as Ir_vm *)
let[@inline] bwrap n mask half =
  let m = n land mask in
  if m >= half then m - (mask + 1) else m

(* Evaluate a register-writing op given its operand values — each arm
   mirrors the corresponding Ir_vm dispatch arm formula exactly, so
   folding at compile time produces the bits execution would. [a] is
   the args array (a.(0) = dst), [v] resolves a register operand. *)
let eval_pure op (a : int array) (v : int -> float) : float =
  match op with
  | 0 (* mov *) -> v a.(1)
  | 1 (* add_f *) -> v a.(1) +. v a.(2)
  | 2 (* sub_f *) -> v a.(1) -. v a.(2)
  | 3 (* mul_f *) -> v a.(1) *. v a.(2)
  | 4 (* div_f *) ->
    let y = v a.(2) in
    if y = 0.0 then 0.0 else v a.(1) /. y
  | 5 (* rem_f *) ->
    let y = v a.(2) in
    if y = 0.0 then 0.0 else Float.rem (v a.(1)) y
  | 6 (* add_i *) ->
    float_of_int (bwrap (int_of_float (v a.(1)) + int_of_float (v a.(2))) a.(3) a.(4))
  | 7 (* sub_i *) ->
    float_of_int (bwrap (int_of_float (v a.(1)) - int_of_float (v a.(2))) a.(3) a.(4))
  | 8 (* mul_i *) ->
    float_of_int (bwrap (int_of_float (v a.(1)) * int_of_float (v a.(2))) a.(3) a.(4))
  | 9 (* div_i *) ->
    let x = int_of_float (v a.(1)) and y = int_of_float (v a.(2)) in
    float_of_int (bwrap (if y = 0 then 0 else x / y) a.(3) a.(4))
  | 10 (* rem_i *) ->
    let x = int_of_float (v a.(1)) and y = int_of_float (v a.(2)) in
    float_of_int (bwrap (if y = 0 then 0 else x mod y) a.(3) a.(4))
  | 11 (* neg_f *) -> -.v a.(1)
  | 12 (* neg_i *) -> float_of_int (bwrap (-int_of_float (v a.(1))) a.(2) a.(3))
  | 13 (* abs_f *) -> Float.abs (v a.(1))
  | 14 (* abs_i *) -> float_of_int (bwrap (Int.abs (int_of_float (v a.(1)))) a.(2) a.(3))
  | 15 (* not *) -> if v a.(1) <> 0.0 then 0.0 else 1.0
  | 16 (* to_bool *) -> if v a.(1) <> 0.0 then 1.0 else 0.0
  | 17 (* round_f32 *) -> Value.normalize_float Dtype.Float32 (v a.(1))
  | 18 (* f2i_sat *) ->
    let f = v a.(1) in
    if Float.is_nan f then 0.0
    else begin
      let t = Float.trunc f in
      let lo = v a.(2) and hi = v a.(3) in
      if t <= lo then lo else if t >= hi then hi else t
    end
  | 19 (* wrap_i *) -> float_of_int (bwrap (int_of_float (v a.(1))) a.(2) a.(3))
  | 20 (* floor *) -> Float.floor (v a.(1))
  | 21 (* ceil *) -> Float.ceil (v a.(1))
  | 22 (* round *) -> Float.round (v a.(1))
  | 23 (* trunc *) -> Float.trunc (v a.(1))
  | 24 (* exp *) ->
    let r = Float.exp (v a.(1)) in
    if Float.is_nan r then 0.0 else r
  | 25 (* log *) ->
    let x = v a.(1) in
    if x <= 0.0 then 0.0 else Float.log x
  | 26 (* log10 *) ->
    let x = v a.(1) in
    if x <= 0.0 then 0.0 else Float.log10 x
  | 27 (* sqrt *) ->
    let x = v a.(1) in
    if x < 0.0 then 0.0 else Float.sqrt x
  | 28 (* sin *) ->
    let r = Float.sin (v a.(1)) in
    if Float.is_nan r then 0.0 else r
  | 29 (* cos *) ->
    let r = Float.cos (v a.(1)) in
    if Float.is_nan r then 0.0 else r
  | 30 (* cmp_eq *) -> if v a.(1) = v a.(2) then 1.0 else 0.0
  | 31 (* cmp_ne *) -> if v a.(1) <> v a.(2) then 1.0 else 0.0
  | 32 (* cmp_lt *) -> if v a.(1) < v a.(2) then 1.0 else 0.0
  | 33 (* cmp_le *) -> if v a.(1) <= v a.(2) then 1.0 else 0.0
  | 34 (* cmp_gt *) -> if v a.(1) > v a.(2) then 1.0 else 0.0
  | 35 (* cmp_ge *) -> if v a.(1) >= v a.(2) then 1.0 else 0.0
  | 36 (* and *) -> if v a.(1) <> 0.0 && v a.(2) <> 0.0 then 1.0 else 0.0
  | 37 (* or *) -> if v a.(1) <> 0.0 || v a.(2) <> 0.0 then 1.0 else 0.0
  | 38 (* select *) -> if v a.(1) <> 0.0 then v a.(2) else v a.(3)
  | 52 (* add_f32 *) -> Value.normalize_float Dtype.Float32 (v a.(1) +. v a.(2))
  | 53 (* sub_f32 *) -> Value.normalize_float Dtype.Float32 (v a.(1) -. v a.(2))
  | 54 (* mul_f32 *) -> Value.normalize_float Dtype.Float32 (v a.(1) *. v a.(2))
  | 55 (* div_f32 *) ->
    let y = v a.(2) in
    Value.normalize_float Dtype.Float32 (if y = 0.0 then 0.0 else v a.(1) /. y)
  | 64 (* dt_eq *) -> Float.abs (v a.(1) -. v a.(2))
  | 65 (* df_eq *) -> if Float.abs (v a.(1) -. v a.(2)) = 0.0 then 1.0 else 0.0
  | 66 (* dt_lt *) ->
    let d = v a.(1) -. v a.(2) in
    if d < 0.0 then 0.0 else d +. 1.0
  | 67 (* df_lt *) ->
    let d = v a.(1) -. v a.(2) in
    if d < 0.0 then -.d else 0.0
  | 68 (* dt_le *) ->
    let d = v a.(1) -. v a.(2) in
    if d <= 0.0 then 0.0 else d
  | 69 (* df_le *) ->
    let d = v a.(1) -. v a.(2) in
    if d <= 0.0 then -.d +. 1.0 else 0.0
  | 70 (* min_f *) -> Float.min (v a.(1)) (v a.(2))
  (* the register a setp writes; its probe is not a value *)
  | 75 (* setp_lt *) -> if v a.(1) < v a.(2) then 1.0 else 0.0
  | 76 (* setp_le *) -> if v a.(1) <= v a.(2) then 1.0 else 0.0
  | 77 (* setp_eq *) -> if v a.(1) = v a.(2) then 1.0 else 0.0
  | 78 (* setp_ne *) -> if v a.(1) <> v a.(2) then 1.0 else 0.0
  | 79 (* setp_nz *) -> if v a.(1) <> 0.0 then 1.0 else 0.0
  | _ -> assert false

(* ops whose result is known to be exactly 0.0 or 1.0 *)
let produces_bool op =
  op = L.op_not || op = L.op_to_bool
  || (op >= L.op_cmp_eq && op <= L.op_cmp_ge)
  || op = L.op_and || op = L.op_or || is_setp op

(* whether a psel fires its first probe, given its operand values *)
let psel_first op (a : int array) (v : int -> float) =
  if op = L.op_psel_lt then v a.(0) < v a.(1)
  else if op = L.op_psel_le then v a.(0) <= v a.(1)
  else if op = L.op_psel_eq then v a.(0) = v a.(1)
  else v a.(0) <> 0.0

(* --- pass: constant folding + propagation ------------------------- *)

(* The straight-line passes (this one and probe dedup) learn facts per
   register or per probe id and forget them all at every leader: a
   fact holds while the tick it was learned at is the current
   region's. *)

(* Straight-line within basic blocks: per-register known values (and
   known-boolean facts) are tracked from each leader. Fully-known pure
   ops become MOVs from a (possibly new) pool register; selects,
   probe selects and conditional jumps with a known condition are
   resolved. A setp with known operands keeps its probe: only its
   register becomes a known value. Saturation bounds (f2i_sat's lo/hi)
   are register operands from the pool, so they participate as
   ordinary known values — folding goes through the same clamp the VM
   would apply rather than a naive conversion. *)
let const_prop_pass sc ~pool ~const_base ~leaders insts =
  let changed = ref false in
  (* runtime register r holds [known_v.(r)] while [known_at.(r)] is
     the current region, and is known to be 0.0 or 1.0 while
     [bool_at.(r)] is; pool registers are always known *)
  let known_v = sc.known_v and known_at = sc.known_at and bool_at = sc.bool_at in
  let region = ref (next_tick sc) in
  let known r = r >= const_base || known_at.(r) = !region in
  let value r = if r >= const_base then pool_get pool (r - const_base) else known_v.(r) in
  let is_bool r =
    (r < const_base && bool_at.(r) = !region)
    || (known r
       &&
       let f = value r in
       f = 0.0 || f = 1.0)
  in
  let all_known b = Array.for_all (fun slot -> known b.b_args.(slot - 1)) shapes.(b.b_op).s_srcs in
  let n = Array.length insts in
  for i = 0 to n - 1 do
    if leaders.(i) then region := next_tick sc;
    let b = insts.(i) in
    if not b.b_dead then begin
      let sh = shapes.(b.b_op) in
      if sh.s_dst then begin
        let dst = b.b_args.(0) in
        (* target-bearing writes (mov.jmp) transfer control: folding
           them to a plain MOV would drop the jump *)
        if all_known b && sh.s_target < 0 then begin
          let v = eval_pure b.b_op b.b_args value in
          (if is_setp b.b_op || (b.b_op = L.op_mov && b.b_args.(1) >= const_base) then ()
           else begin
             let creg = const_base + pool_find pool v in
             b.b_op <- L.op_mov;
             b.b_args <- [| dst; creg |];
             changed := true
           end);
          known_v.(dst) <- v;
          known_at.(dst) <- !region;
          bool_at.(dst) <- -1
        end
        else begin
          (* partial knowledge: resolve selects with a known condition,
             collapse to_bool of an already-boolean source *)
          (if b.b_op = L.op_select then begin
             if known b.b_args.(1) then begin
               let src = if value b.b_args.(1) <> 0.0 then b.b_args.(2) else b.b_args.(3) in
               b.b_op <- L.op_mov;
               b.b_args <- [| dst; src |];
               changed := true
             end
           end
           else if b.b_op = L.op_to_bool && is_bool b.b_args.(1) then begin
             b.b_op <- L.op_mov;
             b.b_args <- [| dst; b.b_args.(1) |];
             changed := true
           end);
          known_at.(dst) <- -1;
          bool_at.(dst) <-
            (if produces_bool b.b_op || (b.b_op = L.op_mov && is_bool b.b_args.(1)) then !region
             else -1)
        end
      end
      else if b.b_op = L.op_jz && known b.b_args.(0) then begin
        if value b.b_args.(0) = 0.0 then begin
          (* always taken *)
          b.b_op <- L.op_jmp;
          b.b_args <- [| 0 |]
        end
        else b.b_dead <- true (* never taken *);
        changed := true
      end
      else if is_psel b.b_op && all_known b then begin
        (* the probe it fires is known: a plain probe *)
        let k = Array.length b.b_args in
        let id = if psel_first b.b_op b.b_args value then b.b_args.(k - 2) else b.b_args.(k - 1) in
        b.b_op <- L.op_probe;
        b.b_args <- [| id |];
        changed := true
      end
    end
  done;
  !changed

(* --- pass: global copy propagation + move elimination ------------- *)

(* Available copies (d holds the same value as s) flow forward through
   the whole block in one walk. Step and init code only jump forward,
   so stream order is a topological order: the copies on a jump edge
   wait at its target as a pending set, and a target starts from the
   intersection of its pending set and, if its predecessor falls
   through, the copies reaching it in line. A back edge (possible only
   in hand-written code) sends its target in with no copies at all.
   Uses are rewritten to the copy's source; the dead MOVs are left to
   DCE. Sources are themselves never mapped, so one lookup resolves,
   and pool-register sources propagate constants.

   A write to s drops every copy of s at once: copy (d, s) records
   s's write count [version] when it was made, and holds only while
   that count is unchanged. [active] lists the registers that may
   hold a copy, for snapshotting the set at a jump; a snapshot leaves
   out the copies whose register is never read at the target or
   later. *)

(* a copy (d, s) packed into one int for the pending sets *)
let copy d s = (d lsl 31) lor s

let copy_dst c = c lsr 31

let copy_src c = c land 0x7fff_ffff

let copy_prop_pass sc ~nregs insts =
  let n = Array.length insts in
  let changed = ref false in
  let cp_src = sc.cp_src and cp_at = sc.cp_at and cp_ver = sc.cp_ver and version = sc.version in
  let active = sc.active and active_at = sc.active_at and last_read = sc.last_read in
  let pend_at = sc.pend_at and pend_lo = sc.pend_lo and pend_n = sc.pend_n in
  let stamp = sc.stamp in
  let walk = next_tick sc in
  (* back-edge targets, and the last instruction to read each register:
     a copy is carried to a jump target only if its register is read
     there or later *)
  Array.fill last_read 0 nregs (-1);
  for i = 0 to n - 1 do
    let b = insts.(i) in
    if not b.b_dead then begin
      if b.b_target >= 0 then begin
        let t = first_live insts b.b_target in
        if t <= i then stamp.(t) <- walk
      end;
      let srcs = shapes.(b.b_op).s_srcs in
      for k = 0 to Array.length srcs - 1 do
        let r = b.b_args.(srcs.(k) - 1) in
        if r < nregs then last_read.(r) <- i
      done
    end
  done;
  let epoch = ref (next_tick sc) in
  let n_active = ref 0 in
  let pend_top = ref 0 in
  let holds d =
    cp_at.(d) = !epoch
    &&
    let s = cp_src.(d) in
    s >= nregs || version.(s) = cp_ver.(d)
  in
  let push d =
    if active_at.(d) <> !epoch then begin
      active_at.(d) <- !epoch;
      active.(!n_active) <- d;
      incr n_active
    end
  in
  let add d s =
    cp_src.(d) <- s;
    cp_at.(d) <- !epoch;
    if s < nregs then cp_ver.(d) <- version.(s);
    push d
  in
  let clear () =
    epoch := next_tick sc;
    n_active := 0
  in
  (* merge the copies holding now into target t's pending set *)
  let edge_to t =
    if pend_at.(t) <> walk then begin
      let k = ref 0 in
      for a = 0 to !n_active - 1 do
        let d = active.(a) in
        if holds d then begin
          active.(!k) <- d;
          incr k
        end
        else active_at.(d) <- -1
      done;
      n_active := !k;
      if !pend_top + !k > Array.length sc.pend then begin
        let bigger = Array.make (2 * (!pend_top + !k)) 0 in
        Array.blit sc.pend 0 bigger 0 !pend_top;
        sc.pend <- bigger
      end;
      let pend = sc.pend and lo = !pend_top in
      for a = 0 to !k - 1 do
        let d = active.(a) in
        if last_read.(d) >= t then begin
          pend.(!pend_top) <- copy d cp_src.(d);
          incr pend_top
        end
      done;
      pend_at.(t) <- walk;
      pend_lo.(t) <- lo;
      pend_n.(t) <- !pend_top - lo
    end
    else begin
      let pend = sc.pend and lo = pend_lo.(t) in
      let k = ref 0 in
      for e = lo to lo + pend_n.(t) - 1 do
        let c = pend.(e) in
        let d = copy_dst c in
        if holds d && cp_src.(d) = copy_src c then begin
          pend.(lo + !k) <- c;
          incr k
        end
      done;
      pend_n.(t) <- !k
    end
  in
  (* the copies holding on entry to instruction i: a fall-through is
     one more edge into a jump target *)
  let join i ~falls =
    if stamp.(i) = walk then clear ()
    else if pend_at.(i) = walk then begin
      if falls then edge_to i;
      clear ();
      let pend = sc.pend and lo = pend_lo.(i) in
      for e = lo to lo + pend_n.(i) - 1 do
        add (copy_dst pend.(e)) (copy_src pend.(e))
      done
    end
    else if not falls then clear ()
  in
  let falls = ref true in
  for i = 0 to n - 1 do
    let b = insts.(i) in
    if not b.b_dead then begin
      join i ~falls:!falls;
      let sh = shapes.(b.b_op) in
      let srcs = sh.s_srcs in
      for k = 0 to Array.length srcs - 1 do
        let slot = srcs.(k) - 1 in
        let r = b.b_args.(slot) in
        if r < nregs && holds r then begin
          b.b_args.(slot) <- cp_src.(r);
          changed := true
        end
      done;
      let op = b.b_op in
      if op = L.op_mov && b.b_args.(1) = b.b_args.(0) then begin
        (* a self-move: dead, and control falls through it *)
        b.b_dead <- true;
        changed := true;
        falls := true
      end
      else begin
        if sh.s_dst then begin
          let d = b.b_args.(0) in
          version.(d) <- version.(d) + 1;
          cp_at.(d) <- -1;
          if (op = L.op_mov || op = L.op_mov_jmp) && b.b_args.(1) <> d then add d b.b_args.(1)
        end;
        if b.b_target >= 0 then begin
          let t = first_live insts b.b_target in
          if t > i then edge_to t
        end;
        falls := not (is_uncond_jump op || op = L.op_halt)
      end
    end
  done;
  !changed

(* --- control flow ------------------------------------------------- *)

(* [succ.(2i)] and [succ.(2i + 1)] are the live successors of live
   instruction i, or -1: a HALT has none, an unconditional jump only
   the first. *)
let successor_table sc insts =
  let n = Array.length insts in
  (* live.(j): the first live instruction at or after j *)
  let live = sc.live_at in
  live.(n) <- n;
  for j = n - 1 downto 0 do
    live.(j) <- (if insts.(j).b_dead then live.(j + 1) else j)
  done;
  let succ = sc.succ in
  Array.fill succ 0 (2 * n) (-1);
  for i = 0 to n - 1 do
    let b = insts.(i) in
    if (not b.b_dead) && b.b_op <> L.op_halt then
      if is_uncond_jump b.b_op then succ.(2 * i) <- live.(b.b_target)
      else if is_cond_jump b.b_op then begin
        succ.(2 * i) <- live.(b.b_target);
        succ.((2 * i) + 1) <- live.(i + 1)
      end
      else succ.(2 * i) <- live.(i + 1)
  done;
  succ

(* --- pass: unreachable-code elimination --------------------------- *)

(* Marks reachability in stream order, sweeping again only when a
   back edge reached an instruction already passed. *)
let unreachable_pass sc insts =
  let n = Array.length insts in
  let succ = successor_table sc insts in
  let reached = sc.stamp and tk = next_tick sc in
  reached.(first_live insts 0) <- tk;
  let again = ref true in
  while !again do
    again := false;
    for i = 0 to n - 1 do
      if reached.(i) = tk then
        for e = 2 * i to (2 * i) + 1 do
          let s = succ.(e) in
          if s >= 0 && reached.(s) <> tk then begin
            reached.(s) <- tk;
            if s <= i then again := true
          end
        done
    done
  done;
  let changed = ref false in
  for i = 0 to n - 2 (* keep the final HALT *) do
    if (not insts.(i).b_dead) && reached.(i) <> tk then begin
      insts.(i).b_dead <- true;
      changed := true
    end
  done;
  !changed

(* --- liveness + dead-write elimination ---------------------------- *)

(* Register sets are word bitsets over the runtime registers
   (r < const_base; pool registers are read-only and excluded):
   register r is bit [r mod word_bits] of word [r / word_bits]. The
   width is a literal (OCaml 5 ints are 63-bit) so the divisions
   compile to multiplies. *)
let[@inline] bit_mem set base r = set.(base + (r / word_bits)) land (1 lsl (r mod word_bits)) <> 0

let[@inline] bit_add set r =
  let k = r / word_bits in
  set.(k) <- set.(k) lor (1 lsl (r mod word_bits))

let[@inline] bit_remove set r =
  let k = r / word_bits in
  set.(k) <- set.(k) land lnot (1 lsl (r mod word_bits))

type liveness = {
  lv_words : int;  (* words per register set *)
  lv_succ : int array;  (* the successor table the sets were solved on *)
  lv_in : int array;  (* live-in of instruction i: words [i * lv_words, (i + 1) * lv_words) *)
  lv_roots : int array;  (* live-out of HALT *)
}

(* Per-instruction backward dataflow over the runtime registers
   [0, nregs), on [n] instructions with successors [succ] in
   [successor_table]'s layout. Instruction i, unless [dead i], has
   opcode [op i] and holds [arg i k] in operand slot k. Live-out of
   HALT is [roots]. The reverse sweep repeats until nothing changes,
   so back edges are handled; without back edges (generated code has
   none) every successor is final before its predecessor is visited,
   and one sweep is exact. Writes the live-in sets, one of
   [Array.length roots] words per instruction, into [live_in]; [out]
   is one set of working space. *)
let solve_liveness ~n ~succ ~nregs ~roots ~dead ~op ~arg ~live_in ~out =
  let w = Array.length roots in
  let back_edges = ref false in
  for k = 0 to (2 * n) - 1 do
    let s = succ.(k) in
    if s >= 0 && s <= k / 2 then back_edges := true
  done;
  Array.fill live_in 0 (n * w) 0;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      if not (dead i) then begin
        let s1 = succ.(2 * i) and s2 = succ.((2 * i) + 1) in
        for k = 0 to w - 1 do
          out.(k) <-
            (if s1 < 0 then roots.(k)
             else if s2 < 0 then live_in.((s1 * w) + k)
             else live_in.((s1 * w) + k) lor live_in.((s2 * w) + k))
        done;
        let sh = shapes.(op i) in
        if sh.s_dst then bit_remove out (arg i 1);
        let srcs = sh.s_srcs in
        for j = 0 to Array.length srcs - 1 do
          let r = arg i srcs.(j) in
          if r < nregs then bit_add out r
        done;
        let base = i * w in
        for k = 0 to w - 1 do
          if out.(k) <> live_in.(base + k) then begin
            live_in.(base + k) <- out.(k);
            changed := !back_edges
          end
        done
      end
    done
  done

let compute_liveness sc insts ~nregs ~roots =
  let succ = successor_table sc insts in
  solve_liveness ~n:(Array.length insts) ~succ ~nregs ~roots
    ~dead:(fun i -> insts.(i).b_dead)
    ~op:(fun i -> insts.(i).b_op)
    ~arg:(fun i k -> insts.(i).b_args.(k - 1))
    ~live_in:sc.live_in ~out:sc.out;
  { lv_words = Array.length roots; lv_succ = succ; lv_in = sc.live_in; lv_roots = roots }

(* Whether register r is live on exit from instruction i, from its
   successors' live-in sets as solved (later edits to the instruction
   stream do not affect the answer). *)
let live_out lv i r =
  let s1 = lv.lv_succ.(2 * i) and s2 = lv.lv_succ.((2 * i) + 1) in
  if s1 < 0 then bit_mem lv.lv_roots 0 r
  else
    bit_mem lv.lv_in (s1 * lv.lv_words) r
    || (s2 >= 0 && bit_mem lv.lv_in (s2 * lv.lv_words) r)

(* the psel firing what a setp fires, for when its register is dead:
   [setp.ne a, b, A, B] fires A exactly when [psel.eq a, b, B, A]
   does *)
let psel_of_setp (b : binst) =
  let a = b.b_args in
  if b.b_op = L.op_setp_nz then begin
    b.b_op <- L.op_psel_nz;
    b.b_args <- [| a.(1); a.(2); a.(3) |]
  end
  else if b.b_op = L.op_setp_ne then begin
    b.b_op <- L.op_psel_eq;
    b.b_args <- [| a.(1); a.(2); a.(4); a.(3) |]
  end
  else begin
    b.b_op <- b.b_op - L.op_setp_lt + L.op_psel_lt;
    b.b_args <- [| a.(1); a.(2); a.(3); a.(4) |]
  end

let dce_pass sc insts ~nregs ~roots =
  let lv = compute_liveness sc insts ~nregs ~roots in
  let changed = ref false in
  Array.iteri
    (fun i b ->
      (* target-bearing writes (mov.jmp) transfer control and must
         stay even when the written register is dead; a setp keeps
         its probe *)
      if (not b.b_dead) && shapes.(b.b_op).s_dst && shapes.(b.b_op).s_target < 0 then
        if not (live_out lv i b.b_args.(0)) then begin
          if is_setp b.b_op then psel_of_setp b else b.b_dead <- true;
          changed := true
        end)
    insts;
  !changed

(* --- pass: jump threading ----------------------------------------- *)

let thread_pass sc insts =
  let changed = ref false in
  let n = Array.length insts in
  (* follow jmp chains (cycle-guarded; generated code is acyclic but
     be safe) to the final destination index; [seen.(j) = tk] marks
     the jumps already followed while resolving one instruction *)
  let seen = sc.stamp in
  let resolve t =
    let tk = next_tick sc in
    let rec go j =
      let j = first_live insts j in
      if insts.(j).b_op = L.op_jmp && seen.(j) <> tk then begin
        seen.(j) <- tk;
        go insts.(j).b_target
      end
      else j
    in
    go t
  in
  for i = 0 to n - 1 do
    let b = insts.(i) in
    if (not b.b_dead) && b.b_target >= 0 then begin
      let t' = resolve b.b_target in
      if first_live insts b.b_target <> t' then begin
        b.b_target <- t';
        changed := true
      end;
      let fallthrough = next_live insts i in
      if t' = fallthrough then begin
        (* a branch to the fall-through is a no-op — but the fused
           forms carry a side effect that must survive as the unfused
           instruction. Probe-carrying branches stay as they are: both
           paths continue at the same pc, yet whether the probe fires
           still depends on the condition. *)
        if b.b_op = L.op_probe_jmp then begin
          b.b_op <- L.op_probe;
          b.b_args <- [| b.b_args.(0) |];
          b.b_target <- -1;
          changed := true
        end
        else if b.b_op = L.op_mov_jmp then begin
          b.b_op <- L.op_mov;
          b.b_args <- [| b.b_args.(0); b.b_args.(1) |];
          b.b_target <- -1;
          changed := true
        end
        else if not (is_probe_jump b.b_op) then begin
          b.b_dead <- true;
          changed := true
        end
      end
      else if b.b_op = L.op_jmp && insts.(t').b_op = L.op_halt then begin
        b.b_op <- L.op_halt;
        b.b_args <- [||];
        b.b_target <- -1;
        changed := true
      end
    end
  done;
  !changed

(* --- pass: superinstruction fusion -------------------------------- *)

(* [cmp_gt a b] and [cmp_ge a b] fuse as [jlt b a] and [jle b a]:
   swapping the operands is exact for IEEE compares, NaN and ±0
   included, so every fused relation is lt, le, eq or ne *)
let fused_of_cmp op =
  if op = L.op_cmp_eq then L.op_jeq
  else if op = L.op_cmp_ne then L.op_jne
  else if op = L.op_cmp_lt || op = L.op_cmp_gt then L.op_jlt
  else L.op_jle

let fused_of_arith op =
  if op = L.op_add_f then L.op_add_f32
  else if op = L.op_sub_f then L.op_sub_f32
  else if op = L.op_mul_f then L.op_mul_f32
  else L.op_div_f32

(* A conditional branch as the relation its fall-through depends on:
   [(rel, operands, negated, probe)] where the branch falls through
   exactly when [rel] holds (or, when [negated], fails), [rel] is one
   of the psel opcodes, and [probe] is the id a probe-carrying branch
   fires on fall-through (-1 for a plain branch). [jne] falls through
   when eq fails, [jz] when nz holds, [jnz] when it fails. *)
let branch_relation (b : binst) =
  let a = b.b_args in
  let op = b.b_op in
  if op >= L.op_jlt && op <= L.op_jne then
    let rel = if op = L.op_jne then L.op_psel_eq else op - L.op_jlt + L.op_psel_lt in
    Some (rel, [| a.(0); a.(1) |], op = L.op_jne, -1)
  else if op >= L.op_jlt_p && op <= L.op_jne_p then
    let rel = if op = L.op_jne_p then L.op_psel_eq else op - L.op_jlt_p + L.op_psel_lt in
    Some (rel, [| a.(0); a.(1) |], op = L.op_jne_p, a.(2))
  else if op = L.op_jz || op = L.op_jnz then Some (L.op_psel_nz, [| a.(0) |], op = L.op_jnz, -1)
  else if op = L.op_jz_p || op = L.op_jnz_p then
    Some (L.op_psel_nz, [| a.(0) |], op = L.op_jnz_p, a.(1))
  else None

(* Fusion walks the stream twice. A backward walk first closes
   branch-arm tails ([probe; jmp] and [mov; jmp]), so that the forward
   walk, which fuses each instruction with its successor again and
   again until no rule applies, sees a then-arm as one instruction and
   can close a whole [if] diamond in one walk. *)
let fuse_pass sc ~pool ~const_base insts ~nregs ~roots =
  let lv = compute_liveness sc insts ~nregs ~roots in
  let leaders = compute_leaders sc insts in
  let preds = sc.preds in
  let n = Array.length insts in
  Array.fill preds 0 n 0;
  for e = 0 to (2 * n) - 1 do
    let s = lv.lv_succ.(e) in
    if s >= 0 then preds.(s) <- preds.(s) + 1
  done;
  let changed = ref false in
  (* the pool register r holds exactly the bits of [f] *)
  let is_const r f =
    r >= const_base
    && Int64.equal (Int64.bits_of_float (pool_get pool (r - const_base))) (Int64.bits_of_float f)
  in
  let tail i =
    let b = insts.(i) in
    let j = next_live insts i in
    let f = insts.(j) in
    (* a jump into the middle of the pair would skip the first half *)
    if (not leaders.(j)) && f.b_op = L.op_jmp && (b.b_op = L.op_probe || b.b_op = L.op_mov)
    then begin
      b.b_op <- (if b.b_op = L.op_probe then L.op_probe_jmp else L.op_mov_jmp);
      b.b_args <- Array.append b.b_args [| 0 |];
      b.b_target <- f.b_target;
      f.b_dead <- true;
      changed := true
    end
  in
  (* [if c then <then-arm at j> else <else-arm at l>] closed into one
     psel or setp dispatch: b at i branches to l, the then-arm j (which
     [pair] has checked no jump enters) is one jump-ending instruction,
     l is an else-arm [probe] whose only predecessor is b, and both
     arms join right after the else-arm *)
  let diamond i =
    let b = insts.(i) in
    let j = next_live insts i in
    match branch_relation b with
    | None -> false
    | Some (rel, xs, negated, probe_a) ->
      let f = insts.(j) in
      let l = first_live insts b.b_target in
      (* checked in stream order, so [next_live] never runs past the
         final HALT *)
      let join_after k = first_live insts f.b_target = next_live insts k in
      if
        (not (is_uncond_jump f.b_op)) || l <> next_live insts j || insts.(l).b_op <> L.op_probe
        || preds.(l) <> 1
      then false
      else begin
        let probe_b = insts.(l).b_args.(0) in
        let fire_a =
          if probe_a >= 0 && f.b_op = L.op_jmp then probe_a
          else if probe_a < 0 && f.b_op = L.op_probe_jmp then f.b_args.(0)
          else -1
        in
        if fire_a >= 0 && join_after l then begin
          (* psel fires its first probe when [rel] holds *)
          let first, second = if negated then (probe_b, fire_a) else (fire_a, probe_b) in
          b.b_op <- rel;
          b.b_args <- Array.append xs [| first; second |];
          b.b_target <- -1;
          f.b_dead <- true;
          insts.(l).b_dead <- true;
          true
        end
        else begin
          let l2 = next_live insts l in
          let g = insts.(l2) in
          if
            probe_a >= 0 && f.b_op = L.op_mov_jmp && g.b_op = L.op_mov && (not leaders.(l2))
            && g.b_args.(0) = f.b_args.(0) && join_after l2
            && ((is_const f.b_args.(1) 1.0 && is_const g.b_args.(1) 0.0)
               || (is_const f.b_args.(1) 0.0 && is_const g.b_args.(1) 1.0))
          then begin
            (* the register gets [rel] when the fall-through value is 1
               and the branch is not negated, or 0 and it is *)
            let gets_rel = is_const f.b_args.(1) 1.0 <> negated in
            let setp =
              if gets_rel then
                Some
                  ( (if rel = L.op_psel_nz then L.op_setp_nz
                     else rel - L.op_psel_lt + L.op_setp_lt),
                    if negated then (probe_b, probe_a) else (probe_a, probe_b) )
              else if rel = L.op_psel_eq then
                (* the register gets [ne]: its first probe fires when eq fails *)
                Some (L.op_setp_ne, if negated then (probe_a, probe_b) else (probe_b, probe_a))
              else None
            in
            match setp with
            | None -> false
            | Some (op, (first, second)) ->
              b.b_op <- op;
              b.b_args <- Array.concat [ [| f.b_args.(0) |]; xs; [| first; second |] ];
              b.b_target <- -1;
              f.b_dead <- true;
              insts.(l).b_dead <- true;
              g.b_dead <- true;
              true
          end
          else false
        end
      end
  in
  (* fuse instruction i with its successor once; true if it did *)
  let pair i =
    let b = insts.(i) in
    let j = next_live insts i in
    let f = insts.(j) in
    let dst = if shapes.(b.b_op).s_dst then b.b_args.(0) else -1 in
    let adjacent = j < n && not leaders.(j) in
    if not adjacent then false
    else if
      b.b_op >= L.op_cmp_eq && b.b_op <= L.op_cmp_ge
      && f.b_op = L.op_jz && f.b_args.(0) = dst
      && not (live_out lv j dst)
    then begin
      let x = b.b_args.(1) and y = b.b_args.(2) in
      let swap = b.b_op = L.op_cmp_gt || b.b_op = L.op_cmp_ge in
      b.b_op <- fused_of_cmp b.b_op;
      b.b_args <- (if swap then [| y; x; 0 |] else [| x; y; 0 |]);
      b.b_target <- f.b_target;
      f.b_dead <- true;
      true
    end
    else if b.b_op = L.op_not && f.b_op = L.op_jz && f.b_args.(0) = dst && not (live_out lv j dst)
    then begin
      (* not t, s; jz t, L  ==  jump to L when s <> 0 *)
      b.b_op <- L.op_jnz;
      b.b_args <- [| b.b_args.(1); 0 |];
      b.b_target <- f.b_target;
      f.b_dead <- true;
      true
    end
    else if
      b.b_op >= L.op_add_f && b.b_op <= L.op_div_f
      && f.b_op = L.op_round_f32 && f.b_args.(1) = dst
      && (f.b_args.(0) = dst || not (live_out lv j dst))
    then begin
      b.b_op <- fused_of_arith b.b_op;
      b.b_args <- [| f.b_args.(0); b.b_args.(1); b.b_args.(2) |];
      f.b_dead <- true;
      true
    end
    else if diamond i then true
    else if b.b_op >= L.op_jlt && b.b_op <= L.op_jne && f.b_op = L.op_probe then begin
      (* branch + then-arm probe: the probe fires exactly when the
         branch falls through, so it rides along in the branch's own
         dispatch (leaders guard against jumps into the pair, so the
         jump path never reached the probe either) *)
      b.b_op <- b.b_op - L.op_jlt + L.op_jlt_p;
      b.b_args <- [| b.b_args.(0); b.b_args.(1); f.b_args.(0); 0 |];
      f.b_dead <- true;
      true
    end
    else if (b.b_op = L.op_jz || b.b_op = L.op_jnz) && f.b_op = L.op_probe then begin
      b.b_op <- (if b.b_op = L.op_jz then L.op_jz_p else L.op_jnz_p);
      b.b_args <- [| b.b_args.(0); f.b_args.(0); 0 |];
      f.b_dead <- true;
      true
    end
    else false
  in
  for i = n - 2 downto 0 do
    if not insts.(i).b_dead then tail i
  done;
  for i = 0 to n - 2 do
    if not insts.(i).b_dead then
      while pair i do
        changed := true
      done
  done;
  !changed

(* --- pass: block-local probe dedup -------------------------------- *)

(* Within a straight-line region, a [probe id] whose cell is already
   known to have fired on the path reaching it is a no-op: the byte
   store and the bit OR are both idempotent, so dropping it is
   observationally invisible. Knowledge
   comes from an earlier [probe id] in the region and from the
   fall-through of a probe-carrying branch (reaching the next
   instruction in line implies the branch fell through, hence fired).
   [probe_h] is never removed (its hook must fire every time) and
   contributes no knowledge, since hook-instrumented code must keep
   calling the hook even when the buffer byte is already set. A psel
   or setp fires one of two cells, so it teaches nothing. *)
let probe_dedup_pass sc ~leaders insts =
  let changed = ref false in
  (* probe id fired in the current region when [fired_at.(id)] is it *)
  let fired_at = sc.fired_at in
  let region = ref (next_tick sc) in
  Array.iteri
    (fun i b ->
      if leaders.(i) then region := next_tick sc;
      if not b.b_dead then begin
        let op = b.b_op in
        if op = L.op_probe then begin
          let id = b.b_args.(0) in
          if fired_at.(id) = !region then begin
            b.b_dead <- true;
            changed := true
          end
          else fired_at.(id) <- !region
        end
        else if op >= L.op_jlt_p && op <= L.op_jne_p then fired_at.(b.b_args.(2)) <- !region
        else if op = L.op_jz_p || op = L.op_jnz_p then fired_at.(b.b_args.(1)) <- !region
      end)
    insts;
  !changed

(* --- encode ------------------------------------------------------- *)

(* [pcs] is working space of at least one slot per instruction *)
let encode ~pcs insts =
  let n = Array.length insts in
  let pc = ref 0 in
  for i = 0 to n - 1 do
    if not insts.(i).b_dead then begin
      pcs.(i) <- !pc;
      pc := !pc + shapes.(insts.(i).b_op).s_size
    end
  done;
  let code = Array.make !pc 0 in
  for i = 0 to n - 1 do
    let b = insts.(i) in
    if not b.b_dead then begin
      let sh = shapes.(b.b_op) in
      let at = pcs.(i) in
      code.(at) <- b.b_op;
      Array.blit b.b_args 0 code (at + 1) (sh.s_size - 1);
      if sh.s_target >= 0 then code.(at + sh.s_target) <- pcs.(first_live insts b.b_target)
    end
  done;
  code

(* --- driver ------------------------------------------------------- *)

let optimize_bytecode (lin : L.t) : L.t =
  span "ir_opt.optimize_bytecode" @@ fun () ->
  let const_base = lin.L.l_const_base in
  let prog = lin.L.l_prog in
  let nregs = const_base in
  let n_probes = prog.Ir.n_probes in
  let pool = pool_of lin.L.l_consts in
  let sc =
    make_scratch
      ~n:(max (count_insts lin.L.l_init) (count_insts lin.L.l_step))
      ~nregs ~n_probes
  in
  let init_i = decode ~starts:sc.preds lin.L.l_init in
  let step_i = decode ~starts:sc.preds lin.L.l_step in
  (* DCE roots at block end: I/O and state variables, plus whatever
     the next step iteration reads before writing — the entry-live set
     of the current step code, taken to a fixpoint since rooting a
     register can extend liveness back to the entry. After both init
     and step the next thing to run is step, so the same set roots
     both blocks. *)
  let base_roots = Array.make (words_for nregs) 0 in
  let add_var (v : Ir.var) = if v.Ir.vid < nregs then bit_add base_roots v.Ir.vid in
  Array.iter add_var prog.Ir.inputs;
  Array.iter add_var prog.Ir.outputs;
  Array.iter add_var prog.Ir.states;
  let compute_roots () =
    let roots = Array.copy base_roots in
    let rec grow () =
      let lv = compute_liveness sc step_i ~nregs ~roots in
      let entry = first_live step_i 0 * lv.lv_words in
      let grew = ref false in
      Array.iteri
        (fun k r ->
          let r' = r lor lv.lv_in.(entry + k) in
          if r' <> r then begin
            roots.(k) <- r';
            grew := true
          end)
        roots;
      if !grew then grow ()
    in
    grow ();
    roots
  in
  (* const_prop and probe_dedup walk regions between leaders; the
     leaders are rebuilt only after a pass changed the stream *)
  let run_passes insts roots =
    let leaders = compute_leaders sc insts in
    let c1 =
      span "ir_opt.bc.const_prop" (fun () -> const_prop_pass sc ~pool ~const_base ~leaders insts)
    in
    let c2 = span "ir_opt.bc.copy_prop" (fun () -> copy_prop_pass sc ~nregs insts) in
    let c3 = span "ir_opt.bc.unreachable" (fun () -> unreachable_pass sc insts) in
    let c4 = span "ir_opt.bc.dce" (fun () -> dce_pass sc insts ~nregs ~roots) in
    let c5 = span "ir_opt.bc.thread" (fun () -> thread_pass sc insts) in
    let leaders = if c1 || c2 || c3 || c4 || c5 then compute_leaders sc insts else leaders in
    let c6 = span "ir_opt.bc.probe_dedup" (fun () -> probe_dedup_pass sc ~leaders insts) in
    c1 || c2 || c3 || c4 || c5 || c6
  in
  (* run to a fixpoint: simplify, fuse, then — because fusion and
     shrinking code can both expose more work (and shrink the root
     set) — repeat until a whole cycle changes nothing. The bound is a
     backstop; real models settle in two or three cycles. Reaching the
     fixpoint makes optimize_bytecode idempotent. *)
  let fuse insts = fuse_pass sc ~pool ~const_base insts ~nregs in
  let rec cycles k roots =
    if k > 0 then begin
      let rec rounds j =
        if j > 0 then begin
          let a = run_passes init_i roots in
          let b = run_passes step_i roots in
          if a || b then rounds (j - 1)
        end
      in
      rounds 8;
      let fa = span "ir_opt.bc.fuse" (fun () -> fuse init_i ~roots) in
      let fb = span "ir_opt.bc.fuse" (fun () -> fuse step_i ~roots) in
      if fa then ignore (thread_pass sc init_i);
      if fb then ignore (thread_pass sc step_i);
      let roots' = compute_roots () in
      if fa || fb || roots' <> roots then cycles (k - 1) roots'
    end
  in
  cycles 10 (compute_roots ());
  (* compact the constant pool to the registers the surviving code
     actually references *)
  let used = Array.make (max pool.p_n 1) (-1) in
  let n_used = ref 0 in
  let note_reads insts =
    Array.iter
      (fun b ->
        if not b.b_dead then
          Array.iter
            (fun slot ->
              let r = b.b_args.(slot - 1) in
              if r >= const_base then begin
                let ix = r - const_base in
                if used.(ix) < 0 then begin
                  used.(ix) <- !n_used;
                  incr n_used
                end
              end)
            shapes.(b.b_op).s_srcs)
      insts
  in
  note_reads init_i;
  note_reads step_i;
  let consts' = Array.make !n_used 0.0 in
  Array.iteri (fun old_ix new_ix -> if new_ix >= 0 then consts'.(new_ix) <- pool_get pool old_ix) used;
  let remap insts =
    Array.iter
      (fun b ->
        if not b.b_dead then
          Array.iter
            (fun slot ->
              let k = slot - 1 in
              let r = b.b_args.(k) in
              if r >= const_base then b.b_args.(k) <- const_base + used.(r - const_base))
            shapes.(b.b_op).s_srcs)
      insts
  in
  remap init_i;
  remap step_i;
  {
    lin with
    L.l_init = encode ~pcs:sc.preds init_i;
    l_step = encode ~pcs:sc.preds step_i;
    l_n_regs = const_base + !n_used;
    l_consts = consts';
  }

(* --- instruction counting + disassembly --------------------------- *)

let static_count (lin : L.t) = count_insts lin.L.l_init + count_insts lin.L.l_step

(* --- bytecode profiling ------------------------------------------- *)

let opcode_name op = shapes.(op).s_name

type bytecode_profile = {
  bp_dispatches : int;
  bp_init_dispatches : int;
  bp_step_dispatches : int;
  bp_opcode_dyn : int array;  (* dispatches per opcode, length n_opcodes *)
  bp_init_hits : int array;  (* hit count per instruction, in stream order *)
  bp_step_hits : int array;
}

(* Reference interpreter over the decoded form: executes init plus one
   step per input row (raw floats per inport, in port order), counting
   every instruction dispatched, per instruction and per opcode.
   Instrumentation ops count as one dispatch and are otherwise
   skipped. Kept separate from the Ir_vm dispatch loop on purpose: the
   hot loop stays untouched (and unperturbed) and profiling pays the
   decoded-form interpretation cost instead, which is fine for an
   opt-in diagnostic. *)
let profile_bytecode (lin : L.t) (rows : float array array) : bytecode_profile =
  let regs = Array.make (max lin.L.l_n_regs 1) 0.0 in
  let opcode_dyn = Array.make L.n_opcodes 0 in
  (* relation k of lt, le, eq, ne on the first two operand slots *)
  let rel_holds k (a : int array) =
    let x = regs.(a.(0)) and y = regs.(a.(1)) in
    match k with
    | 0 -> x < y
    | 1 -> x <= y
    | 2 -> x = y
    | _ -> x <> y
  in
  let run insts hits =
    let dispatched = ref 0 in
    let rec go i =
      let b = insts.(i) in
      incr dispatched;
      hits.(i) <- hits.(i) + 1;
      let op = b.b_op in
      opcode_dyn.(op) <- opcode_dyn.(op) + 1;
      if op = L.op_halt then ()
      else if op = L.op_jmp || op = L.op_probe_jmp then go b.b_target
      else if op = L.op_mov_jmp then begin
        regs.(b.b_args.(0)) <- regs.(b.b_args.(1));
        go b.b_target
      end
      else if op = L.op_jz then
        if regs.(b.b_args.(0)) = 0.0 then go b.b_target else go (i + 1)
      else if op = L.op_jnz then
        if regs.(b.b_args.(0)) <> 0.0 then go b.b_target else go (i + 1)
      else if op >= L.op_jlt && op <= L.op_jne then
        if rel_holds (op - L.op_jlt) b.b_args then go (i + 1) else go b.b_target
      else if op >= L.op_jlt_p && op <= L.op_jne_p then
        if rel_holds (op - L.op_jlt_p) b.b_args then go (i + 1) else go b.b_target
      else if op = L.op_jz_p then
        if regs.(b.b_args.(0)) = 0.0 then go b.b_target else go (i + 1)
      else if op = L.op_jnz_p then
        if regs.(b.b_args.(0)) <> 0.0 then go b.b_target else go (i + 1)
      else if shapes.(op).s_dst then begin
        regs.(b.b_args.(0)) <- eval_pure op b.b_args (fun r -> regs.(r));
        go (i + 1)
      end
      else go (i + 1) (* probe / psel / cond / decision / branch record *)
    in
    go 0;
    !dispatched
  in
  let init_i = decode lin.L.l_init and step_i = decode lin.L.l_step in
  let init_hits = Array.make (max (Array.length init_i) 1) 0 in
  let step_hits = Array.make (max (Array.length step_i) 1) 0 in
  Array.fill regs 0 (Array.length regs) 0.0;
  Array.blit lin.L.l_consts 0 regs lin.L.l_const_base (Array.length lin.L.l_consts);
  (* every If site watched, as on a fresh Ir_vm instance *)
  Array.fill regs lin.L.l_prog.Ir.n_vars lin.L.l_branch_sites 1.0;
  let init_n = run init_i init_hits in
  let inputs = lin.L.l_prog.Ir.inputs in
  let step_n = ref 0 in
  Array.iter
    (fun row ->
      Array.iteri (fun k f -> regs.(inputs.(k).Ir.vid) <- f) row;
      step_n := !step_n + run step_i step_hits)
    rows;
  {
    bp_dispatches = init_n + !step_n;
    bp_init_dispatches = init_n;
    bp_step_dispatches = !step_n;
    bp_opcode_dyn = opcode_dyn;
    bp_init_hits = init_hits;
    bp_step_hits = step_hits;
  }

(* [bench speed] reports the dynamic instruction-count reduction *)
let dynamic_count (lin : L.t) rows = (profile_bytecode lin rows).bp_dispatches

let opcode_histogram (lin : L.t) =
  let h = Array.make L.n_opcodes 0 in
  let scan code =
    let rec go i =
      if i < Array.length code then begin
        h.(code.(i)) <- h.(code.(i)) + 1;
        go (i + shapes.(code.(i)).s_size)
      end
    in
    go 0
  in
  scan lin.L.l_init;
  scan lin.L.l_step;
  h

let disassemble ?hits (lin : L.t) =
  let buf = Buffer.create 1024 in
  let const_base = lin.L.l_const_base in
  let block name code block_hits =
    Buffer.add_string buf (name ^ ":\n");
    let inst_ix = ref 0 in
    let rec go i =
      if i < Array.length code then begin
        let sh = shapes.(code.(i)) in
        (match block_hits with
        | Some h ->
          let n = if !inst_ix < Array.length h then h.(!inst_ix) else 0 in
          Buffer.add_string buf (Printf.sprintf "%10d x " n)
        | None -> ());
        incr inst_ix;
        Buffer.add_string buf (Printf.sprintf "%5d: %-10s" i sh.s_name);
        for slot = 1 to sh.s_size - 1 do
          let v = code.(i + slot) in
          let s =
            if slot = sh.s_target then Printf.sprintf "-> %d" v
            else if (slot = 1 && sh.s_dst) || Array.exists (( = ) slot) sh.s_srcs then
              if v >= const_base then
                Printf.sprintf "k%d(%g)" (v - const_base) lin.L.l_consts.(v - const_base)
              else Printf.sprintf "r%d" v
            else string_of_int v (* immediate: mask / half / probe id / … *)
          in
          Buffer.add_string buf (if slot = 1 then " " ^ s else ", " ^ s)
        done;
        Buffer.add_char buf '\n';
        go (i + sh.s_size)
      end
    in
    go 0
  in
  let init_hits, step_hits =
    match hits with
    | Some (a, b) -> (Some a, Some b)
    | None -> (None, None)
  in
  block "init" lin.L.l_init init_hits;
  block "step" lin.L.l_step step_hits;
  Buffer.contents buf

(* --- entry liveness, for resuming a run mid-input --------------- *)

(* The step block's entry-live registers: the live-in set of its first
   instruction, with nothing live at HALT. Rooting the result at HALT,
   as the dead-write roots are closed over the step loop, adds nothing:
   liveness is per register, and a register the roots would make live
   at the entry is one the step reads before writing, already in the
   set. Solved on the encoded stream, not on [decode]'s copy: a
   campaign asks once per prepared code, and the decoded copy's
   garbage raised its major heap's high-water mark by about a sixth
   (DESIGN.md §3). *)
let step_entry_live (lin : L.t) =
  let code = lin.L.l_step in
  let nregs = lin.L.l_const_base in
  let len = Array.length code in
  (* instruction index of each instruction's first slot *)
  let ix_of_pc = Array.make (len + 1) (-1) in
  let n = ref 0 and pc = ref 0 in
  while !pc < len do
    ix_of_pc.(!pc) <- !n;
    incr n;
    pc := !pc + shapes.(code.(!pc)).s_size
  done;
  let n = !n in
  let starts = Array.make n 0 in
  for pc = 0 to len - 1 do
    let i = ix_of_pc.(pc) in
    if i >= 0 then starts.(i) <- pc
  done;
  let succ = Array.make (2 * n) (-1) in
  for i = 0 to n - 1 do
    let pc = starts.(i) in
    let op = code.(pc) in
    let t = shapes.(op).s_target in
    let target = if t >= 0 then ix_of_pc.(code.(pc + t)) else -1 in
    if op = L.op_halt then ()
    else if is_uncond_jump op then succ.(2 * i) <- target
    else if is_cond_jump op then begin
      succ.(2 * i) <- target;
      succ.((2 * i) + 1) <- i + 1
    end
    else succ.(2 * i) <- i + 1
  done;
  let w = words_for nregs in
  let live_in = Array.make (n * w) 0 in
  solve_liveness ~n ~succ ~nregs ~roots:(Array.make w 0)
    ~dead:(fun _ -> false)
    ~op:(fun i -> code.(starts.(i)))
    ~arg:(fun i k -> code.(starts.(i) + k))
    ~live_in ~out:(Array.make w 0);
  let live = ref [] in
  for r = nregs - 1 downto 0 do
    if bit_mem live_in 0 r then live := r :: !live
  done;
  Array.of_list !live
