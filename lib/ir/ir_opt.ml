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
(*   2. copy propagation and move elimination                          *)
(*   3. unreachable-code elimination                                   *)
(*   4. dead-register-write elimination (probe/cond/decision/branch    *)
(*      ops, jumps, outputs, states, and cross-iteration reads are     *)
(*      roots)                                                         *)
(*   5. jump threading + fall-through elision                          *)
(*   6. superinstruction fusion (cmp+jz -> jlt/…, not+jz -> jnz,       *)
(*      arith_f+round_f32 -> *_f32)                                    *)
(* Folding reuses the exact VM arm formulas (wrap masks, div-by-zero   *)
(* guards, NaN handling, float32 normalization), so optimized code is  *)
(* bit-identical to unoptimized — the differential suite enforces it.  *)
(* ================================================================== *)

module L = Ir_linearize

(* --- static instruction shapes ------------------------------------ *)

(* Operand slots are classified so the passes know which slots hold
   registers (rewritable), which hold immediates (masks, probe ids —
   never touched), and which hold a jump target pc. *)
type shape = {
  s_name : string;
  s_size : int;  (* total slots including the opcode *)
  s_dst : bool;  (* slot 1 is a written register (all such ops are pure) *)
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
  def L.op_jgt "jgt" 4 false [ 1; 2 ] 3;
  def L.op_jge "jge" 4 false [ 1; 2 ] 3;
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
  def L.op_jgt_p "jgt.p" 5 false [ 1; 2 ] 4;
  def L.op_jge_p "jge.p" 5 false [ 1; 2 ] 4;
  def L.op_jz_p "jz.p" 4 false [ 1 ] 3;
  def L.op_jnz_p "jnz.p" 4 false [ 1 ] 3;
  def L.op_dt_eq "dt.eq" 4 true [ 2; 3 ] (-1);
  def L.op_df_eq "df.eq" 4 true [ 2; 3 ] (-1);
  def L.op_dt_lt "dt.lt" 4 true [ 2; 3 ] (-1);
  def L.op_df_lt "df.lt" 4 true [ 2; 3 ] (-1);
  def L.op_dt_le "dt.le" 4 true [ 2; 3 ] (-1);
  def L.op_df_le "df.le" 4 true [ 2; 3 ] (-1);
  def L.op_min_f "min.f" 4 true [ 2; 3 ] (-1);
  t

(* --- decoded form ------------------------------------------------- *)

type binst = {
  mutable b_op : int;
  mutable b_args : int array;  (* slots 1..size-1; the target slot (if any) is shadowed by b_target *)
  mutable b_target : int;  (* jump target as an instruction INDEX, or -1 *)
  mutable b_dead : bool;
}

let decode code =
  let len = Array.length code in
  let rec count i n = if i >= len then n else count (i + shapes.(code.(i)).s_size) (n + 1) in
  let n = count 0 0 in
  let insts = Array.make n { b_op = L.op_halt; b_args = [||]; b_target = -1; b_dead = false } in
  let pc2ix = Array.make (max len 1) (-1) in
  let i = ref 0 and k = ref 0 in
  while !i < len do
    let sh = shapes.(code.(!i)) in
    pc2ix.(!i) <- !k;
    insts.(!k) <-
      { b_op = code.(!i); b_args = Array.sub code (!i + 1) (sh.s_size - 1); b_target = -1; b_dead = false };
    i := !i + sh.s_size;
    incr k
  done;
  Array.iter
    (fun b ->
      let sh = shapes.(b.b_op) in
      if sh.s_target >= 0 then b.b_target <- pc2ix.(b.b_args.(sh.s_target - 1)))
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
  || (op >= L.op_jlt && op <= L.op_jge)
  || (op >= L.op_jlt_p && op <= L.op_jnz_p)

(* conditional jumps that fire a probe on fall-through — they carry a
   side effect, so they can never be deleted even when the branch
   itself becomes redundant *)
let is_probe_jump op = op >= L.op_jlt_p && op <= L.op_jnz_p

(* jumps that never fall through *)
let is_uncond_jump op = op = L.op_jmp || op = L.op_probe_jmp || op = L.op_mov_jmp

(* Leaders: instructions that can be reached from more than just the
   textually preceding instruction — straight-line dataflow state must
   be discarded there. Conservative superset is fine. *)
let compute_leaders insts =
  let n = Array.length insts in
  let leaders = Array.make n false in
  leaders.(first_live insts 0) <- true;
  Array.iteri
    (fun i b ->
      if not b.b_dead then begin
        if b.b_target >= 0 then leaders.(first_live insts b.b_target) <- true;
        if (is_uncond_jump b.b_op || b.b_op = L.op_halt) && i + 1 < n then
          leaders.(first_live insts (i + 1)) <- true
      end)
    insts;
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
  | 54 (* add_f32 *) -> Value.normalize_float Dtype.Float32 (v a.(1) +. v a.(2))
  | 55 (* sub_f32 *) -> Value.normalize_float Dtype.Float32 (v a.(1) -. v a.(2))
  | 56 (* mul_f32 *) -> Value.normalize_float Dtype.Float32 (v a.(1) *. v a.(2))
  | 57 (* div_f32 *) ->
    let y = v a.(2) in
    Value.normalize_float Dtype.Float32 (if y = 0.0 then 0.0 else v a.(1) /. y)
  | 68 (* dt_eq *) -> Float.abs (v a.(1) -. v a.(2))
  | 69 (* df_eq *) -> if Float.abs (v a.(1) -. v a.(2)) = 0.0 then 1.0 else 0.0
  | 70 (* dt_lt *) ->
    let d = v a.(1) -. v a.(2) in
    if d < 0.0 then 0.0 else d +. 1.0
  | 71 (* df_lt *) ->
    let d = v a.(1) -. v a.(2) in
    if d < 0.0 then -.d else 0.0
  | 72 (* dt_le *) ->
    let d = v a.(1) -. v a.(2) in
    if d <= 0.0 then 0.0 else d
  | 73 (* df_le *) ->
    let d = v a.(1) -. v a.(2) in
    if d <= 0.0 then -.d +. 1.0 else 0.0
  | 74 (* min_f *) -> Float.min (v a.(1)) (v a.(2))
  | _ -> assert false

(* ops whose result is known to be exactly 0.0 or 1.0 *)
let produces_bool op =
  op = L.op_not || op = L.op_to_bool
  || (op >= L.op_cmp_eq && op <= L.op_cmp_ge)
  || op = L.op_and || op = L.op_or

(* --- pass: constant folding + propagation ------------------------- *)

(* The straight-line passes (this one, copy propagation, probe dedup)
   learn facts per register or per probe id and forget them all at
   every leader. Each fact sits in a flat array next to the number of
   the region it was learned in and holds only while that number is
   the current region's, so forgetting everything is one counter
   increment. *)

(* Straight-line within basic blocks: per-register known values (and
   known-boolean facts) are tracked from each leader. Fully-known pure
   ops become MOVs from a (possibly new) pool register; selects and
   conditional jumps with a known condition are resolved. Saturation
   bounds (f2i_sat's lo/hi) are register operands from the pool, so
   they participate as ordinary known values — folding goes through
   the same clamp the VM would apply rather than a naive conversion. *)
let const_prop_pass ~pool ~const_base ~leaders insts =
  let changed = ref false in
  (* runtime register r holds [known_v.(r)] while [known_at.(r)] is
     the current region, and is known to be 0.0 or 1.0 while
     [bool_at.(r)] is; pool registers are always known *)
  let known_v = Array.make const_base 0.0 in
  let known_at = Array.make const_base (-1) in
  let bool_at = Array.make const_base (-1) in
  let region = ref 0 in
  let known r = r >= const_base || known_at.(r) = !region in
  let value r = if r >= const_base then pool_get pool (r - const_base) else known_v.(r) in
  let is_bool r =
    (r < const_base && bool_at.(r) = !region)
    || (known r
       &&
       let f = value r in
       f = 0.0 || f = 1.0)
  in
  let n = Array.length insts in
  for i = 0 to n - 1 do
    if leaders.(i) then incr region;
    let b = insts.(i) in
    if not b.b_dead then begin
      let sh = shapes.(b.b_op) in
      if sh.s_dst then begin
        let dst = b.b_args.(0) in
        let all_known = Array.for_all (fun slot -> known b.b_args.(slot - 1)) sh.s_srcs in
        (* target-bearing writes (mov.jmp) transfer control: folding
           them to a plain MOV would drop the jump *)
        if all_known && sh.s_target < 0 then begin
          let v = eval_pure b.b_op b.b_args value in
          (if b.b_op = L.op_mov && b.b_args.(1) >= const_base then ()
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
    end
  done;
  !changed

(* --- pass: copy propagation + move elimination -------------------- *)

let copy_prop_pass ~const_base ~leaders insts =
  let changed = ref false in
  (* runtime register d holds the same value as root register
     [copy_src.(d)] while [copy_at.(d)] is the current region; stored
     roots are themselves unmapped, so one lookup resolves.
     [holders.(s)] lists the registers mapped to s in its region
     (entries may since have been remapped), so a write to s drops
     exactly its copies without scanning the whole map. *)
  let copy_src = Array.make const_base 0 in
  let copy_at = Array.make const_base (-1) in
  let holders = Array.make const_base [] in
  let holders_at = Array.make const_base (-1) in
  let region = ref 0 in
  let resolve r = if r < const_base && copy_at.(r) = !region then copy_src.(r) else r in
  let n = Array.length insts in
  for i = 0 to n - 1 do
    if leaders.(i) then incr region;
    let b = insts.(i) in
    if not b.b_dead then begin
      let sh = shapes.(b.b_op) in
      Array.iter
        (fun slot ->
          let k = slot - 1 in
          let r = b.b_args.(k) in
          let r' = resolve r in
          if r' <> r then begin
            b.b_args.(k) <- r';
            changed := true
          end)
        sh.s_srcs;
      if sh.s_dst then begin
        let dst = b.b_args.(0) in
        copy_at.(dst) <- -1;
        if holders_at.(dst) = !region then begin
          List.iter
            (fun d -> if copy_at.(d) = !region && copy_src.(d) = dst then copy_at.(d) <- -1)
            holders.(dst);
          holders.(dst) <- []
        end;
        if b.b_op = L.op_mov then begin
          let src = b.b_args.(1) in
          if src = dst then begin
            b.b_dead <- true;
            changed := true
          end
          else begin
            copy_src.(dst) <- src;
            copy_at.(dst) <- !region;
            if src < const_base then
              if holders_at.(src) = !region then holders.(src) <- dst :: holders.(src)
              else begin
                holders.(src) <- [ dst ];
                holders_at.(src) <- !region
              end
          end
        end
      end
    end
  done;
  !changed

(* --- control flow ------------------------------------------------- *)

(* [succ.(2i)] and [succ.(2i + 1)] are the live successors of live
   instruction i, or -1: a HALT has none, an unconditional jump only
   the first. *)
let successor_table insts =
  let n = Array.length insts in
  (* live.(j): the first live instruction at or after j *)
  let live = Array.make (n + 1) n in
  for j = n - 1 downto 0 do
    live.(j) <- (if insts.(j).b_dead then live.(j + 1) else j)
  done;
  let succ = Array.make (2 * n) (-1) in
  Array.iteri
    (fun i b ->
      if (not b.b_dead) && b.b_op <> L.op_halt then
        if is_uncond_jump b.b_op then succ.(2 * i) <- live.(b.b_target)
        else begin
          succ.(2 * i) <- (if is_cond_jump b.b_op then live.(b.b_target) else live.(i + 1));
          if is_cond_jump b.b_op then succ.((2 * i) + 1) <- live.(i + 1)
        end)
    insts;
  succ

(* --- pass: unreachable-code elimination --------------------------- *)

let unreachable_pass insts =
  let n = Array.length insts in
  let succ = successor_table insts in
  let visited = Array.make n false in
  let rec dfs i =
    if i >= 0 && not visited.(i) then begin
      visited.(i) <- true;
      dfs succ.(2 * i);
      dfs succ.((2 * i) + 1)
    end
  in
  dfs (first_live insts 0);
  let changed = ref false in
  for i = 0 to n - 2 (* keep the final HALT *) do
    if (not insts.(i).b_dead) && not visited.(i) then begin
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
let word_bits = 63

let words_for nregs = (nregs + word_bits - 1) / word_bits

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
   and one sweep is exact. Returns the live-in sets, one of
   [Array.length roots] words per instruction. *)
let solve_liveness ~n ~succ ~nregs ~roots ~dead ~op ~arg =
  let w = Array.length roots in
  let back_edges = ref false in
  for k = 0 to (2 * n) - 1 do
    let s = succ.(k) in
    if s >= 0 && s <= k / 2 then back_edges := true
  done;
  let live_in = Array.make (n * w) 0 in
  let out = Array.make w 0 in
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
  done;
  live_in

let compute_liveness insts ~nregs ~roots =
  let succ = successor_table insts in
  let live_in =
    solve_liveness ~n:(Array.length insts) ~succ ~nregs ~roots
      ~dead:(fun i -> insts.(i).b_dead)
      ~op:(fun i -> insts.(i).b_op)
      ~arg:(fun i k -> insts.(i).b_args.(k - 1))
  in
  { lv_words = Array.length roots; lv_succ = succ; lv_in = live_in; lv_roots = roots }

(* Whether register r is live on exit from instruction i, from its
   successors' live-in sets as solved (later edits to the instruction
   stream do not affect the answer). *)
let live_out lv i r =
  let s1 = lv.lv_succ.(2 * i) and s2 = lv.lv_succ.((2 * i) + 1) in
  if s1 < 0 then bit_mem lv.lv_roots 0 r
  else
    bit_mem lv.lv_in (s1 * lv.lv_words) r
    || (s2 >= 0 && bit_mem lv.lv_in (s2 * lv.lv_words) r)

let dce_pass insts ~nregs ~roots =
  let lv = compute_liveness insts ~nregs ~roots in
  let changed = ref false in
  Array.iteri
    (fun i b ->
      (* target-bearing writes (mov.jmp) transfer control and must
         stay even when the written register is dead *)
      if (not b.b_dead) && shapes.(b.b_op).s_dst && shapes.(b.b_op).s_target < 0 then
        if not (live_out lv i b.b_args.(0)) then begin
          b.b_dead <- true;
          changed := true
        end)
    insts;
  !changed

(* --- pass: jump threading ----------------------------------------- *)

let thread_pass insts =
  let changed = ref false in
  let n = Array.length insts in
  (* follow jmp chains (cycle-guarded; generated code is acyclic but
     be safe) to the final destination index; [seen.(j) = i] marks
     the jumps already followed while resolving instruction i *)
  let seen = Array.make n (-1) in
  let resolve i t =
    let rec go j =
      let j = first_live insts j in
      if insts.(j).b_op = L.op_jmp && seen.(j) <> i then begin
        seen.(j) <- i;
        go insts.(j).b_target
      end
      else j
    in
    go t
  in
  for i = 0 to n - 1 do
    let b = insts.(i) in
    if (not b.b_dead) && b.b_target >= 0 then begin
      let t' = resolve i b.b_target in
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

let fused_of_cmp op =
  if op = L.op_cmp_eq then L.op_jeq
  else if op = L.op_cmp_ne then L.op_jne
  else if op = L.op_cmp_lt then L.op_jlt
  else if op = L.op_cmp_le then L.op_jle
  else if op = L.op_cmp_gt then L.op_jgt
  else L.op_jge

let fused_of_arith op =
  if op = L.op_add_f then L.op_add_f32
  else if op = L.op_sub_f then L.op_sub_f32
  else if op = L.op_mul_f then L.op_mul_f32
  else L.op_div_f32

let fuse_pass insts ~nregs ~roots =
  let lv = compute_liveness insts ~nregs ~roots in
  let leaders = compute_leaders insts in
  let changed = ref false in
  let n = Array.length insts in
  for i = 0 to n - 2 do
    let b = insts.(i) in
    if not b.b_dead then begin
      let j = next_live insts i in
      let f = insts.(j) in
      let dst = if shapes.(b.b_op).s_dst then b.b_args.(0) else -1 in
      (* a jump into the middle of the pair would skip the first half *)
      let adjacent = j < n && not leaders.(j) in
      if
        adjacent && b.b_op >= L.op_cmp_eq && b.b_op <= L.op_cmp_ge
        && f.b_op = L.op_jz && f.b_args.(0) = dst
        && not (live_out lv j dst)
      then begin
        b.b_op <- fused_of_cmp b.b_op;
        b.b_args <- [| b.b_args.(1); b.b_args.(2); 0 |];
        b.b_target <- f.b_target;
        f.b_dead <- true;
        changed := true
      end
      else if
        adjacent && b.b_op = L.op_not && f.b_op = L.op_jz && f.b_args.(0) = dst
        && not (live_out lv j dst)
      then begin
        (* not t, s; jz t, L  ==  jump to L when s <> 0 *)
        b.b_op <- L.op_jnz;
        b.b_args <- [| b.b_args.(1); 0 |];
        b.b_target <- f.b_target;
        f.b_dead <- true;
        changed := true
      end
      else if
        adjacent && b.b_op >= L.op_add_f && b.b_op <= L.op_div_f
        && f.b_op = L.op_round_f32 && f.b_args.(1) = dst
        && (f.b_args.(0) = dst || not (live_out lv j dst))
      then begin
        b.b_op <- fused_of_arith b.b_op;
        b.b_args <- [| f.b_args.(0); b.b_args.(1); b.b_args.(2) |];
        f.b_dead <- true;
        changed := true
      end
      else if adjacent && b.b_op = L.op_probe && f.b_op = L.op_jmp then begin
        b.b_op <- L.op_probe_jmp;
        b.b_args <- [| b.b_args.(0); 0 |];
        b.b_target <- f.b_target;
        f.b_dead <- true;
        changed := true
      end
      else if
        adjacent && b.b_op >= L.op_jlt && b.b_op <= L.op_jge && f.b_op = L.op_probe
      then begin
        (* branch + then-arm probe: the probe fires exactly when the
           branch falls through, so it rides along in the branch's own
           dispatch (leaders guard against jumps into the pair, so the
           jump path never reached the probe either) *)
        b.b_op <- b.b_op - L.op_jlt + L.op_jlt_p;
        b.b_args <- [| b.b_args.(0); b.b_args.(1); f.b_args.(0); 0 |];
        f.b_dead <- true;
        changed := true
      end
      else if
        adjacent && (b.b_op = L.op_jz || b.b_op = L.op_jnz) && f.b_op = L.op_probe
      then begin
        b.b_op <- (if b.b_op = L.op_jz then L.op_jz_p else L.op_jnz_p);
        b.b_args <- [| b.b_args.(0); f.b_args.(0); 0 |];
        f.b_dead <- true;
        changed := true
      end
      else if adjacent && b.b_op = L.op_mov && f.b_op = L.op_jmp then begin
        b.b_op <- L.op_mov_jmp;
        b.b_args <- [| b.b_args.(0); b.b_args.(1); 0 |];
        b.b_target <- f.b_target;
        f.b_dead <- true;
        changed := true
      end
    end
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
   calling the hook even when the buffer byte is already set. *)
let probe_dedup_pass ~n_probes ~leaders insts =
  let changed = ref false in
  (* probe id fired in the current region when [fired_at.(id)] is it *)
  let fired_at = Array.make n_probes (-1) in
  let region = ref 0 in
  Array.iteri
    (fun i b ->
      if leaders.(i) then incr region;
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
        else if op >= L.op_jlt_p && op <= L.op_jge_p then fired_at.(b.b_args.(2)) <- !region
        else if op = L.op_jz_p || op = L.op_jnz_p then fired_at.(b.b_args.(1)) <- !region
      end)
    insts;
  !changed

(* --- encode ------------------------------------------------------- *)

let encode insts =
  let n = Array.length insts in
  let pcs = Array.make n (-1) in
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
  let init_i = decode lin.L.l_init in
  let step_i = decode lin.L.l_step in
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
      let lv = compute_liveness step_i ~nregs ~roots in
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
  (* const_prop, copy_prop and probe_dedup all walk regions between
     leaders; the leaders are rebuilt only after a pass changed the
     stream *)
  let run_passes insts roots =
    let leaders = compute_leaders insts in
    let c1 =
      span "ir_opt.bc.const_prop" (fun () -> const_prop_pass ~pool ~const_base ~leaders insts)
    in
    let leaders = if c1 then compute_leaders insts else leaders in
    let c2 = span "ir_opt.bc.copy_prop" (fun () -> copy_prop_pass ~const_base ~leaders insts) in
    let c3 = span "ir_opt.bc.unreachable" (fun () -> unreachable_pass insts) in
    let c4 = span "ir_opt.bc.dce" (fun () -> dce_pass insts ~nregs ~roots) in
    let c5 = span "ir_opt.bc.thread" (fun () -> thread_pass insts) in
    let leaders = if c2 || c3 || c4 || c5 then compute_leaders insts else leaders in
    let c6 = span "ir_opt.bc.probe_dedup" (fun () -> probe_dedup_pass ~n_probes ~leaders insts) in
    c1 || c2 || c3 || c4 || c5 || c6
  in
  (* run to a fixpoint: simplify, fuse, then — because fusion and
     shrinking code can both expose more work (and shrink the root
     set) — repeat until a whole cycle changes nothing. The bound is a
     backstop; real models settle in two or three cycles. Reaching the
     fixpoint makes optimize_bytecode idempotent. *)
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
      let fa = span "ir_opt.bc.fuse" (fun () -> fuse_pass init_i ~nregs ~roots) in
      let fb = span "ir_opt.bc.fuse" (fun () -> fuse_pass step_i ~nregs ~roots) in
      if fa then ignore (thread_pass init_i);
      if fb then ignore (thread_pass step_i);
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
    L.l_init = encode init_i;
    l_step = encode step_i;
    l_n_regs = const_base + !n_used;
    l_consts = consts';
  }

(* --- instruction counting + disassembly --------------------------- *)

let static_count (lin : L.t) =
  let count code =
    let rec go i n = if i >= Array.length code then n else go (i + shapes.(code.(i)).s_size) (n + 1) in
    go 0 0
  in
  count lin.L.l_init + count lin.L.l_step

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
      else if op >= L.op_jlt && op <= L.op_jge then begin
        let x = regs.(b.b_args.(0)) and y = regs.(b.b_args.(1)) in
        let holds =
          if op = L.op_jlt then x < y
          else if op = L.op_jle then x <= y
          else if op = L.op_jeq then x = y
          else if op = L.op_jne then x <> y
          else if op = L.op_jgt then x > y
          else x >= y
        in
        if holds then go (i + 1) else go b.b_target
      end
      else if op >= L.op_jlt_p && op <= L.op_jge_p then begin
        let x = regs.(b.b_args.(0)) and y = regs.(b.b_args.(1)) in
        let holds =
          if op = L.op_jlt_p then x < y
          else if op = L.op_jle_p then x <= y
          else if op = L.op_jeq_p then x = y
          else if op = L.op_jne_p then x <> y
          else if op = L.op_jgt_p then x > y
          else x >= y
        in
        if holds then go (i + 1) else go b.b_target
      end
      else if op = L.op_jz_p then
        if regs.(b.b_args.(0)) = 0.0 then go b.b_target else go (i + 1)
      else if op = L.op_jnz_p then
        if regs.(b.b_args.(0)) <> 0.0 then go b.b_target else go (i + 1)
      else if shapes.(op).s_dst then begin
        regs.(b.b_args.(0)) <- eval_pure op b.b_args (fun r -> regs.(r));
        go (i + 1)
      end
      else go (i + 1) (* probe / cond / decision / branch record *)
    in
    go 0;
    !dispatched
  in
  let init_i = decode lin.L.l_init and step_i = decode lin.L.l_step in
  let init_hits = Array.make (max (Array.length init_i) 1) 0 in
  let step_hits = Array.make (max (Array.length step_i) 1) 0 in
  Array.fill regs 0 (Array.length regs) 0.0;
  Array.blit lin.L.l_consts 0 regs lin.L.l_const_base (Array.length lin.L.l_consts);
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
  let live_in =
    solve_liveness ~n ~succ ~nregs ~roots:(Array.make (words_for nregs) 0)
      ~dead:(fun _ -> false)
      ~op:(fun i -> code.(starts.(i)))
      ~arg:(fun i k -> code.(starts.(i) + k))
  in
  let live = ref [] in
  for r = nregs - 1 downto 0 do
    if bit_mem live_in 0 r then live := r :: !live
  done;
  Array.of_list !live
