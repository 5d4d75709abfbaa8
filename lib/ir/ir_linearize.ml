open Cftcg_model

(* Flattens an [Ir.program] into three-address bytecode over an
   int-indexed register file of unboxed floats.

   Register file layout:  [ variables | temporaries | constants ]
   - variables sit at their [vid], so raw access by variable id
     (load_input / read_raw) needs no lookup;
   - temporaries are statement-scoped (reset per statement, watermark
     sizes the file);
   - constants are pooled by bit pattern and materialized once per
     reset by blitting [l_consts] at [l_const_base].

   All dtype-dependent semantics (integer wrap masks, saturation
   bounds, float32 rounding) are resolved here and baked into operand
   slots, so the interpreter in {!Ir_vm} dispatches on opcode alone.
   The numeric formulas mirror {!Value}'s boxed arithmetic; the
   differential test suite holds the VM to bit-identical behaviour
   with {!Ir_eval}. *)

(* --- opcode numbers (dispatch table in Ir_vm.exec matches these) --- *)
let op_mov = 0
let op_add_f = 1
let op_sub_f = 2
let op_mul_f = 3
let op_div_f = 4
let op_rem_f = 5
let op_add_i = 6
let op_sub_i = 7
let op_mul_i = 8
let op_div_i = 9
let op_rem_i = 10
let op_neg_f = 11
let op_neg_i = 12
let op_abs_f = 13
let op_abs_i = 14
let op_not = 15
let op_to_bool = 16
let op_round_f32 = 17
let op_f2i_sat = 18
let op_wrap_i = 19
let op_floor = 20
let op_ceil = 21
let op_round = 22
let op_trunc = 23
let op_exp = 24
let op_log = 25
let op_log10 = 26
let op_sqrt = 27
let op_sin = 28
let op_cos = 29
let op_cmp_eq = 30
let op_cmp_ne = 31
let op_cmp_lt = 32
let op_cmp_le = 33
let op_cmp_gt = 34
let op_cmp_ge = 35
let op_and = 36
let op_or = 37
let op_select = 38
let op_jmp = 39
let op_jz = 40
let op_probe = 41
let op_probe_h = 42
let op_cond = 43
let op_decision = 44
let op_branch = 45
let op_halt = 46

(* Superinstructions 47..57 are never emitted by the linearizer —
   only Ir_opt's bytecode fusion pass produces them. The fused
   compare-and-jump forms replace a [cmp_*; jz] pair and take the
   jump when the comparison is FALSE (bit-for-bit what the pair
   computed, NaN behaviour included — [jlt a b L] is *not* the same
   as [jge a b L] when an operand is NaN). *)
let op_jlt = 47
let op_jle = 48
let op_jeq = 49
let op_jne = 50
let op_jgt = 51
let op_jge = 52
let op_jnz = 53 (* [not; jz] pair: jump when the source is non-zero *)

(* float32 arithmetic: [add_f/…; round_f32] pair fused into one
   dispatch (result normalized to float32 before the store) *)
let op_add_f32 = 54
let op_sub_f32 = 55
let op_mul_f32 = 56
let op_div_f32 = 57

(* branch-arm tails: a probe or mov immediately followed by an
   unconditional jmp (the common shape of a then-arm) collapse into
   one dispatch *)
let op_probe_jmp = 58
let op_mov_jmp = 59

(* probe-carrying conditional branches: a fused compare-and-jump (or
   jz/jnz) immediately followed by a coverage [probe] collapses into
   one dispatch. The branch-arm probe is the single most common
   instrumented shape (every then-arm opens with one), so on the
   instrumented hot path these save a dispatch per taken branch.
   Semantics are exactly the pair's: when the branch falls through the
   probe fires, when it jumps the probe is skipped.
   Layout: [jlt.p a, b, id, L] / [jz.p r, id, L]. *)
let op_jlt_p = 60
let op_jle_p = 61
let op_jeq_p = 62
let op_jne_p = 63
let op_jgt_p = 64
let op_jge_p = 65
let op_jz_p = 66
let op_jnz_p = 67

(* branch-distance opcodes 68..74, emitted only under [branch]
   instrumentation: each computes one side of a comparison's Korel
   distance (K = 1) into a single register, bit-for-bit the formula
   Ir_eval.branch_distances uses, so they are pure ALU ops to the
   optimizer. [gt]/[ge] reuse [lt]/[le] with swapped operands, [ne]
   swaps [eq]'s two sides, and [min.f] (Float.min, NaN-propagating)
   combines conjunctions and disjunctions. *)
let op_dt_eq = 68 (* |a-b| *)
let op_df_eq = 69 (* 1 if |a-b| = 0 else 0 *)
let op_dt_lt = 70 (* d = a-b: 0 if d < 0 else d+1 *)
let op_df_lt = 71 (* d = a-b: -d if d < 0 else 0 *)
let op_dt_le = 72 (* d = a-b: 0 if d <= 0 else d *)
let op_df_le = 73 (* d = a-b: -d+1 if d <= 0 else 0 *)
let op_min_f = 74

let n_opcodes = 75

type instrumentation = {
  probe_hook : bool;  (** emit [op_probe_h] (buffer write + hook call) per probe *)
  cond : bool;  (** emit [op_cond] for [Record_cond] *)
  decision : bool;  (** emit [op_decision] for [Record_decision] *)
  branch : bool;  (** emit distance code + [op_branch] before every [If] *)
}

let no_instrumentation = { probe_hook = false; cond = false; decision = false; branch = false }

type t = {
  l_prog : Ir.program;
  l_init : int array;
  l_step : int array;
  l_n_regs : int;
  l_const_base : int;
  l_consts : float array;
  l_branch_sites : int;  (** [If]s carrying an [op_branch] record: all or none *)
}

(* ------------------------------------------------------------------ *)
(* Emitter                                                             *)
(* ------------------------------------------------------------------ *)

type emitter = {
  n_vars : int;
  instrument : instrumentation;
  mutable code : int array;
  mutable len : int;
  mutable const_slots : int list;  (* code positions holding a symbolic const reg *)
  const_ix : (int64, int) Hashtbl.t;
  mutable consts_rev : float list;
  mutable n_consts : int;
  mutable cur_temp : int;
  mutable max_temp : int;
  mutable n_ifs : int;
}

let create_emitter n_vars instrument =
  {
    n_vars;
    instrument;
    code = Array.make 64 0;
    len = 0;
    const_slots = [];
    const_ix = Hashtbl.create 16;
    consts_rev = [];
    n_consts = 0;
    cur_temp = 0;
    max_temp = 0;
    n_ifs = 0;
  }

let push em v =
  if em.len = Array.length em.code then begin
    let bigger = Array.make (2 * em.len) 0 in
    Array.blit em.code 0 bigger 0 em.len;
    em.code <- bigger
  end;
  em.code.(em.len) <- v;
  em.len <- em.len + 1

(* Source-register operands may be symbolic constant references
   (negative); their positions are recorded for the final remap. *)
let push_reg em r =
  if r < 0 then em.const_slots <- em.len :: em.const_slots;
  push em r

let const_reg em f =
  let bits = Int64.bits_of_float f in
  match Hashtbl.find_opt em.const_ix bits with
  | Some ix -> -(ix + 1)
  | None ->
    let ix = em.n_consts in
    Hashtbl.replace em.const_ix bits ix;
    em.consts_rev <- f :: em.consts_rev;
    em.n_consts <- ix + 1;
    -(ix + 1)

let temp em =
  let t = em.n_vars + em.cur_temp in
  em.cur_temp <- em.cur_temp + 1;
  if em.cur_temp > em.max_temp then em.max_temp <- em.cur_temp;
  t

(* snapshot the current buffer (one block each for init and step),
   terminated by HALT so the interpreter needs no bounds check *)
let take em =
  push em op_halt;
  let code = Array.sub em.code 0 em.len in
  let slots = em.const_slots in
  em.len <- 0;
  em.const_slots <- [];
  (code, slots)

(* ------------------------------------------------------------------ *)
(* Dtype-derived operand values                                        *)
(* ------------------------------------------------------------------ *)

let int_bits ty = 8 * Dtype.size_bytes ty

let wrap_mask ty = (1 lsl int_bits ty) - 1

(* [m land mask] then sign-adjust when [m >= half]; unsigned types get
   half = modulus so the adjust never fires — one formula for both. *)
let wrap_half ty =
  let modulus = 1 lsl int_bits ty in
  if Dtype.is_signed ty then modulus / 2 else modulus

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                 *)
(* ------------------------------------------------------------------ *)

(* [dst] is an optional destination hint: when present, the final
   instruction of the lowered expression writes it (avoids a MOV in
   the common identity-typed Assign). *)
let rec lower_expr ?dst em (e : Ir.expr) : int =
  match e with
  | Ir.Const v -> place ?dst em (const_reg em (Value.to_float v))
  | Ir.Read v -> place ?dst em v.Ir.vid
  | Ir.Unop (op, a) -> lower_unop ?dst em op a
  | Ir.Binop (op, ty, a, b) -> lower_binop ?dst em op ty a b
  | Ir.Select (c, a, b) ->
    let rc = lower_expr em c in
    let ra = lower_expr em a in
    let rb = lower_expr em b in
    let d = dest ?dst em in
    push em op_select;
    push em d;
    push_reg em rc;
    push_reg em ra;
    push_reg em rb;
    d

and dest ?dst em =
  match dst with
  | Some d -> d
  | None -> temp em

(* a value already lives in [r]; honour the hint with a MOV if needed *)
and place ?dst em r =
  match dst with
  | Some d when d <> r ->
    push em op_mov;
    push em d;
    push_reg em r;
    d
  | Some d -> d
  | None -> r

and emit_1 ?dst em opcode a =
  let d = dest ?dst em in
  push em opcode;
  push em d;
  push_reg em a;
  d

and emit_1i ?dst em opcode a imm1 imm2 =
  let d = dest ?dst em in
  push em opcode;
  push em d;
  push_reg em a;
  push em imm1;
  push em imm2;
  d

and emit_2 ?dst em opcode a b =
  let d = dest ?dst em in
  push em opcode;
  push em d;
  push_reg em a;
  push_reg em b;
  d

and emit_2i ?dst em opcode a b imm1 imm2 =
  let d = dest ?dst em in
  push em opcode;
  push em d;
  push_reg em a;
  push_reg em b;
  push em imm1;
  push em imm2;
  d

(* saturation bounds live in the constant pool as floats, so the
   interpreter never converts them per execution *)
and emit_f2i_sat ?dst em a lo hi =
  let rlo = const_reg em (float_of_int lo) in
  let rhi = const_reg em (float_of_int hi) in
  let d = dest ?dst em in
  push em op_f2i_sat;
  push em d;
  push_reg em a;
  push_reg em rlo;
  push_reg em rhi;
  d

(* Value.cast as specialized opcodes: integer and bool sources wrap,
   float sources truncate-saturate, bool targets take truthiness. *)
and emit_convert ?dst em ~src ~target a =
  match target with
  | Dtype.Bool -> emit_1 ?dst em op_to_bool a
  | ty when Dtype.is_integer ty ->
    if Dtype.is_float src then
      emit_f2i_sat ?dst em a (Dtype.min_int_value ty) (Dtype.max_int_value ty)
    else emit_1i ?dst em op_wrap_i a (wrap_mask ty) (wrap_half ty)
  | Dtype.Float32 -> emit_1 ?dst em op_round_f32 a
  | _ (* Float64: normalize is the identity *) -> place ?dst em a

(* as_int: a float-typed operand of an integer op saturates to the
   Int32 range first (Value.to_int semantics). *)
and int_operand em src r =
  if Dtype.is_float src then
    emit_f2i_sat em r (Dtype.min_int_value Dtype.Int32) (Dtype.max_int_value Dtype.Int32)
  else r

and lower_unop ?dst em op a =
  let src = Ir.type_of a in
  let f32 = match src with Dtype.Float32 -> true | _ -> false in
  (* total math ops: raw op (with its domain guard), then the float_ty
     normalization — a no-op for Float64, a rounding for Float32 *)
  let math opcode =
    let ra = lower_expr em a in
    if f32 then emit_1 ?dst em op_round_f32 (emit_1 em opcode ra) else emit_1 ?dst em opcode ra
  in
  match op with
  | Ir.U_neg ->
    let ra = lower_expr em a in
    if Dtype.is_integer src then emit_1i ?dst em op_neg_i ra (wrap_mask src) (wrap_half src)
    else if Dtype.is_float src then
      if f32 then emit_1 ?dst em op_round_f32 (emit_1 em op_neg_f ra)
      else emit_1 ?dst em op_neg_f ra
    else emit_1 ?dst em op_to_bool ra
  | Ir.U_not -> emit_1 ?dst em op_not (lower_expr em a)
  | Ir.U_abs ->
    let ra = lower_expr em a in
    if Dtype.is_integer src then emit_1i ?dst em op_abs_i ra (wrap_mask src) (wrap_half src)
    else if Dtype.is_float src then emit_1 ?dst em op_abs_f ra
    else emit_1 ?dst em op_to_bool ra
  | Ir.U_cast target -> emit_convert ?dst em ~src ~target (lower_expr em a)
  | Ir.U_floor -> lower_rounding ?dst em op_floor src a
  | Ir.U_ceil -> lower_rounding ?dst em op_ceil src a
  | Ir.U_round -> lower_rounding ?dst em op_round src a
  | Ir.U_trunc -> lower_rounding ?dst em op_trunc src a
  | Ir.U_exp -> math op_exp
  | Ir.U_log -> math op_log
  | Ir.U_log10 -> math op_log10
  | Ir.U_sqrt -> math op_sqrt
  | Ir.U_sin -> math op_sin
  | Ir.U_cos -> math op_cos

(* floor/ceil/round/trunc: the raw Float op, converted back into the
   argument's own dtype (convert ~src:Float64 ~dst:src). *)
and lower_rounding ?dst em opcode src a =
  let ra = lower_expr em a in
  match src with
  | Dtype.Float64 -> emit_1 ?dst em opcode ra
  | _ ->
    let t = emit_1 em opcode ra in
    emit_convert ?dst em ~src:Dtype.Float64 ~target:src t

and lower_binop ?dst em op ty a b =
  let sa = Ir.type_of a and sb = Ir.type_of b in
  let arith op_f op_i =
    let ra = lower_expr em a in
    let rb = lower_expr em b in
    match ty with
    | Dtype.Bool ->
      (* raw float op, then truthiness *)
      emit_1 ?dst em op_to_bool (emit_2 em op_f ra rb)
    | ty when Dtype.is_integer ty ->
      let ra = int_operand em sa ra in
      let rb = int_operand em sb rb in
      emit_2i ?dst em op_i ra rb (wrap_mask ty) (wrap_half ty)
    | Dtype.Float32 -> emit_1 ?dst em op_round_f32 (emit_2 em op_f ra rb)
    | _ (* Float64 *) -> emit_2 ?dst em op_f ra rb
  in
  let boolean opcode = emit_2 ?dst em opcode (lower_expr em a) (lower_expr em b) in
  let minmax cmp_opcode =
    (* compare raw operands; convert only the winner, by its own src *)
    let ra = lower_expr em a in
    let rb = lower_expr em b in
    let t = emit_2 em cmp_opcode ra rb in
    let d = dest ?dst em in
    let jz_at = emit_jz em t in
    ignore (emit_convert ~dst:d em ~src:sa ~target:ty ra);
    let jmp_at = emit_jmp em in
    patch em jz_at;
    ignore (emit_convert ~dst:d em ~src:sb ~target:ty rb);
    patch em jmp_at;
    d
  in
  match op with
  | Ir.B_add -> arith op_add_f op_add_i
  | Ir.B_sub -> arith op_sub_f op_sub_i
  | Ir.B_mul -> arith op_mul_f op_mul_i
  | Ir.B_div -> arith op_div_f op_div_i
  | Ir.B_rem -> arith op_rem_f op_rem_i
  | Ir.B_min -> minmax op_cmp_le
  | Ir.B_max -> minmax op_cmp_ge
  | Ir.B_and -> boolean op_and
  | Ir.B_or -> boolean op_or
  | Ir.B_eq -> boolean op_cmp_eq
  | Ir.B_ne -> boolean op_cmp_ne
  | Ir.B_lt -> boolean op_cmp_lt
  | Ir.B_le -> boolean op_cmp_le
  | Ir.B_gt -> boolean op_cmp_gt
  | Ir.B_ge -> boolean op_cmp_ge

(* jumps: emit with a placeholder target, patch once the target pc is
   known *)
and emit_jz em r =
  push em op_jz;
  push_reg em r;
  let at = em.len in
  push em 0;
  at

and emit_jmp em =
  push em op_jmp;
  let at = em.len in
  push em 0;
  at

and patch em at = em.code.(at) <- em.len

(* An [If] condition under branch instrumentation: lowers the
   condition exactly as [lower_expr] would, and alongside it the
   registers holding its (distance-to-true, distance-to-false) pair —
   the rules of Ir_eval.branch_distances. Comparison operands are
   lowered once and shared by the compare and its distance ops. *)
and lower_cond em (e : Ir.expr) : int * int * int =
  (* one register each for the condition and its two distances, in
     that emission order *)
  let triple (c_op, c_a, c_b) (t_op, t_a, t_b) (f_op, f_a, f_b) =
    let rc = emit_2 em c_op c_a c_b in
    let rt = emit_2 em t_op t_a t_b in
    let rf = emit_2 em f_op f_a f_b in
    (rc, rt, rf)
  in
  let leaf ~cmp ~dt ~df ~swap a b =
    let ra = lower_expr em a in
    let rb = lower_expr em b in
    let x, y = if swap then (rb, ra) else (ra, rb) in
    triple (cmp, ra, rb) (dt, x, y) (df, x, y)
  in
  match e with
  | Ir.Binop (Ir.B_and, _, a, b) ->
    let ca, ta, fa = lower_cond em a in
    let cb, tb, fb = lower_cond em b in
    triple (op_and, ca, cb) (op_add_f, ta, tb) (op_min_f, fa, fb)
  | Ir.Binop (Ir.B_or, _, a, b) ->
    let ca, ta, fa = lower_cond em a in
    let cb, tb, fb = lower_cond em b in
    triple (op_or, ca, cb) (op_min_f, ta, tb) (op_add_f, fa, fb)
  | Ir.Unop (Ir.U_not, a) ->
    let c, t, f = lower_cond em a in
    (emit_1 em op_not c, f, t)
  | Ir.Binop (Ir.B_eq, _, a, b) -> leaf ~cmp:op_cmp_eq ~dt:op_dt_eq ~df:op_df_eq ~swap:false a b
  | Ir.Binop (Ir.B_ne, _, a, b) -> leaf ~cmp:op_cmp_ne ~dt:op_df_eq ~df:op_dt_eq ~swap:false a b
  | Ir.Binop (Ir.B_lt, _, a, b) -> leaf ~cmp:op_cmp_lt ~dt:op_dt_lt ~df:op_df_lt ~swap:false a b
  | Ir.Binop (Ir.B_le, _, a, b) -> leaf ~cmp:op_cmp_le ~dt:op_dt_le ~df:op_df_le ~swap:false a b
  | Ir.Binop (Ir.B_gt, _, a, b) -> leaf ~cmp:op_cmp_gt ~dt:op_dt_lt ~df:op_df_lt ~swap:true a b
  | Ir.Binop (Ir.B_ge, _, a, b) -> leaf ~cmp:op_cmp_ge ~dt:op_dt_le ~df:op_df_le ~swap:true a b
  | e ->
    (* opaque boolean: (0, K) when true, (K, 0) when false — with
       K = 1 that is exactly [not] and [to_bool] of the value *)
    let r = lower_expr em e in
    let rt = emit_1 em op_not r in
    let rf = emit_1 em op_to_bool r in
    (r, rt, rf)

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                  *)
(* ------------------------------------------------------------------ *)

let rec lower_stmt em (s : Ir.stmt) =
  em.cur_temp <- 0;
  match s with
  | Ir.Assign (v, e) ->
    let src = Ir.type_of e in
    let target = v.Ir.vty in
    if Dtype.equal src target && not (Dtype.equal target Dtype.Float32) then
      ignore (lower_expr ~dst:v.Ir.vid em e)
    else begin
      let r = lower_expr em e in
      ignore (emit_convert ~dst:v.Ir.vid em ~src ~target r)
    end
  | Ir.If { cond; dec = _; then_; else_ } ->
    let if_ix = em.n_ifs in
    em.n_ifs <- if_ix + 1;
    let rc =
      if em.instrument.branch then begin
        let rc, dt, df = lower_cond em cond in
        push em op_branch;
        push em if_ix;
        push_reg em rc;
        push_reg em dt;
        push_reg em df;
        rc
      end
      else lower_expr em cond
    in
    let jz_at = emit_jz em rc in
    List.iter (lower_stmt em) then_;
    let jmp_at = emit_jmp em in
    patch em jz_at;
    List.iter (lower_stmt em) else_;
    patch em jmp_at
  | Ir.Probe id ->
    push em (if em.instrument.probe_hook then op_probe_h else op_probe);
    push em id
  | Ir.Record_cond { dec; cond_ix; value } ->
    (* without the hook the value expression is not evaluated at all,
       matching Ir_eval without hooks *)
    if em.instrument.cond then begin
      let rv = lower_expr em value in
      push em op_cond;
      push em dec;
      push em cond_ix;
      push_reg em rv
    end
  | Ir.Record_decision { dec; outcome } ->
    if em.instrument.decision then begin
      push em op_decision;
      push em dec;
      push em outcome
    end
  | Ir.Comment _ -> ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let linearize ?(instrument = no_instrumentation) (prog : Ir.program) =
  let em = create_emitter prog.Ir.n_vars instrument in
  List.iter (lower_stmt em) prog.Ir.init;
  let init_code, init_slots = take em in
  List.iter (lower_stmt em) prog.Ir.step;
  let step_code, step_slots = take em in
  let const_base = prog.Ir.n_vars + em.max_temp in
  let remap code slots =
    List.iter (fun at -> code.(at) <- const_base + (-code.(at) - 1)) slots;
    code
  in
  {
    l_prog = prog;
    l_init = remap init_code init_slots;
    l_step = remap step_code step_slots;
    l_n_regs = const_base + em.n_consts;
    l_const_base = const_base;
    l_consts = Array.of_list (List.rev em.consts_rev);
    l_branch_sites = (if instrument.branch then em.n_ifs else 0);
  }

let code_size t = Array.length t.l_init + Array.length t.l_step
