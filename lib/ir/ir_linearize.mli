(** IR → flat bytecode linearizer.

    Flattens an {!Ir.program}'s [init]/[step] blocks into
    three-address bytecode over an int-indexed register file of
    unboxed floats, executed by {!Ir_vm}:

    - variables keep their [vid] as register index, temporaries and a
      deduplicated constant pool sit above them;
    - [If] statements become resolved conditional jumps;
    - probe / condition / decision records become dedicated
      instructions (emitted only when the chosen instrumentation
      needs them, so uninstrumented execution pays nothing);
    - under [branch] instrumentation every [If] condition is lowered
      together with its Korel branch distances as register code
      (pure distance opcodes), closed by one [op_branch] record;
    - dtype-dependent semantics (integer wrap masks, saturation
      bounds, float32 rounding) are baked into operand slots at
      lowering time.

    Semantics are bit-identical to {!Ir_eval}; the differential test
    suite enforces this on random programs. *)

type instrumentation = {
  probe_hook : bool;
      (** probes also call the [on_probe] hook (the coverage-buffer
          write happens either way) *)
  cond : bool;  (** emit [Record_cond] instructions *)
  decision : bool;  (** emit [Record_decision] instructions *)
  branch : bool;
      (** lower every [If]'s branch distances and emit an [op_branch]
          record before its jump *)
}

val no_instrumentation : instrumentation

type t = {
  l_prog : Ir.program;
  l_init : int array;
  l_step : int array;
  l_n_regs : int;  (** register-file size: vars + temps + consts *)
  l_const_base : int;  (** first constant register *)
  l_consts : float array;  (** pool values, blitted in at reset *)
  l_branch_sites : int;
      (** number of [If]s carrying an [op_branch] record: every [If]
          under [branch] instrumentation, none otherwise. Sites are
          numbered depth-first (init before step, then-arm before
          else-arm) — the numbering {!Ir_eval} reports through
          [Hooks.on_branch] *)
}

val linearize : ?instrument:instrumentation -> Ir.program -> t

val code_size : t -> int
(** Total instruction-stream length (init + step), in int slots. *)

(** Opcode numbers, exposed for {!Ir_vm}'s dispatch loop and for
    tests. Operand counts are fixed per opcode. *)

val op_mov : int
val op_add_f : int
val op_sub_f : int
val op_mul_f : int
val op_div_f : int
val op_rem_f : int
val op_add_i : int
val op_sub_i : int
val op_mul_i : int
val op_div_i : int
val op_rem_i : int
val op_neg_f : int
val op_neg_i : int
val op_abs_f : int
val op_abs_i : int
val op_not : int
val op_to_bool : int
val op_round_f32 : int
val op_f2i_sat : int
val op_wrap_i : int
val op_floor : int
val op_ceil : int
val op_round : int
val op_trunc : int
val op_exp : int
val op_log : int
val op_log10 : int
val op_sqrt : int
val op_sin : int
val op_cos : int
val op_cmp_eq : int
val op_cmp_ne : int
val op_cmp_lt : int
val op_cmp_le : int
val op_cmp_gt : int
val op_cmp_ge : int
val op_and : int
val op_or : int
val op_select : int
val op_jmp : int
val op_jz : int
val op_probe : int
val op_probe_h : int
val op_cond : int
val op_decision : int

val op_branch : int
(** Branch record [op_branch, if_ix, cond, dt, df]: the only
    side-effecting instruction of branch instrumentation. [cond] is
    the [If]'s condition register, [dt]/[df] its distances. *)

val op_halt : int

(** Superinstructions — emitted only by {!Ir_opt}'s bytecode fusion
    pass, never by the linearizer. The compare-and-jump forms replace
    a [cmp_*; jz] pair and jump when the comparison is {e false}. *)

val op_jlt : int
val op_jle : int
val op_jeq : int
val op_jne : int
val op_jgt : int
val op_jge : int
val op_jnz : int
val op_add_f32 : int
val op_sub_f32 : int
val op_mul_f32 : int
val op_div_f32 : int
val op_probe_jmp : int
val op_mov_jmp : int

(** Probe-carrying conditional branches: a fused compare-and-jump (or
    [jz]/[jnz]) whose fall-through successor is an [op_probe] — the
    probe fires only when the branch falls through, exactly as the
    unfused pair behaved. Layout [op, a, b, id, target] for the
    compare forms, [op, r, id, target] for [op_jz_p]/[op_jnz_p]. *)

val op_jlt_p : int
val op_jle_p : int
val op_jeq_p : int
val op_jne_p : int
val op_jgt_p : int
val op_jge_p : int
val op_jz_p : int
val op_jnz_p : int

(** Branch-distance opcodes (layout [op, dst, a, b]), emitted only
    under [branch] instrumentation. Each writes one side of a
    comparison's distance (K = 1) with the formulas of
    {!Ir_eval.branch_distances}: [dt_eq] = |a-b|, [df_eq] = 1 when
    |a-b| = 0 else 0; with d = a-b, [dt_lt] = 0 when d < 0 else d+1,
    [df_lt] = -d when d < 0 else 0, [dt_le] = 0 when d <= 0 else d,
    [df_le] = -d+1 when d <= 0 else 0. [min_f] is {!Float.min}. *)

val op_dt_eq : int
val op_df_eq : int
val op_dt_lt : int
val op_df_lt : int
val op_dt_le : int
val op_df_le : int
val op_min_f : int

val n_opcodes : int
(** One past the highest opcode number. *)
