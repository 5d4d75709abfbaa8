(** The bytecode optimizer.

    The paper compiles its generated code with Clang -O2 and
    configures Simulink's "Maximize Execution Speed" objective; this
    pass pipeline stands in for that one optimizing compile. It runs
    over {!Ir_linearize} bytecode inside {!Ir_vm.prepare} (default on;
    [?optimize:false] disables it — scoring, minimization and the
    solver prepare unoptimized code, and a caller that wants
    unoptimized fuzzing hands that code to [Fuzzer.run] as [~code]).
    Every path fuzzes the program [Codegen.lower] produced, so this
    is the only optimization it gets. The passes rewrite the
    instruction stream:

    + {b constant folding + propagation} through the register file —
      fully-known pure ops collapse to a MOV from the (deduplicated)
      constant pool, selects and conditional jumps with known
      conditions are resolved. Folding evaluates with the exact VM
      arm formulas — including the saturation bounds [f2i_sat] reads
      from pool registers, integer wrap masks, division guards and
      float32 rounding — so a naive "just compute it" fold can never
      diverge from runtime behaviour;
    + {b global copy propagation / move elimination} — available
      copies flow forward over the whole block (init and step code
      only jump forward, so stream order is topological) and meet by
      intersection at each jump target, so a copy whose uses sit in
      later blocks is still propagated; pool-register sources
      propagate constants;
    + {b unreachable-code elimination};
    + {b dead-register-write elimination} — roots are probe / cond /
      decision / branch-record instructions (never removed), jumps,
      and at block end the I/O + state variables plus the entry-live
      set of the step block (whatever the next iteration reads before
      writing — exact cross-iteration and init->step dataflow).
      Branch distances are ordinary pure ops whose results the branch
      record reads, so they fold, propagate and die like any ALU op.
      A [setp] whose register is dead becomes the [psel] of its
      relation: its probe stays;
    + {b jump threading} — branch-to-branch chains are shortcut,
      jumps to the fall-through are elided, jumps to HALT become
      HALT;
    + {b superinstruction fusion} — [cmp_*; jz] pairs whose compare
      register dies become fused compare-and-jump opcodes
      ([op_jlt]..[op_jne]; [gt]/[ge] compares fuse as [lt]/[le] on
      swapped operands, which is exact for IEEE compares), [not; jz]
      becomes [op_jnz], float32 [arith; round_f32] pairs become
      [op_*_f32], and branch-arm tails [probe; jmp] / [mov; jmp]
      become [op_probe_jmp] / [op_mov_jmp]. Probe-aware fusion then
      folds a branch's then-arm [probe] into the branch itself
      ([op_jlt_p]..[op_jne_p], [op_jz_p], [op_jnz_p]) — the probe
      fires exactly when the branch falls through — and closes a
      whole [if c then probe A else probe B] diamond into one
      [op_psel_*] dispatch, or one [op_setp_*] when the arms also
      write 1 / 0 to one register. A diamond fuses only when its
      else-arm probe has the branch as sole predecessor. Const-prop
      resolves a [psel] on known operands to the probe it fires but
      never folds a [setp]'s probe away;
    + {b probe dedup} — within straight-line regions, [probe]
      instructions whose cell is already known fired (an earlier
      probe, or the fall-through of a probe-carrying branch) are
      dropped: the coverage-buffer write is idempotent, so this is
      observationally invisible. Hook-carrying [probe_h] is never
      touched.

    The pipeline iterates simplify-then-fuse cycles until a whole
    cycle changes nothing, so [optimize_bytecode] is idempotent. A
    call allocates its analysis arrays once and every pass and cycle
    reuses them; it keeps no state between calls, so domains may
    optimize concurrently.

    The optimized program is bit-identical in observable behaviour
    (outputs, states, probe sets, hook events) to the unoptimized
    bytecode — enforced by the differential suite. Registers of
    scratch variables (anything outside I/O + states) may hold stale
    values afterwards; [Ir_vm.get_var] / [read_raw] on them is only
    meaningful with the optimizer off. *)

val optimize_bytecode : Ir_linearize.t -> Ir_linearize.t

val step_entry_live : Ir_linearize.t -> int array
(** The registers below the constant pool that the step block may
    read before it writes them, in ascending order: the entry-live
    set of one step, closed over the step loop as the
    dead-write roots are (with no other root). Between two steps, no
    other register's value can reach anything a later step computes,
    fires or records. *)

val static_count : Ir_linearize.t -> int
(** Number of instructions (init + step) — counts instructions, not
    int slots like {!Ir_linearize.code_size}. *)

val dynamic_count : Ir_linearize.t -> float array array -> int
(** [dynamic_count lin rows] executes init plus one step per row on a
    reference interpreter and returns the number of instructions
    dispatched. Each row holds the raw float per inport (in port
    order, as [Ir_vm.load_input] decodes them). *)

val opcode_histogram : Ir_linearize.t -> int array
(** Instruction count per opcode (init + step), indexed by opcode
    number; length {!Ir_linearize.n_opcodes}. *)

val opcode_name : int -> string
(** Mnemonic for an opcode number (as printed by {!disassemble}). *)

(** {1 Bytecode profiling}

    The data behind [cftcg ir --profile] and [cftcg profile]'s VM
    section: per-opcode dynamic dispatch counts and per-instruction
    hit counts, gathered by the same reference interpreter as
    {!dynamic_count} so the {!Ir_vm} hot loop needs no counting
    instrumentation. *)

type bytecode_profile = {
  bp_dispatches : int;  (** total dispatches, init + all steps *)
  bp_init_dispatches : int;
  bp_step_dispatches : int;
  bp_opcode_dyn : int array;  (** dispatches per opcode; length {!Ir_linearize.n_opcodes} *)
  bp_init_hits : int array;  (** hit count per init instruction, stream order *)
  bp_step_hits : int array;  (** hit count per step instruction, stream order *)
}

val profile_bytecode : Ir_linearize.t -> float array array -> bytecode_profile
(** [profile_bytecode lin rows] executes init plus one step per row
    (raw floats per inport, as for {!dynamic_count}) and returns the
    execution profile. Branch-recording code runs with every [If]
    site watched, as a fresh {!Ir_vm} instance does. *)

val disassemble : ?hits:int array * int array -> Ir_linearize.t -> string
(** Human-readable listing of both blocks; constants print as
    [kN(value)], jump targets as [-> pc]. With [hits] (init and step
    per-instruction hit counts from {!profile_bytecode}), each line is
    prefixed with its execution count. *)
