(** Flat bytecode VM — the one compiled execution backend: fuzzing,
    solving, minimization and scoring all run on it.

    Runs {!Ir_linearize} bytecode in a tight dispatch loop over an
    unboxed [float array] register file. Each expression node costs a
    jump-table dispatch on an immediate opcode, and probe fires write
    directly into a coverage byte buffer while appending to a dirty
    list — so consumers can process only the probes that actually
    fired instead of scanning all [n_probes] cells.

    Semantics are identical to {!Ir_eval} (differentially tested, and
    against gcc-compiled emitted C). Hooks are fixed at compile time:
    instrumentation that wasn't requested is simply never emitted as
    bytecode. Branch distances are bytecode
    too: branch-recording code folds every [If] visit's distances
    into per-instance minima ({!branches}) without allocating. *)

open Cftcg_model

(** A probe coverage buffer: byte-per-probe membership plus the list
    of distinct probes fired since the last clear. *)
type probes = private {
  p_fired : Bytes.t;  (** ['\001'] at index [id] iff probe [id] fired *)
  p_dirty : int array;  (** fired probe ids, deduplicated, first [p_n] slots *)
  mutable p_n : int;
}

(** Per-[If] branch-distance minima since the last {!reset}, indexed
    by [If] site (the [if_ix] of [Hooks.on_branch]). Empty unless the
    code records branches. *)
type branches = private {
  b_reached : Bytes.t;  (** ['\001'] at [if_ix] iff the [If] executed *)
  b_min_dt : float array;
      (** least distance-to-then over its visits ([infinity] when
          unreached; a NaN distance never lowers it) *)
  b_min_df : float array;  (** least distance-to-else, likewise *)
}

(** {1 Code and instances}

    Compiled code and run state are separate values. A {!code} is the
    linearized, optionally optimized bytecode of one program — the
    expensive part, built once by {!prepare}. An instance ({!t}) is
    cheap: a register file and a probe buffer over some code. A
    standalone [Fuzzer.run] prepares its code once and
    builds every executor from it; a campaign prepares once at start
    and hands the same code to its merge replayer and to every worker
    of every epoch.

    Sharing is safe across domains: nothing writes a code's arrays
    after {!prepare} returns (execution only reads the instruction
    streams, and {!reset} copies the constant pool {e into} the
    instance's registers), so any number of instances may run over
    one code concurrently. *)

type code = private Ir_linearize.t
(** Bytecode without hook instructions: probe-only for the fuzzing
    loop and the campaign replayer; branch-recording for the
    solver. *)

type t

val prepare : ?optimize:bool -> ?branches:bool -> Ir.program -> code
(** Linearizes the program with probe-only instrumentation and, when
    [optimize] (default [true]), runs {!Ir_opt.optimize_bytecode} on
    it. Observable behaviour — outputs, states, probe sets, branch
    minima — is the same either way; with it on, [get_var] /
    [read_raw] of scratch variables outside the I/O + state + read
    set may see stale values. [branches] (default [false]) also
    lowers every [If]'s branch distances, so instances record
    {!branches}. *)

val of_code : code -> t
(** A fresh instance over [code], with its own register file and
    probe buffer. Costs an allocation, not a compile. *)

val compile : ?hooks:Hooks.t -> ?optimize:bool -> Ir.program -> t
(** [of_code] of a freshly prepared code, for callers that need
    hooks. Instrumentation bytecode is emitted only for the hooks
    that are present ([on_probe] adds a hook call on top of the
    always-on buffer write; [on_branch] is called from the branch
    record, after the minima update); without hooks this is
    [of_code (prepare ?optimize prog)]. *)

val program : t -> Ir.program

val reset : t -> unit
(** Zeroes the registers and the branch minima, reloads the constant
    pool and runs [init]. Probes fired by [init] land in the current
    probe buffer; clear it afterwards if init coverage should be
    discarded. Branches recorded by [init] count like any other. *)

val step : t -> unit
(** One model iteration. *)

val set_input : t -> int -> Value.t -> unit

val set_input_raw : t -> int -> float -> unit
(** Fast path: the float must already be an exact member of the
    inport dtype's value set (e.g. produced by {!Value.decode} +
    {!Value.to_float}). *)

val get_output : t -> int -> Value.t
val get_var : t -> Ir.var -> Value.t

val read_raw : t -> int -> float
(** Raw register access by variable id. *)

(** {1 Probe buffers}

    The VM writes into whichever buffer is currently installed, which
    lets a fuzzer double-buffer consecutive steps and diff their
    dirty lists without any per-probe scan. *)

val probes : t -> probes
val set_probes : t -> probes -> unit

val fresh_probes : t -> probes
(** A new, empty buffer of the right size for this program. *)

val clear_probes : probes -> unit
(** O(fired): resets only the cells named by the dirty list. *)

val probe_fired : t -> int -> bool
(** Whether the probe fired since the current buffer was cleared. *)

val branches : t -> branches
(** This instance's branch minima (live: updated in place by
    execution, cleared by {!reset}). *)

val code_size : t -> int
(** Bytecode length (init + step), in int slots. *)

(** {1 Profile mode}

    Opt-in execution profiling of this VM's bytecode: per-opcode
    dynamic dispatch counts and per-instruction (hence per-block) hit
    counts. The profile run happens on {!Ir_opt}'s reference
    interpreter over the same (optimized or not) instruction stream,
    so the dispatch loop used for fuzzing carries zero profiling
    overhead. Surfaced through [cftcg ir --profile] and
    [cftcg profile]. *)

val profile : t -> float array array -> Ir_opt.bytecode_profile
(** [profile vm rows] runs init plus one step per row (raw floats per
    inport, in port order — see {!Ir_opt.dynamic_count}) and returns
    the execution profile. Does not disturb the VM's registers or
    probe buffers. *)

val linearized : t -> Ir_linearize.t
(** The (optimized) bytecode this instance executes — pair with
    {!Ir_opt.disassemble} [?hits] to print a hit-annotated listing. *)
