(** Flat bytecode VM — the one compiled execution backend: fuzzing,
    solving, minimization and scoring all run on it.

    Runs {!Ir_linearize} bytecode in a tight dispatch loop over an
    unboxed [float array] register file. Each expression node costs a
    jump-table dispatch on an immediate opcode, and a probe fire writes
    its cell of a coverage byte map and sets its bit in a word twin of
    that map, without a branch — so consumers compare and count the
    probe sets of two steps 32 probes at a time instead of per probe.

    Semantics are identical to {!Ir_eval} (differentially tested, and
    against gcc-compiled emitted C). Hooks are fixed at compile time:
    instrumentation that wasn't requested is simply never emitted as
    bytecode. Branch distances are bytecode
    too: branch-recording code folds the distances of every visit to
    a watched [If] ({!set_watch}) into per-instance minima
    ({!branches}) without allocating. *)

open Cftcg_model

(** A probe coverage buffer: the set of probes fired since the last
    clear, twice — as bytes and as bit-words. *)
type probes = private {
  p_fired : Bytes.t;  (** ['\001'] at index [id] iff probe [id] fired *)
  p_bits : int array;
      (** bit [id land 31] of word [id lsr 5] set iff probe [id]
          fired; bits 32 and up of every word are zero *)
}

(** Per-[If] branch-distance minima since the last {!reset}, indexed
    by [If] site (the [if_ix] of [Hooks.on_branch]), over the visits
    made while the site was watched ({!set_watch}). Empty unless the
    code records branches. *)
type branches = private {
  b_reached : Bytes.t;  (** ['\001'] at [if_ix] iff the [If] executed watched *)
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

type code
(** Bytecode without hook instructions: probe-only for the fuzzing
    loop and the campaign replayer; branch-recording for the
    solver. It also holds the code's {e carried} registers (see
    {!save_carried}), computed once, the first time any instance asks
    for them, and shared read-only from then on. *)

val code_linearized : code -> Ir_linearize.t
(** The (optimized) bytecode of a code. *)


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
    pool and the watch mask ({!set_watch}) and runs [init]. Probes
    fired by [init] land in the current probe buffer; clear it
    afterwards if init coverage should be discarded. Branches recorded
    by [init] count like any other. *)

val set_watch : t -> (int -> bool) -> unit
(** [set_watch vm f] records branch distances, from now on, only at
    the [If] sites [if_ix] with [f if_ix]: a visit to any other site
    runs the plain compare probe-only code runs and leaves its
    {!branches} entry as it is. Outputs, states and probe sets do not
    depend on the mask, nor do the minima of watched sites. The mask
    is the instance's: it holds for every [If] visited after the call,
    whether or not {!reset} comes in between, until the next call.
    A new instance watches every site. No effect on code that records
    no branches. *)

val step : t -> unit
(** One model iteration. *)

val set_input : t -> int -> Value.t -> unit

val load_input : t -> int -> Dtype.t -> Bytes.t -> int -> unit
(** [load_input vm i ty data off] sets input [i] to the [ty] value
    encoded little-endian at [data.(off)], by {!Value.decode_into}:
    without allocating. *)

val get_output : t -> int -> Value.t
val get_var : t -> Ir.var -> Value.t

val read_raw : t -> int -> float
(** Raw register access by variable id. *)

(** {1 Snapshots}

    A {!state} is an instance's run state between two steps: the whole
    register file (inputs, outputs, model state, scratch and the
    constant pool) and the branch minima ({!branches}). Restoring it
    and running the same steps gives the same registers and minima,
    bit for bit, as running on from where it was saved — so a caller
    can resume an input at step [k] instead of replaying steps
    [0..k-1] from {!reset}. Saving and restoring are plain blits, so
    NaN payloads, ±inf and −0.0 survive them.

    A state does not hold the probe buffer: the caller decides what a
    resumed run's probes are measured against (usually it clears the
    buffer first, and the suffix's probes are all it sees). Nor does
    it hold the hooks, which are fixed with the code.

    The register file includes the watch registers, so a state saved
    under one {!set_watch} mask brings that mask's registers back with
    {!restore_state}: the resumed steps record the sites the saved run
    recorded, whatever mask was set in between (the instance's mask
    itself, which the next {!reset} loads, is not changed). *)

type state = private {
  s_regs : float array;  (** the register file *)
  s_reached : Bytes.t;  (** {!branches}[.b_reached] *)
  s_min_dt : float array;  (** {!branches}[.b_min_dt] *)
  s_min_df : float array;  (** {!branches}[.b_min_df] *)
}

val fresh_state : t -> state
(** A state sized for this instance's code (any instance over the same
    code accepts it). Preallocate states and reuse them: save and
    restore allocate nothing. *)

val save_state : t -> state -> unit
(** Copies the registers and branch minima into the state. Raises
    [Invalid_argument], as {!restore_state} does, if the state was
    made for code of another size. *)

val restore_state : t -> state -> unit
(** Copies the state back over the registers and branch minima. *)

(** {1 Carried registers}

    A fuzzing child that repeats its parent's first [s] tuples can
    start at step [s] from the parent's state after step [s - 1]. Only
    part of that state matters: the {e carried} registers, the step
    block's entry-live set (registers some path through one step reads
    before writing it, closed over the step loop as the optimizer's
    dead-write roots are) minus the inputs, which are rewritten before
    every step. Every other register below the constant pool is
    written before it is read in any step, and the pool is never
    written, so a state is fully described, for all later steps, by
    its carried registers. The set is computed for optimized and
    unoptimized code alike, once per code, on first use rather than in
    {!prepare}: most codes (the solver's, the scoring replayer's) are
    never resumed, so set-up does not pay for it.

    Saving and restoring move one float per carried register between
    the register file and a caller-owned flat array, allocate nothing,
    and keep NaN payloads, ±inf and −0.0 bit for bit. Branch minima
    are not carried; the fuzzing code records none. *)

val carried : t -> int array
(** This instance's carried registers, ascending (shared with its
    code; do not mutate). Its length is the stride of one saved state.
    Safe to call from several domains at once. *)

val save_carried : t -> float array -> at:int -> unit
(** [save_carried vm buf ~at] writes the carried registers, in
    {!carried} order, to [buf.(at) ..]. Raises [Invalid_argument] if
    they do not fit. *)

val restore_carried : t -> float array -> at:int -> unit
(** The inverse of {!save_carried}: after it, running steps gives the
    same probes and carried registers as running on from where the
    state was saved, whatever the instance executed in between. *)

val carried_equal : t -> float array -> at:int -> bool
(** [carried_equal vm buf ~at]: whether the carried registers equal
    [buf.(at) ..], as {!save_carried} would write them, bit for bit:
    −0.0 differs from +0.0, and a NaN equals only a NaN with the same
    bits. Allocates nothing. Raises [Invalid_argument] as
    {!save_carried} does. *)

(** {1 Probe buffers}

    The VM writes into whichever buffer is currently installed, which
    lets a fuzzer double-buffer consecutive steps and diff their
    bit-words with one XOR per 32 probes. *)

val probes : t -> probes
val set_probes : t -> probes -> unit

val fresh_probes : t -> probes
(** A new, empty buffer of the right size for this program. *)

val clear_probes : probes -> unit
(** Zeroes the byte map and the bit-words. *)

val iter_fired : (int -> unit) -> probes -> unit
(** [iter_fired f p] calls [f] on every probe in [p], in ascending id
    order, walking the set bits of [p_bits]. *)

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
