(** Batched lockstep bytecode VM — K inputs through one instruction
    stream.

    Executes K independent model instances ("lanes") in lockstep over
    a structure-of-arrays register file: one float64 plane per
    register, K lanes wide (register [r], lane [l] at [r * k + l]),
    so each dispatched instruction pays its opcode fetch and operand
    decode once and then runs the arm body over k adjacent cells. The
    fuzzer's batch scheduler loads K mutated inputs into the lanes,
    steps once, and reads K coverage results — amortizing dispatch
    overhead, a large share of the instrumented scalar hot path.

    When a conditional branch splits a lane group, the group becomes
    two adjacent slices of the lane arena (stable in-place partition,
    no allocation). Jumps are forward-only in model bytecode, so the
    slices reconverge: the lower-pc slice runs batched until it
    reaches the other's pc, then the two merge zero-copy and continue
    in lockstep. Divergence counts per branch pc are kept for
    `cftcg ir --batch`, and {!total_divergence} feeds the fuzzer's
    deterministic decision to fall back to scalar execution on
    divergence-heavy models.

    Per-lane observable behaviour — outputs, states, probe dirty
    lists and their order — is bit-identical to {!Ir_vm} on the same
    bytecode, which the batched differential suite enforces for
    K ∈ {1, 4, 16}. Hooks are not supported: this VM serves the
    fuzzing inner loop, which compiles without them. *)

open Cftcg_model

type regfile = float array

(** Packed probe coverage for K lanes: the fired byte for probe [id]
    in lane [l] is at [id * k + l], plus per-lane dirty lists
    mirroring {!Ir_vm.probes}. *)
type probes = private {
  bp_k : int;
  bp_fired : Bytes.t;  (** [n_probes * k] membership bytes *)
  bp_dirty : int array array;  (** per lane: fired ids, insertion order *)
  bp_n : int array;  (** per lane: dirty-list fill count *)
}

type t

val of_code : k:int -> Ir_vm.code -> t
(** A K-lane instance over prepared code: the same code value a
    scalar {!Ir_vm} instance runs, so the two backends execute
    identical bytecode and share one optimization. The instance owns
    its lane registers, probe buffers and divergence counters; the
    code is only read. [k] must be in 1..64, and [code] must not be
    branch-recording ([Ir_vm.prepare ~branches:true]); both raise
    [Invalid_argument] otherwise. *)

val compile : ?optimize:bool -> k:int -> Ir.program -> t
(** [of_code ~k (Ir_vm.prepare ?optimize prog)]. *)

val k : t -> int
val program : t -> Ir.program
val linearized : t -> Ir_linearize.t
val code_size : t -> int

val reset : ?lanes:int -> t -> unit
(** Zeroes every lane's registers, reloads the constant pool into all
    lanes and runs [init] on the first [lanes] (default: all k).
    Probes fired by init land in the current buffer, as with
    {!Ir_vm.reset}. *)

val step : ?lanes:int -> t -> unit
(** One model iteration for lanes [0 .. lanes-1] (default: all k). *)

val set_input : t -> lane:int -> int -> Value.t -> unit
val set_input_raw : t -> lane:int -> int -> float -> unit
val get_output : t -> lane:int -> int -> Value.t
val read_raw : t -> lane:int -> int -> float

(** {1 Probe buffers} — double-bufferable like {!Ir_vm}'s. *)

val probes : t -> probes
val set_probes : t -> probes -> unit

val fresh_probes : t -> probes
(** A new, empty K-lane buffer of the right size for this program. *)

val clear_probes : probes -> unit
(** Clears all lanes, O(total fired). *)

val clear_lane : probes -> lane:int -> unit
(** Clears one lane's cells and dirty list, O(fired in that lane). *)

val record : probes -> lane:int -> int -> unit
(** Marks probe [id] fired in [lane] (idempotent, appends to the
    lane's dirty list on first fire) — the VM's own fire primitive,
    exposed so a detached buffer can serve as a per-lane ordered
    distinct-fire accumulator (the fuzzer's batch scheduler). *)

val probe_fired : t -> lane:int -> int -> bool

(** {1 Lane divergence profile}

    Each entry is [(pc, splits)]: how often the branch at that pc
    partitioned a lane group, hottest first. The data behind
    `cftcg ir --batch`'s divergence table. *)

val step_divergence : t -> (int * int) list
val init_divergence : t -> (int * int) list

val total_divergence : t -> int
(** Total splits across both blocks since the last
    [reset_divergence]. *)

val reset_divergence : t -> unit
