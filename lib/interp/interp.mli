(** Direct block-diagram interpreter — the "model simulation" path.

    This is the execution engine the simulation-based baselines run
    on: each step walks the diagram block by block, dispatching on
    block kind, boxing every signal value, and recursing into
    subsystem instances — the way a simulation engine interprets a
    model, and the reason the paper measures 6 iterations/second for
    SimCoTest against 26,000 for compiled fuzz code (§4).

    Semantics are intentionally identical to the generated code
    ({!Cftcg_codegen.Codegen} + {!Cftcg_ir.Ir_vm}); the test
    suite checks the two paths differentially on random streams. *)

open Cftcg_model

type t

val create : Graph.t -> t
(** Builds the instance tree and per-level schedules. Raises
    [Failure] on invalid models or algebraic loops. *)

val reset : t -> unit
(** Re-establishes all initial state. *)

val set_input : t -> int -> Value.t -> unit

val step : t -> unit

val get_output : t -> int -> Value.t
