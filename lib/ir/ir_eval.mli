(** Reference interpreter for IR programs.

    Executes over boxed {!Cftcg_model.Value.t} with full dtype
    bookkeeping. Slower than {!Ir_vm} by design; it exists as the
    semantic oracle for differential tests and for debugging
    generated code. *)

open Cftcg_model

type t
(** An evaluation instance: a program plus its variable store. *)

val create : Ir.program -> t

val reset : ?hooks:Hooks.t -> t -> unit
(** Zeroes the store and runs the program's [init] statements. *)

val set_input : t -> int -> Value.t -> unit
(** [set_input t i v] writes inport [i] (cast to the inport dtype). *)

val step : ?hooks:Hooks.t -> t -> unit
(** Runs one model iteration. *)

val get_output : t -> int -> Value.t

val get_var : t -> Ir.var -> Value.t
(** Reads any variable — used by tests to inspect states. *)

val branch_distances : Ir.expr -> (Ir.expr -> Value.t) -> float * float
(** [branch_distances cond eval] returns
    [(distance_to_true, distance_to_false)] for a boolean condition
    under the standard branch-distance rules (Korel): 0 when already
    satisfied, |a-b|-shaped positive values otherwise, [+ 1]
    offsets for strict/equality forms, sum for conjunction, min for
    disjunction. *)
