(** Closure compiler for IR programs.

    This is the reproduction's stand-in for "compile the generated C
    with Clang -O2": the program is translated once into OCaml
    closures over an unboxed float store, giving the orders-of-
    magnitude speed advantage over graph interpretation that the
    paper's fuzzing loop relies on (26,000 vs 6 iterations per second
    on SolarPV, §4).

    Semantics match {!Ir_eval} exactly — the test suite checks this
    differentially. Hooks are baked in at compile time, so disabled
    observations cost nothing. *)

open Cftcg_model

type t

val compile : ?hooks:Hooks.t -> Ir.program -> t
(** Compiles the program. The returned instance owns its store;
    compile again for an independent instance. *)

val program : t -> Ir.program

val reset : t -> unit
(** Zeroes the store and runs [init]. *)

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
(** Raw store access by variable id. *)
