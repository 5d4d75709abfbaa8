(** Imperative intermediate representation of generated model code.

    The schedule converter lowers a block diagram into one [program]
    per model: a [step] statement list executed once per model
    iteration over a flat variable store, plus [init] statements that
    establish the initial state (paper §3.1.1, "model initialization
    code"). The IR is deliberately C-shaped — assignments,
    if/else, ternary selects — so it can be pretty-printed as the C
    fuzz code (see {!Cemit}) and compiled to bytecode for the
    fuzzing loop (see {!Ir_linearize} and {!Ir_vm}).

    Branch instrumentation (paper §3.1.2) appears as three statement
    forms: [Probe] marks one flat coverage cell (one element of the
    [g_CurrCov] array of Algorithm 1); [Record_cond] and
    [Record_decision] feed the Condition / MCDC recorder. *)

open Cftcg_model

type var = {
  vid : int;  (** index into the runtime store *)
  vname : string;
  vty : Dtype.t;
}

type unop =
  | U_neg
  | U_not  (** logical negation on truthiness, yields Bool *)
  | U_abs
  | U_cast of Dtype.t
  | U_floor
  | U_ceil
  | U_round  (** nearest, ties away from zero *)
  | U_trunc
  | U_exp
  | U_log  (** total: non-positive input yields 0 *)
  | U_log10
  | U_sqrt  (** total: negative input yields 0 *)
  | U_sin
  | U_cos

type binop =
  | B_add
  | B_sub
  | B_mul
  | B_div  (** total: zero divisor yields 0 *)
  | B_rem
  | B_min
  | B_max
  | B_and  (** logical, yields Bool *)
  | B_or
  | B_eq
  | B_ne
  | B_lt
  | B_le
  | B_gt
  | B_ge

type expr =
  | Const of Value.t
  | Read of var
  | Unop of unop * expr
  | Binop of binop * Dtype.t * expr * expr
      (** Arithmetic ops are computed and wrapped in the carried
          dtype; comparison and logic ops yield [Bool] and ignore
          it. *)
  | Select of expr * expr * expr
      (** Branchless ternary: [Select (c, a, b)] is [c ? a : b]
          with both arms evaluated — the shape [-O2] gives boolean
          blocks in the paper's "Fuzz Only" experiment. *)

type stmt =
  | Assign of var * expr
  | If of {
      cond : expr;
      dec : int option;  (** owning decision, when instrumented *)
      then_ : stmt list;
      else_ : stmt list;
    }
  | Probe of int  (** flat coverage cell *)
  | Record_cond of { dec : int; cond_ix : int; value : expr }
  | Record_decision of { dec : int; outcome : int }
  | Comment of string

(** Static description of one instrumented condition. Conditions own
    two flat probe cells so Algorithm 1's array view captures both
    polarities. *)
type condition = {
  cond_ix : int;
  cond_desc : string;
  probe_true : int;
  probe_false : int;
}

(** Static description of one instrumented decision (a branch point
    of the model: logic block output, switch, transition guard,
    saturation region, ...). *)
type decision = {
  dec_id : int;
  dec_block : string;  (** model path of the owning block *)
  dec_desc : string;  (** e.g. ["Switch criteria u2 > 0"] *)
  n_outcomes : int;
  outcome_probes : int array;  (** flat probe cell per outcome *)
  conditions : condition array;
}

type program = {
  prog_name : string;
  n_vars : int;  (** size of the runtime store *)
  inputs : var array;  (** one per top-level inport, in port order *)
  outputs : var array;
  states : var array;  (** persist across iterations *)
  init : stmt list;
  step : stmt list;
  n_probes : int;  (** Algorithm 1's [branchCount] *)
  decisions : decision array;
  assertions : (int * string) array;
      (** Model Verification blocks: (flat probe cell that fires on
          violation, failure message). Assertion cells are part of the
          probe space, so the fuzzer treats a first violation as new
          coverage and emits the offending input. *)
  lookup_tables : (string * int array) array;
      (** Lookup-table coverage (Simulink's table coverage): per
          Lookup block, one probe cell per interpolation interval —
          [below-range; segment 1..n-1; above-range]. *)
}

val type_of : expr -> Dtype.t
(** Static type of an expression. *)

val bool_const : bool -> expr
val int_const : Dtype.t -> int -> expr
val float_const : Dtype.t -> float -> expr

val truthy : expr -> expr
(** Coerces to a Bool expression ([e <> 0]) unless already Bool. *)

val stmt_count : program -> int
(** Total statements, counting nested branches — a size metric used
    in reports. *)

val validate : program -> (unit, string) result
(** Checks variable ids are within [n_vars], probe ids within
    [n_probes], decision references within bounds, and that every
    outcome/condition probe cell is distinct. *)
