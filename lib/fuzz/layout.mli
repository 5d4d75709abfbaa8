(** Fuzz driver field layout (paper §3.1.1, "data segmentation").

    A test case is a raw byte stream. Each model iteration consumes
    one {e tuple}: the concatenated little-endian encodings of every
    top-level inport, in port order. The layout records each field's
    offset and dtype so mutations can stay field-aligned and the
    driver can split the stream exactly as Figure 3's generated C
    does. *)

open Cftcg_model
open Cftcg_ir

type field = {
  f_name : string;
  f_ty : Dtype.t;
  f_offset : int;  (** byte offset within a tuple *)
  f_range : (float * float) option;
      (** optional tester-specified value range (paper §5: "ask the
          testers to specify the value ranges for inports"); fresh
          values and mutations are clamped into it *)
}

type t = {
  fields : field array;
  tuple_len : int;  (** bytes per model iteration *)
  int_fields : int array;
      (** indices of non-float fields, precomputed for
          {!Mutate.change_integer}-style candidate picks *)
  float_fields : int array;  (** indices of float fields *)
}

val of_inports : (string * Dtype.t) array -> t

val of_program : Ir.program -> t

val with_ranges : t -> (string * float * float) list -> t
(** Attaches [(port name, lo, hi)] ranges. A name that is no inport,
    an inverted range or a NaN or infinite bound raises
    [Invalid_argument] naming the port. *)

val clamp_field : t -> field:int -> Value.t -> Value.t
(** Clamps a value into the field's range (identity without one). *)

val n_tuples : t -> Bytes.t -> int
(** Complete tuples in a stream; trailing bytes that cannot fill
    every port are discarded (paper §3.1.1). *)

val field_value : t -> Bytes.t -> tuple:int -> field:int -> Value.t
(** Decode one field of one tuple. *)

val set_field : t -> Bytes.t -> tuple:int -> field:int -> Value.t -> unit

val load_tuple_vm : t -> Bytes.t -> tuple:int -> Ir_vm.t -> unit
(** Fast path: decode tuple [tuple] directly into the VM's input
    registers ({!Ir_vm.load_input}); allocates nothing. *)

val run_case :
  ?observe:(unit -> unit) -> t -> Ir_vm.t -> max_tuples:int -> Bytes.t -> unit
(** Runs one test case from reset, stepping at most [max_tuples]
    tuples; [observe] runs after the reset and after every step. The
    replay loop of scoring, minimization and the solver. *)

val load_tuple_values : t -> Bytes.t -> tuple:int -> Value.t array
(** Boxed decode, for the reference evaluator and CSV output. *)

val random_tuple_bytes : t -> Cftcg_util.Rng.t -> Bytes.t
(** A fresh random tuple. Integer fields are biased toward small
    magnitudes (embedded-controller inputs are rarely uniform over
    the full 32-bit range); floats toward moderate values, with
    occasional extreme bytes. *)
