(** Runtime values with C-generated-code semantics.

    The compiled fuzz program must behave like the C code Simulink
    emits: integer arithmetic wraps modulo the storage width,
    float-to-integer casts saturate (Simulink's "saturate on integer
    overflow" guard that its code generator inserts around casts),
    division by zero yields zero (the defensive pattern embedded
    targets use), and [Float32] values are rounded to single
    precision after every operation. *)

type t =
  | VBool of bool
  | VInt of Dtype.t * int  (** invariant: within the dtype's range *)
  | VFloat of Dtype.t * float
      (** dtype is [Float32] or [Float64]; [Float32] payloads are
          rounded to single precision *)

val dtype : t -> Dtype.t

val zero : Dtype.t -> t
(** Zero (or [false]) of the given type. *)

val of_int : Dtype.t -> int -> t
(** Wraps the integer into the dtype's range (two's complement).
    For float dtypes, converts exactly. For [Bool], nonzero is
    [true]. *)

val of_float : Dtype.t -> float -> t
(** For integer dtypes: truncates toward zero and saturates at the
    range bounds; NaN maps to zero. For [Bool], nonzero is [true]. *)

val of_bool : bool -> t

val to_float : t -> float
(** Numeric reading; [true] is 1.0. *)

val to_int : t -> int
(** Numeric reading, truncating floats toward zero (saturating at
    [Int32] bounds); [true] is 1. *)

val is_true : t -> bool
(** C truthiness: nonzero. *)

val cast : Dtype.t -> t -> t
(** Conversion following the rules above (Data Type Conversion
    block). *)

(** {1 Arithmetic}

    All binary operations are computed in [ty] and wrapped/rounded
    into it, mirroring code generated with that output type. *)

val add : Dtype.t -> t -> t -> t
val sub : Dtype.t -> t -> t -> t
val mul : Dtype.t -> t -> t -> t

val div : Dtype.t -> t -> t -> t
(** Integer division truncates toward zero; division by zero yields
    zero (both integer and float paths). *)

val rem : Dtype.t -> t -> t -> t
(** Remainder with the sign of the dividend; zero divisor yields
    zero. *)

val neg : Dtype.t -> t -> t
val abs : Dtype.t -> t -> t
val min : Dtype.t -> t -> t -> t
val max : Dtype.t -> t -> t -> t

(** {1 Comparison} *)

val compare_num : t -> t -> int
(** Numeric three-way comparison (values read as floats). *)

val equal : t -> t -> bool
(** Structural equality after numeric normalization within the same
    dtype; values of different dtypes are never equal. *)

(** {1 Binary codecs} *)

val decode : Dtype.t -> Bytes.t -> int -> t
(** Reads a little-endian value at the offset. Bool reads one byte
    (nonzero = true). *)

val encode : t -> Bytes.t -> int -> unit
(** Writes the little-endian representation at the offset. *)

val decode_into : Dtype.t -> Bytes.t -> int -> float array -> int -> unit
(** [decode_into ty b off dst i] stores [to_float (decode ty b off)] in
    [dst.(i)] without allocating — the raw-float execution backends'
    input fast path. *)

(** {1 Raw-float helpers}

    Used by the bytecode linearizer and VM, which run programs over
    an unboxed float register file while preserving these exact
    semantics. *)

val wrap : Dtype.t -> int -> int
(** Two's-complement wrap into an integer dtype's range. *)

val saturating_int_of_float : Dtype.t -> float -> int
(** Truncate toward zero, saturating at the dtype's bounds; NaN maps
    to 0. *)

val normalize_float : Dtype.t -> float -> float
(** Rounds to single precision for [Float32]; identity for
    [Float64]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Compact literal, e.g. ["int32:42"], ["double:1.5"],
    ["boolean:1"]. *)

val of_string : string -> t option
(** Inverse of {!to_string}. *)
