type t =
  | VBool of bool
  | VInt of Dtype.t * int
  | VFloat of Dtype.t * float

let dtype = function
  | VBool _ -> Dtype.Bool
  | VInt (ty, _) -> ty
  | VFloat (ty, _) -> ty

(* Two's-complement wrap of an arbitrary OCaml int into the dtype range.
   OCaml's 63-bit ints comfortably hold all intermediates for 32-bit
   arithmetic except 32x32 multiplication overflow, which still fits. *)
let wrap ty n =
  let bits =
    match ty with
    | Dtype.Int8 | Dtype.UInt8 -> 8
    | Dtype.Int16 | Dtype.UInt16 -> 16
    | Dtype.Int32 | Dtype.UInt32 -> 32
    | Dtype.Bool | Dtype.Float32 | Dtype.Float64 ->
      invalid_arg "Value.wrap: not an integer type"
  in
  let modulus = 1 lsl bits in
  let m = n land (modulus - 1) in
  if Dtype.is_signed ty && m >= modulus / 2 then m - modulus else m

let round_f32 f = Int32.float_of_bits (Int32.bits_of_float f)

let mk_float ty f =
  match ty with
  | Dtype.Float32 -> VFloat (Dtype.Float32, round_f32 f)
  | Dtype.Float64 -> VFloat (Dtype.Float64, f)
  | _ -> invalid_arg "Value.mk_float: not a float type"

let zero ty =
  match ty with
  | Dtype.Bool -> VBool false
  | ty when Dtype.is_integer ty -> VInt (ty, 0)
  | ty -> mk_float ty 0.0

let of_int ty n =
  match ty with
  | Dtype.Bool -> VBool (n <> 0)
  | ty when Dtype.is_integer ty -> VInt (ty, wrap ty n)
  | ty -> mk_float ty (float_of_int n)

let saturate_trunc ty f =
  if Float.is_nan f then 0
  else begin
    let t = Float.of_int 0 +. Float.trunc f in
    let lo = float_of_int (Dtype.min_int_value ty) in
    let hi = float_of_int (Dtype.max_int_value ty) in
    if t <= lo then Dtype.min_int_value ty
    else if t >= hi then Dtype.max_int_value ty
    else int_of_float t
  end

let of_float ty f =
  match ty with
  | Dtype.Bool -> VBool (f <> 0.0)
  | ty when Dtype.is_integer ty -> VInt (ty, saturate_trunc ty f)
  | ty -> mk_float ty f

let of_bool b = VBool b

let to_float = function
  | VBool b -> if b then 1.0 else 0.0
  | VInt (_, n) -> float_of_int n
  | VFloat (_, f) -> f

let to_int = function
  | VBool b -> if b then 1 else 0
  | VInt (_, n) -> n
  | VFloat (_, f) -> saturate_trunc Dtype.Int32 f

let is_true = function
  | VBool b -> b
  | VInt (_, n) -> n <> 0
  | VFloat (_, f) -> f <> 0.0

let cast ty v =
  match v with
  | VBool b -> of_int ty (if b then 1 else 0)
  | VInt (_, n) -> of_int ty n
  | VFloat (_, f) -> of_float ty f

let arith ty op_int op_float a b =
  match ty with
  | Dtype.Bool ->
    (* boolean signals never carry arithmetic results; normalize *)
    VBool (op_float (to_float a) (to_float b) <> 0.0)
  | ty when Dtype.is_integer ty -> VInt (ty, wrap ty (op_int (to_int a) (to_int b)))
  | ty -> mk_float ty (op_float (to_float a) (to_float b))

let add ty a b = arith ty ( + ) ( +. ) a b
let sub ty a b = arith ty ( - ) ( -. ) a b
let mul ty a b = arith ty ( * ) ( *. ) a b

let div ty a b =
  let div_int x y = if y = 0 then 0 else x / y in
  let div_float x y = if y = 0.0 then 0.0 else x /. y in
  arith ty div_int div_float a b

let rem ty a b =
  let rem_int x y = if y = 0 then 0 else x mod y in
  let rem_float x y = if y = 0.0 then 0.0 else Float.rem x y in
  arith ty rem_int rem_float a b

let neg ty a = sub ty (zero ty) a

let abs ty a =
  if Dtype.is_integer ty then VInt (ty, wrap ty (Int.abs (to_int a)))
  else if Dtype.is_float ty then mk_float ty (Float.abs (to_float a))
  else VBool (is_true a)

let min ty a b = if to_float a <= to_float b then cast ty a else cast ty b
let max ty a b = if to_float a >= to_float b then cast ty a else cast ty b

let compare_num a b = Float.compare (to_float a) (to_float b)

let equal a b =
  match (a, b) with
  | VBool x, VBool y -> x = y
  | VInt (ta, x), VInt (tb, y) -> Dtype.equal ta tb && x = y
  | VFloat (ta, x), VFloat (tb, y) ->
    Dtype.equal ta tb && (x = y || (Float.is_nan x && Float.is_nan y))
  | (VBool _ | VInt _ | VFloat _), _ -> false

let decode ty b off =
  match ty with
  | Dtype.Bool -> VBool (Cftcg_util.Bytecodec.get_u8 b off <> 0)
  | Dtype.Int8 -> VInt (ty, Cftcg_util.Bytecodec.get_i8 b off)
  | Dtype.UInt8 -> VInt (ty, Cftcg_util.Bytecodec.get_u8 b off)
  | Dtype.Int16 -> VInt (ty, Cftcg_util.Bytecodec.get_i16 b off)
  | Dtype.UInt16 -> VInt (ty, Cftcg_util.Bytecodec.get_u16 b off)
  | Dtype.Int32 -> VInt (ty, Cftcg_util.Bytecodec.get_i32 b off)
  | Dtype.UInt32 -> VInt (ty, Cftcg_util.Bytecodec.get_u32 b off)
  | Dtype.Float32 -> VFloat (ty, Cftcg_util.Bytecodec.get_f32 b off)
  | Dtype.Float64 -> VFloat (ty, Cftcg_util.Bytecodec.get_f64 b off)

(* to_float ∘ decode, written straight into [dst.(i)]: a float that
   lands in a float array inside this function is never boxed, while
   one returned across a module boundary is. The fuzzer's per-tuple
   input path runs this once per inport per model step. *)
let decode_into ty b off dst i =
  dst.(i) <-
    (match ty with
    | Dtype.Bool -> if Bytes.get_uint8 b off <> 0 then 1.0 else 0.0
    | Dtype.Int8 -> float_of_int (Bytes.get_int8 b off)
    | Dtype.UInt8 -> float_of_int (Bytes.get_uint8 b off)
    | Dtype.Int16 -> float_of_int (Bytes.get_int16_le b off)
    | Dtype.UInt16 -> float_of_int (Bytes.get_uint16_le b off)
    | Dtype.Int32 -> float_of_int (Int32.to_int (Bytes.get_int32_le b off))
    | Dtype.UInt32 -> float_of_int (Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF)
    | Dtype.Float32 -> Int32.float_of_bits (Bytes.get_int32_le b off)
    | Dtype.Float64 -> Int64.float_of_bits (Bytes.get_int64_le b off))

let encode v b off =
  match v with
  | VBool x -> Cftcg_util.Bytecodec.set_u8 b off (if x then 1 else 0)
  | VInt (ty, n) -> (
    match Dtype.size_bytes ty with
    | 1 -> Cftcg_util.Bytecodec.set_u8 b off (n land 0xFF)
    | 2 -> Cftcg_util.Bytecodec.set_u16 b off (n land 0xFFFF)
    | 4 -> Cftcg_util.Bytecodec.set_u32 b off (n land 0xFFFFFFFF)
    | _ -> assert false)
  | VFloat (Dtype.Float32, f) -> Cftcg_util.Bytecodec.set_f32 b off f
  | VFloat (_, f) -> Cftcg_util.Bytecodec.set_f64 b off f

let saturating_int_of_float = saturate_trunc

let normalize_float ty f =
  match ty with
  | Dtype.Float32 -> round_f32 f
  | _ -> f

let to_string v =
  match v with
  | VBool b -> Printf.sprintf "boolean:%d" (if b then 1 else 0)
  | VInt (ty, n) -> Printf.sprintf "%s:%d" (Dtype.name ty) n
  | VFloat (ty, f) -> Printf.sprintf "%s:%h" (Dtype.name ty) f

let of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i ->
    let tyname = String.sub s 0 i in
    let payload = String.sub s (i + 1) (String.length s - i - 1) in
    (match Dtype.of_string tyname with
    | None -> None
    | Some ty ->
      if Dtype.is_float ty then
        match float_of_string_opt payload with
        | Some f -> Some (of_float ty f)
        | None -> None
      else
        match int_of_string_opt payload with
        | Some n -> Some (of_int ty n)
        | None -> None)

let pp fmt v = Format.pp_print_string fmt (to_string v)
