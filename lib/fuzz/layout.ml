open Cftcg_model
open Cftcg_ir
module Rng = Cftcg_util.Rng

type field = {
  f_name : string;
  f_ty : Dtype.t;
  f_offset : int;
  f_range : (float * float) option;
}

type t = {
  fields : field array;
  tuple_len : int;
  int_fields : int array;
  float_fields : int array;
}

(* Candidate indices are fixed by the dtypes, so they are computed
   once here instead of per mutation. Descending order matches what
   Mutate's old per-call ref-list scan produced, keeping same-seed
   campaigns byte-identical across the change. *)
let candidate_fields fields =
  let matching p =
    let out = ref [] in
    Array.iteri (fun i f -> if p f.f_ty then out := i :: !out) fields;
    Array.of_list !out
  in
  (matching (fun ty -> not (Dtype.is_float ty)), matching Dtype.is_float)

let of_inports ports =
  let offset = ref 0 in
  let fields =
    Array.map
      (fun (f_name, f_ty) ->
        let f = { f_name; f_ty; f_offset = !offset; f_range = None } in
        offset := !offset + Dtype.size_bytes f_ty;
        f)
      ports
  in
  let int_fields, float_fields = candidate_fields fields in
  { fields; tuple_len = !offset; int_fields; float_fields }

let of_program (p : Ir.program) =
  of_inports (Array.map (fun (v : Ir.var) -> (v.Ir.vname, v.Ir.vty)) p.Ir.inputs)

let with_ranges t ranges =
  List.iter
    (fun (name, lo, hi) ->
      (* a NaN bound would pass the order check and then feed NaN
         into every sampled value *)
      if not (Float.is_finite lo && Float.is_finite hi) then
        invalid_arg (Printf.sprintf "Layout.with_ranges: %s: non-finite bound" name);
      if lo > hi then invalid_arg (Printf.sprintf "Layout.with_ranges: %s: empty range" name);
      if not (Array.exists (fun f -> f.f_name = name) t.fields) then
        invalid_arg (Printf.sprintf "Layout.with_ranges: %s: no such inport" name))
    ranges;
  let fields =
    Array.map
      (fun f ->
        match List.find_opt (fun (name, _, _) -> name = f.f_name) ranges with
        | Some (_, lo, hi) -> { f with f_range = Some (lo, hi) }
        | None -> f)
      t.fields
  in
  { t with fields }

let clamp_field t ~field v =
  match t.fields.(field).f_range with
  | None -> v
  | Some (lo, hi) ->
    let ty = t.fields.(field).f_ty in
    let x = Value.to_float v in
    if x < lo then Value.of_float ty lo else if x > hi then Value.of_float ty hi else v

let n_tuples t data = if t.tuple_len = 0 then 0 else Bytes.length data / t.tuple_len

let field_value t data ~tuple ~field =
  let f = t.fields.(field) in
  Value.decode f.f_ty data ((tuple * t.tuple_len) + f.f_offset)

let set_field t data ~tuple ~field v =
  let f = t.fields.(field) in
  Value.encode (Value.cast f.f_ty v) data ((tuple * t.tuple_len) + f.f_offset)

(* a loop, not [Array.iteri], and no float crossing a module
   boundary: a step's decode allocates nothing *)
let load_tuple_vm t data ~tuple vm =
  let base = tuple * t.tuple_len in
  let fields = t.fields in
  for i = 0 to Array.length fields - 1 do
    let f = Array.unsafe_get fields i in
    Ir_vm.load_input vm i f.f_ty data (base + f.f_offset)
  done

let run_case ?(observe = ignore) t vm ~max_tuples data =
  Ir_vm.reset vm;
  observe ();
  for tuple = 0 to min (n_tuples t data) max_tuples - 1 do
    load_tuple_vm t data ~tuple vm;
    Ir_vm.step vm;
    observe ()
  done

let load_tuple_values t data ~tuple =
  let base = tuple * t.tuple_len in
  Array.map (fun f -> Value.decode f.f_ty data (base + f.f_offset)) t.fields

(* Byte distributions for fresh tuples: mostly small magnitudes, with
   a tail of extreme values so saturations and wraps stay reachable. *)
let random_field_value rng (ty : Dtype.t) =
  match ty with
  | Dtype.Bool -> Value.of_bool (Rng.bool rng)
  | ty when Dtype.is_integer ty -> (
    match Rng.int rng 10 with
    | 0 -> Value.of_int ty (Dtype.max_int_value ty)
    | 1 -> Value.of_int ty (Dtype.min_int_value ty)
    | 2 | 3 -> Value.of_int ty (Rng.int_in rng (-100000) 100000)
    | _ -> Value.of_int ty (Rng.int_in rng (-100) 100))
  | ty -> (
    match Rng.int rng 10 with
    | 0 -> Value.of_float ty (Rng.float rng 2e9 -. 1e9)
    | 1 -> Value.of_float ty 0.0
    | _ -> Value.of_float ty (Rng.float rng 200.0 -. 100.0))

let random_tuple_bytes t rng =
  let b = Bytes.make t.tuple_len '\000' in
  Array.iteri
    (fun i f ->
      let v =
        match f.f_range with
        | None -> random_field_value rng f.f_ty
        | Some (lo, hi) ->
          (* sample inside the tester-declared range *)
          Value.cast f.f_ty (Value.of_float Dtype.Float64 (lo +. Rng.float rng (hi -. lo)))
      in
      let v = clamp_field t ~field:i v in
      Value.encode (Value.cast f.f_ty v) b f.f_offset)
    t.fields;
  b
