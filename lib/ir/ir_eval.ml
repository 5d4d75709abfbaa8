open Cftcg_model

(* Statements annotated with the static depth-first index of each If
   (init traversed before step, then-arm before else-arm), matching
   the numbering Ir_linearize bakes into its branch records. *)
type astmt =
  | A_assign of Ir.var * Ir.expr
  | A_if of { if_ix : int; cond : Ir.expr; then_ : astmt list; else_ : astmt list }
  | A_probe of int
  | A_record_cond of { dec : int; cond_ix : int; value : Ir.expr }
  | A_record_decision of { dec : int; outcome : int }

type t = {
  prog : Ir.program;
  store : Value.t array;
  anno_init : astmt list;
  anno_step : astmt list;
}

let annotate counter stmts =
  let rec go_stmt (s : Ir.stmt) =
    match s with
    | Ir.Assign (v, e) -> Some (A_assign (v, e))
    | Ir.If { cond; dec = _; then_; else_ } ->
      let if_ix = !counter in
      incr counter;
      let then_ = go_block then_ in
      let else_ = go_block else_ in
      Some (A_if { if_ix; cond; then_; else_ })
    | Ir.Probe id -> Some (A_probe id)
    | Ir.Record_cond { dec; cond_ix; value } -> Some (A_record_cond { dec; cond_ix; value })
    | Ir.Record_decision { dec; outcome } -> Some (A_record_decision { dec; outcome })
    | Ir.Comment _ -> None
  and go_block stmts = List.filter_map go_stmt stmts in
  go_block stmts

let create (prog : Ir.program) =
  let counter = ref 0 in
  let anno_init = annotate counter prog.Ir.init in
  let anno_step = annotate counter prog.Ir.step in
  { prog; store = Array.make prog.Ir.n_vars (Value.of_bool false); anno_init; anno_step }

let total_unary ty f x =
  (* embedded-safe math: out-of-domain results are flushed to 0 *)
  let v = f x in
  if Float.is_nan v then Value.of_float ty 0.0 else Value.of_float ty v

let rec eval store (e : Ir.expr) : Value.t =
  match e with
  | Ir.Const v -> v
  | Ir.Read v -> store.(v.Ir.vid)
  | Ir.Unop (op, arg) -> eval_unop store op arg
  | Ir.Binop (op, ty, a, b) -> eval_binop store op ty a b
  | Ir.Select (c, a, b) ->
    (* both arms evaluated: branchless semantics *)
    let cv = eval store c in
    let av = eval store a in
    let bv = eval store b in
    if Value.is_true cv then av else bv

and eval_unop store op arg =
  let v = eval store arg in
  let float_ty =
    match Ir.type_of arg with
    | Dtype.Float32 -> Dtype.Float32
    | _ -> Dtype.Float64
  in
  match op with
  | Ir.U_neg -> Value.neg (Value.dtype v) v
  | Ir.U_not -> Value.of_bool (not (Value.is_true v))
  | Ir.U_abs -> Value.abs (Value.dtype v) v
  | Ir.U_cast ty -> Value.cast ty v
  | Ir.U_floor ->
    Value.cast (Ir.type_of arg) (Value.of_float Dtype.Float64 (Float.floor (Value.to_float v)))
  | Ir.U_ceil -> Value.cast (Ir.type_of arg) (Value.of_float Dtype.Float64 (Float.ceil (Value.to_float v)))
  | Ir.U_round ->
    Value.cast (Ir.type_of arg) (Value.of_float Dtype.Float64 (Float.round (Value.to_float v)))
  | Ir.U_trunc ->
    Value.cast (Ir.type_of arg) (Value.of_float Dtype.Float64 (Float.trunc (Value.to_float v)))
  | Ir.U_exp -> total_unary float_ty Float.exp (Value.to_float v)
  | Ir.U_log ->
    let x = Value.to_float v in
    if x <= 0.0 then Value.zero float_ty else total_unary float_ty Float.log x
  | Ir.U_log10 ->
    let x = Value.to_float v in
    if x <= 0.0 then Value.zero float_ty else total_unary float_ty Float.log10 x
  | Ir.U_sqrt ->
    let x = Value.to_float v in
    if x < 0.0 then Value.zero float_ty else Value.of_float float_ty (Float.sqrt x)
  | Ir.U_sin -> Value.of_float float_ty (Float.sin (Value.to_float v))
  | Ir.U_cos -> Value.of_float float_ty (Float.cos (Value.to_float v))

and eval_binop store op ty a b =
  let va = eval store a in
  let vb = eval store b in
  match op with
  | Ir.B_add -> Value.add ty va vb
  | Ir.B_sub -> Value.sub ty va vb
  | Ir.B_mul -> Value.mul ty va vb
  | Ir.B_div -> Value.div ty va vb
  | Ir.B_rem -> Value.rem ty va vb
  | Ir.B_min -> Value.min ty va vb
  | Ir.B_max -> Value.max ty va vb
  | Ir.B_and -> Value.of_bool (Value.is_true va && Value.is_true vb)
  | Ir.B_or -> Value.of_bool (Value.is_true va || Value.is_true vb)
  | Ir.B_eq -> Value.of_bool (Value.to_float va = Value.to_float vb)
  | Ir.B_ne -> Value.of_bool (Value.to_float va <> Value.to_float vb)
  | Ir.B_lt -> Value.of_bool (Value.to_float va < Value.to_float vb)
  | Ir.B_le -> Value.of_bool (Value.to_float va <= Value.to_float vb)
  | Ir.B_gt -> Value.of_bool (Value.to_float va > Value.to_float vb)
  | Ir.B_ge -> Value.of_bool (Value.to_float va >= Value.to_float vb)

(* Branch distance following Korel's rules with K = 1. *)
let branch_distances cond eval_fn =
  let num e = Value.to_float (eval_fn e) in
  let k = 1.0 in
  let rec go (e : Ir.expr) =
    match e with
    | Ir.Binop (Ir.B_and, _, a, b) ->
      let ta, fa = go a in
      let tb, fb = go b in
      (ta +. tb, Float.min fa fb)
    | Ir.Binop (Ir.B_or, _, a, b) ->
      let ta, fa = go a in
      let tb, fb = go b in
      (Float.min ta tb, fa +. fb)
    | Ir.Unop (Ir.U_not, a) ->
      let ta, fa = go a in
      (fa, ta)
    | Ir.Binop (Ir.B_eq, _, a, b) ->
      let d = Float.abs (num a -. num b) in
      if d = 0.0 then (0.0, k) else (d, 0.0)
    | Ir.Binop (Ir.B_ne, _, a, b) ->
      let d = Float.abs (num a -. num b) in
      if d = 0.0 then (k, 0.0) else (0.0, d)
    | Ir.Binop (Ir.B_lt, _, a, b) ->
      let d = num a -. num b in
      if d < 0.0 then (0.0, -.d) else (d +. k, 0.0)
    | Ir.Binop (Ir.B_le, _, a, b) ->
      let d = num a -. num b in
      if d <= 0.0 then (0.0, -.d +. k) else (d, 0.0)
    | Ir.Binop (Ir.B_gt, _, a, b) ->
      let d = num b -. num a in
      if d < 0.0 then (0.0, -.d) else (d +. k, 0.0)
    | Ir.Binop (Ir.B_ge, _, a, b) ->
      let d = num b -. num a in
      if d <= 0.0 then (0.0, -.d +. k) else (d, 0.0)
    | e ->
      (* opaque boolean: distance is 0 / K by truth value *)
      if Value.is_true (eval_fn e) then (0.0, k) else (k, 0.0)
  in
  go cond

let fire_probe hooks id =
  match hooks.Hooks.on_probe with
  | Some f -> f id
  | None -> ()

let exec_stmts hooks store stmts =
  let rec exec_stmt s =
    match s with
    | A_assign (v, e) -> store.(v.Ir.vid) <- Value.cast v.Ir.vty (eval store e)
    | A_if { if_ix; cond; then_; else_ } ->
      let taken = Value.is_true (eval store cond) in
      (match hooks.Hooks.on_branch with
      | Some f ->
        let dt, df = branch_distances cond (eval store) in
        f if_ix taken dt df
      | None -> ());
      List.iter exec_stmt (if taken then then_ else else_)
    | A_probe id -> fire_probe hooks id
    | A_record_cond { dec; cond_ix; value } -> (
      match hooks.Hooks.on_cond with
      | Some f -> f dec cond_ix (Value.is_true (eval store value))
      | None -> ())
    | A_record_decision { dec; outcome } -> (
      match hooks.Hooks.on_decision with
      | Some f -> f dec outcome
      | None -> ())
  in
  List.iter exec_stmt stmts

let reset ?(hooks = Hooks.none) t =
  Array.iteri (fun i _ -> t.store.(i) <- Value.of_bool false) t.store;
  (* give every variable a typed zero so reads before writes are sane *)
  let zero_var (v : Ir.var) = t.store.(v.Ir.vid) <- Value.zero v.Ir.vty in
  Array.iter zero_var t.prog.Ir.inputs;
  Array.iter zero_var t.prog.Ir.outputs;
  Array.iter zero_var t.prog.Ir.states;
  exec_stmts hooks t.store t.anno_init

let set_input t i v =
  let var = t.prog.Ir.inputs.(i) in
  t.store.(var.Ir.vid) <- Value.cast var.Ir.vty v

let step ?(hooks = Hooks.none) t = exec_stmts hooks t.store t.anno_step

let get_output t i = t.store.(t.prog.Ir.outputs.(i).Ir.vid)

let get_var t (v : Ir.var) = t.store.(v.Ir.vid)
