open Cftcg_model

(* Flat bytecode VM over an unboxed float register file — the one
   compiled execution backend, built for the fuzzing inner loop.

   Each expression node costs one dispatch on an immediate int, and
   probe fires write straight into a coverage byte buffer and OR into
   its bit-word twin — so the fuzzer diffs and counts probe sets a
   word (32 probes) at a time. *)

type probes = {
  p_fired : Bytes.t;  (* 0/1 membership per probe cell *)
  p_bits : int array;  (* the same set, bit [id land 31] of word [id lsr 5] *)
}

type branches = {
  b_reached : Bytes.t;
  b_min_dt : float array;
  b_min_df : float array;
}

(* Compiled code, kept apart from any run state so one (expensive)
   optimization serves every instance a run or campaign makes.
   Invariant: nothing writes a [code]'s arrays after [prepare_with]
   returns — the VM only reads [l_init]/[l_step], and [reset] blits
   [l_consts] *into* the register file — so instances on different
   domains can share one [code] without synchronization. The one
   mutable part, [c_carried], is written once with a value every
   writer computes alike. *)
type code = {
  c_lin : Ir_linearize.t;
  c_carried : int array Atomic.t;
      (* the step block's entry-live registers minus the inputs: all a
         later step can read of the state between two steps;
         [not_yet] until first asked for *)
}

let not_yet = [| -1 |]

type t = {
  lin : Ir_linearize.t;
  code : code;
  regs : float array;
  mutable probes : probes;
  on_probe : int -> unit;
  on_cond : int -> int -> bool -> unit;
  on_decision : int -> int -> unit;
  on_branch : (int -> bool -> float -> float -> unit) option;
  branches : branches;
  watch : float array;
      (* per [If] site, 1.0 when it records, 0.0 when it runs its plain
         compare: what [reset] loads into the watch registers *)
}

let make_probes n = { p_fired = Bytes.make n '\000'; p_bits = Array.make ((n + 31) / 32) 0 }

let clear_probes p =
  Bytes.unsafe_fill p.p_fired 0 (Bytes.length p.p_fired) '\000';
  for w = 0 to Array.length p.p_bits - 1 do
    Array.unsafe_set p.p_bits w 0
  done

(* 32-bit SWAR population count *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

let iter_fired f p =
  for w = 0 to Array.length p.p_bits - 1 do
    let x = ref (Array.unsafe_get p.p_bits w) in
    while !x <> 0 do
      let low = !x land (- !x) in
      f ((w lsl 5) lor popcount (low - 1));
      x := !x lxor low
    done
  done

(* A probe fire: the byte and the bit, stored unconditionally (a
   repeat fire rewrites the same values), so no arm branches on it. *)
let[@inline] fire pb id =
  Bytes.unsafe_set pb.p_fired id '\001';
  let w = id lsr 5 in
  Array.unsafe_set pb.p_bits w (Array.unsafe_get pb.p_bits w lor (1 lsl (id land 31)))

(* Inputs are rewritten before every step, so their entry values are
   never read: they leave the carried set. Computed on first use, not
   by [prepare]: most codes (the solver's, the scoring replayer's) are
   never resumed, and set-up pays nothing for them. Domains that race
   here compute equal sets, so either write may win. *)
let code_carried code =
  let c = Atomic.get code.c_carried in
  if c != not_yet then c
  else begin
    let lin = code.c_lin in
    let inputs = lin.Ir_linearize.l_prog.Ir.inputs in
    let is_input r = Array.exists (fun (v : Ir.var) -> v.Ir.vid = r) inputs in
    let c =
      Array.of_list
        (List.filter (fun r -> not (is_input r)) (Array.to_list (Ir_opt.step_entry_live lin)))
    in
    Atomic.set code.c_carried c;
    c
  end

let prepare_with ~instrument ~optimize (prog : Ir.program) : code =
  let lin =
    Cftcg_obs.Trace.with_span "ir.linearize" (fun () -> Ir_linearize.linearize ~instrument prog)
  in
  let lin = if optimize then Ir_opt.optimize_bytecode lin else lin in
  { c_lin = lin; c_carried = Atomic.make not_yet }

let prepare ?(optimize = true) ?(branches = false) prog =
  let instrument = { Ir_linearize.no_instrumentation with Ir_linearize.branch = branches } in
  prepare_with ~instrument ~optimize prog

(* a fresh instance over [code]: its own registers (constant pool
   loaded, as after any [reset]), probe buffer and branch minima
   (empty unless the code records branches) *)
let instantiate ~(hooks : Hooks.t) ({ c_lin = lin; _ } as code) =
  let n_sites = lin.Ir_linearize.l_branch_sites in
  let regs = Array.make (max lin.Ir_linearize.l_n_regs 1) 0.0 in
  Array.blit lin.Ir_linearize.l_consts 0 regs lin.Ir_linearize.l_const_base
    (Array.length lin.Ir_linearize.l_consts);
  let watch = Array.make n_sites 1.0 in
  Array.blit watch 0 regs lin.Ir_linearize.l_prog.Ir.n_vars n_sites;
  {
    lin;
    code;
    regs;
    probes = make_probes (max lin.Ir_linearize.l_prog.Ir.n_probes 1);
    on_probe = (match hooks.Hooks.on_probe with Some f -> f | None -> ignore);
    on_cond =
      (match hooks.Hooks.on_cond with Some f -> f | None -> fun _ _ _ -> ());
    on_decision =
      (match hooks.Hooks.on_decision with Some f -> f | None -> fun _ _ -> ());
    on_branch = hooks.Hooks.on_branch;
    branches =
      {
        b_reached = Bytes.make n_sites '\000';
        b_min_dt = Array.make n_sites Float.infinity;
        b_min_df = Array.make n_sites Float.infinity;
      };
    watch;
  }

let of_code code = instantiate ~hooks:Hooks.none code

let compile ?(hooks = Hooks.none) ?(optimize = true) (prog : Ir.program) =
  let instrument =
    {
      Ir_linearize.probe_hook = Option.is_some hooks.Hooks.on_probe;
      cond = Option.is_some hooks.Hooks.on_cond;
      decision = Option.is_some hooks.Hooks.on_decision;
      branch = Option.is_some hooks.Hooks.on_branch;
    }
  in
  instantiate ~hooks (prepare_with ~instrument ~optimize prog)

(* ------------------------------------------------------------------ *)
(* Dispatch loop                                                       *)
(* ------------------------------------------------------------------ *)

(* integer two's-complement wrap with pre-baked mask/half *)
let[@inline] wrap n mask half =
  let m = n land mask in
  if m >= half then m - (mask + 1) else m

(* Opcode numbers match Ir_linearize.op_* (dense 0..79, so the match
   compiles to a jump table). All register and code accesses are
   unsafe: the linearizer only ever emits in-range indices, and every
   block ends in HALT so dispatch needs no bounds check — each arm
   tail-calls [go] at the next pc. [go] is a top-level function that
   takes the register file, probe buffer and code as arguments, not a
   closure over them, so a call allocates nothing. Every operand fetch
   is spelled out — a helper closure here would be allocated on each
   dispatch and dominate the loop. *)
let rec go vm regs pb code i =
  match Array.unsafe_get code i with
  | 0 (* mov *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Array.unsafe_get regs (Array.unsafe_get code (i + 2)));
    go vm regs pb code (i + 3)
  | 1 (* add_f *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Array.unsafe_get regs (Array.unsafe_get code (i + 2))
      +. Array.unsafe_get regs (Array.unsafe_get code (i + 3)));
    go vm regs pb code (i + 4)
  | 2 (* sub_f *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Array.unsafe_get regs (Array.unsafe_get code (i + 2))
      -. Array.unsafe_get regs (Array.unsafe_get code (i + 3)));
    go vm regs pb code (i + 4)
  | 3 (* mul_f *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Array.unsafe_get regs (Array.unsafe_get code (i + 2))
      *. Array.unsafe_get regs (Array.unsafe_get code (i + 3)));
    go vm regs pb code (i + 4)
  | 4 (* div_f *) ->
    let y = Array.unsafe_get regs (Array.unsafe_get code (i + 3)) in
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if y = 0.0 then 0.0 else Array.unsafe_get regs (Array.unsafe_get code (i + 2)) /. y);
    go vm regs pb code (i + 4)
  | 5 (* rem_f *) ->
    let y = Array.unsafe_get regs (Array.unsafe_get code (i + 3)) in
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if y = 0.0 then 0.0
       else Float.rem (Array.unsafe_get regs (Array.unsafe_get code (i + 2))) y);
    go vm regs pb code (i + 4)
  | 6 (* add_i *) ->
    let n =
      int_of_float (Array.unsafe_get regs (Array.unsafe_get code (i + 2)))
      + int_of_float (Array.unsafe_get regs (Array.unsafe_get code (i + 3)))
    in
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (float_of_int (wrap n (Array.unsafe_get code (i + 4)) (Array.unsafe_get code (i + 5))));
    go vm regs pb code (i + 6)
  | 7 (* sub_i *) ->
    let n =
      int_of_float (Array.unsafe_get regs (Array.unsafe_get code (i + 2)))
      - int_of_float (Array.unsafe_get regs (Array.unsafe_get code (i + 3)))
    in
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (float_of_int (wrap n (Array.unsafe_get code (i + 4)) (Array.unsafe_get code (i + 5))));
    go vm regs pb code (i + 6)
  | 8 (* mul_i *) ->
    let n =
      int_of_float (Array.unsafe_get regs (Array.unsafe_get code (i + 2)))
      * int_of_float (Array.unsafe_get regs (Array.unsafe_get code (i + 3)))
    in
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (float_of_int (wrap n (Array.unsafe_get code (i + 4)) (Array.unsafe_get code (i + 5))));
    go vm regs pb code (i + 6)
  | 9 (* div_i *) ->
    let x = int_of_float (Array.unsafe_get regs (Array.unsafe_get code (i + 2))) in
    let y = int_of_float (Array.unsafe_get regs (Array.unsafe_get code (i + 3))) in
    let n = if y = 0 then 0 else x / y in
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (float_of_int (wrap n (Array.unsafe_get code (i + 4)) (Array.unsafe_get code (i + 5))));
    go vm regs pb code (i + 6)
  | 10 (* rem_i *) ->
    let x = int_of_float (Array.unsafe_get regs (Array.unsafe_get code (i + 2))) in
    let y = int_of_float (Array.unsafe_get regs (Array.unsafe_get code (i + 3))) in
    let n = if y = 0 then 0 else x mod y in
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (float_of_int (wrap n (Array.unsafe_get code (i + 4)) (Array.unsafe_get code (i + 5))));
    go vm regs pb code (i + 6)
  | 11 (* neg_f *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (-.Array.unsafe_get regs (Array.unsafe_get code (i + 2)));
    go vm regs pb code (i + 3)
  | 12 (* neg_i *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (float_of_int
         (wrap
            (-int_of_float (Array.unsafe_get regs (Array.unsafe_get code (i + 2))))
            (Array.unsafe_get code (i + 3))
            (Array.unsafe_get code (i + 4))));
    go vm regs pb code (i + 5)
  | 13 (* abs_f *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Float.abs (Array.unsafe_get regs (Array.unsafe_get code (i + 2))));
    go vm regs pb code (i + 3)
  | 14 (* abs_i *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (float_of_int
         (wrap
            (Int.abs (int_of_float (Array.unsafe_get regs (Array.unsafe_get code (i + 2)))))
            (Array.unsafe_get code (i + 3))
            (Array.unsafe_get code (i + 4))));
    go vm regs pb code (i + 5)
  | 15 (* not *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if Array.unsafe_get regs (Array.unsafe_get code (i + 2)) <> 0.0 then 0.0 else 1.0);
    go vm regs pb code (i + 3)
  | 16 (* to_bool *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if Array.unsafe_get regs (Array.unsafe_get code (i + 2)) <> 0.0 then 1.0 else 0.0);
    go vm regs pb code (i + 3)
  | 17 (* round_f32 *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Value.normalize_float Dtype.Float32
         (Array.unsafe_get regs (Array.unsafe_get code (i + 2))));
    go vm regs pb code (i + 3)
  | 18 (* f2i_sat *) ->
    let f = Array.unsafe_get regs (Array.unsafe_get code (i + 2)) in
    let r =
      if Float.is_nan f then 0.0
      else begin
        let t = Float.trunc f in
        let lo = Array.unsafe_get regs (Array.unsafe_get code (i + 3)) in
        let hi = Array.unsafe_get regs (Array.unsafe_get code (i + 4)) in
        if t <= lo then lo else if t >= hi then hi else t
      end
    in
    Array.unsafe_set regs (Array.unsafe_get code (i + 1)) r;
    go vm regs pb code (i + 5)
  | 19 (* wrap_i *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (float_of_int
         (wrap
            (int_of_float (Array.unsafe_get regs (Array.unsafe_get code (i + 2))))
            (Array.unsafe_get code (i + 3))
            (Array.unsafe_get code (i + 4))));
    go vm regs pb code (i + 5)
  | 20 (* floor *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Float.floor (Array.unsafe_get regs (Array.unsafe_get code (i + 2))));
    go vm regs pb code (i + 3)
  | 21 (* ceil *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Float.ceil (Array.unsafe_get regs (Array.unsafe_get code (i + 2))));
    go vm regs pb code (i + 3)
  | 22 (* round *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Float.round (Array.unsafe_get regs (Array.unsafe_get code (i + 2))));
    go vm regs pb code (i + 3)
  | 23 (* trunc *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Float.trunc (Array.unsafe_get regs (Array.unsafe_get code (i + 2))));
    go vm regs pb code (i + 3)
  | 24 (* exp *) ->
    let v = Float.exp (Array.unsafe_get regs (Array.unsafe_get code (i + 2))) in
    Array.unsafe_set regs (Array.unsafe_get code (i + 1)) (if Float.is_nan v then 0.0 else v);
    go vm regs pb code (i + 3)
  | 25 (* log *) ->
    let x = Array.unsafe_get regs (Array.unsafe_get code (i + 2)) in
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if x <= 0.0 then 0.0 else Float.log x);
    go vm regs pb code (i + 3)
  | 26 (* log10 *) ->
    let x = Array.unsafe_get regs (Array.unsafe_get code (i + 2)) in
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if x <= 0.0 then 0.0 else Float.log10 x);
    go vm regs pb code (i + 3)
  | 27 (* sqrt *) ->
    let x = Array.unsafe_get regs (Array.unsafe_get code (i + 2)) in
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if x < 0.0 then 0.0 else Float.sqrt x);
    go vm regs pb code (i + 3)
  | 28 (* sin *) ->
    let v = Float.sin (Array.unsafe_get regs (Array.unsafe_get code (i + 2))) in
    Array.unsafe_set regs (Array.unsafe_get code (i + 1)) (if Float.is_nan v then 0.0 else v);
    go vm regs pb code (i + 3)
  | 29 (* cos *) ->
    let v = Float.cos (Array.unsafe_get regs (Array.unsafe_get code (i + 2))) in
    Array.unsafe_set regs (Array.unsafe_get code (i + 1)) (if Float.is_nan v then 0.0 else v);
    go vm regs pb code (i + 3)
  | 30 (* cmp_eq *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if
         Array.unsafe_get regs (Array.unsafe_get code (i + 2))
         = Array.unsafe_get regs (Array.unsafe_get code (i + 3))
       then 1.0
       else 0.0);
    go vm regs pb code (i + 4)
  | 31 (* cmp_ne *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if
         Array.unsafe_get regs (Array.unsafe_get code (i + 2))
         <> Array.unsafe_get regs (Array.unsafe_get code (i + 3))
       then 1.0
       else 0.0);
    go vm regs pb code (i + 4)
  | 32 (* cmp_lt *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if
         Array.unsafe_get regs (Array.unsafe_get code (i + 2))
         < Array.unsafe_get regs (Array.unsafe_get code (i + 3))
       then 1.0
       else 0.0);
    go vm regs pb code (i + 4)
  | 33 (* cmp_le *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if
         Array.unsafe_get regs (Array.unsafe_get code (i + 2))
         <= Array.unsafe_get regs (Array.unsafe_get code (i + 3))
       then 1.0
       else 0.0);
    go vm regs pb code (i + 4)
  | 34 (* cmp_gt *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if
         Array.unsafe_get regs (Array.unsafe_get code (i + 2))
         > Array.unsafe_get regs (Array.unsafe_get code (i + 3))
       then 1.0
       else 0.0);
    go vm regs pb code (i + 4)
  | 35 (* cmp_ge *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if
         Array.unsafe_get regs (Array.unsafe_get code (i + 2))
         >= Array.unsafe_get regs (Array.unsafe_get code (i + 3))
       then 1.0
       else 0.0);
    go vm regs pb code (i + 4)
  | 36 (* and *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if
         Array.unsafe_get regs (Array.unsafe_get code (i + 2)) <> 0.0
         && Array.unsafe_get regs (Array.unsafe_get code (i + 3)) <> 0.0
       then 1.0
       else 0.0);
    go vm regs pb code (i + 4)
  | 37 (* or *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if
         Array.unsafe_get regs (Array.unsafe_get code (i + 2)) <> 0.0
         || Array.unsafe_get regs (Array.unsafe_get code (i + 3)) <> 0.0
       then 1.0
       else 0.0);
    go vm regs pb code (i + 4)
  | 38 (* select *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if Array.unsafe_get regs (Array.unsafe_get code (i + 2)) <> 0.0 then
         Array.unsafe_get regs (Array.unsafe_get code (i + 3))
       else Array.unsafe_get regs (Array.unsafe_get code (i + 4)));
    go vm regs pb code (i + 5)
  | 39 (* jmp *) -> go vm regs pb code (Array.unsafe_get code (i + 1))
  | 40 (* jz *) ->
    if Array.unsafe_get regs (Array.unsafe_get code (i + 1)) = 0.0 then
      go vm regs pb code (Array.unsafe_get code (i + 2))
    else go vm regs pb code (i + 3)
  | 41 (* probe *) ->
    let id = Array.unsafe_get code (i + 1) in
    fire pb id;
    go vm regs pb code (i + 2)
  | 42 (* probe + hook *) ->
    let id = Array.unsafe_get code (i + 1) in
    fire pb id;
    vm.on_probe id;
    go vm regs pb code (i + 2)
  | 43 (* cond *) ->
    vm.on_cond
      (Array.unsafe_get code (i + 1))
      (Array.unsafe_get code (i + 2))
      (Array.unsafe_get regs (Array.unsafe_get code (i + 3)) <> 0.0);
    go vm regs pb code (i + 4)
  | 44 (* decision *) ->
    vm.on_decision (Array.unsafe_get code (i + 1)) (Array.unsafe_get code (i + 2));
    go vm regs pb code (i + 3)
  | 45 (* branch record: fold this visit's distances into the minima *) ->
    let br = vm.branches in
    let ix = Array.unsafe_get code (i + 1) in
    let dt = Array.unsafe_get regs (Array.unsafe_get code (i + 3)) in
    let df = Array.unsafe_get regs (Array.unsafe_get code (i + 4)) in
    Bytes.unsafe_set br.b_reached ix '\001';
    if dt < Array.unsafe_get br.b_min_dt ix then Array.unsafe_set br.b_min_dt ix dt;
    if df < Array.unsafe_get br.b_min_df ix then Array.unsafe_set br.b_min_df ix df;
    (match vm.on_branch with
    | None -> ()
    | Some report ->
      report ix
        (Array.unsafe_get regs (Array.unsafe_get code (i + 2)) <> 0.0)
        (Array.unsafe_get regs (Array.unsafe_get code (i + 3)))
        (Array.unsafe_get regs (Array.unsafe_get code (i + 4))));
    go vm regs pb code (i + 5)
  | 46 (* halt *) -> ()
  (* superinstructions 47..63, emitted only by Ir_opt's fusion pass.
     The compare-and-jump arms take the branch when the comparison
     is FALSE — exactly what the replaced [cmp_*; jz] pair did,
     including the NaN behaviour (any ordered compare with NaN is
     false, so a NaN operand always branches). *)
  | 47 (* jlt *) ->
    if
      Array.unsafe_get regs (Array.unsafe_get code (i + 1))
      < Array.unsafe_get regs (Array.unsafe_get code (i + 2))
    then go vm regs pb code (i + 4)
    else go vm regs pb code (Array.unsafe_get code (i + 3))
  | 48 (* jle *) ->
    if
      Array.unsafe_get regs (Array.unsafe_get code (i + 1))
      <= Array.unsafe_get regs (Array.unsafe_get code (i + 2))
    then go vm regs pb code (i + 4)
    else go vm regs pb code (Array.unsafe_get code (i + 3))
  | 49 (* jeq *) ->
    if
      Array.unsafe_get regs (Array.unsafe_get code (i + 1))
      = Array.unsafe_get regs (Array.unsafe_get code (i + 2))
    then go vm regs pb code (i + 4)
    else go vm regs pb code (Array.unsafe_get code (i + 3))
  | 50 (* jne *) ->
    if
      Array.unsafe_get regs (Array.unsafe_get code (i + 1))
      <> Array.unsafe_get regs (Array.unsafe_get code (i + 2))
    then go vm regs pb code (i + 4)
    else go vm regs pb code (Array.unsafe_get code (i + 3))
  | 51 (* jnz *) ->
    if Array.unsafe_get regs (Array.unsafe_get code (i + 1)) <> 0.0 then
      go vm regs pb code (Array.unsafe_get code (i + 2))
    else go vm regs pb code (i + 3)
  | 52 (* add_f32 *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Value.normalize_float Dtype.Float32
         (Array.unsafe_get regs (Array.unsafe_get code (i + 2))
         +. Array.unsafe_get regs (Array.unsafe_get code (i + 3))));
    go vm regs pb code (i + 4)
  | 53 (* sub_f32 *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Value.normalize_float Dtype.Float32
         (Array.unsafe_get regs (Array.unsafe_get code (i + 2))
         -. Array.unsafe_get regs (Array.unsafe_get code (i + 3))));
    go vm regs pb code (i + 4)
  | 54 (* mul_f32 *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Value.normalize_float Dtype.Float32
         (Array.unsafe_get regs (Array.unsafe_get code (i + 2))
         *. Array.unsafe_get regs (Array.unsafe_get code (i + 3))));
    go vm regs pb code (i + 4)
  | 55 (* div_f32 *) ->
    let y = Array.unsafe_get regs (Array.unsafe_get code (i + 3)) in
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Value.normalize_float Dtype.Float32
         (if y = 0.0 then 0.0
          else Array.unsafe_get regs (Array.unsafe_get code (i + 2)) /. y));
    go vm regs pb code (i + 4)
  | 56 (* probe + jmp *) ->
    let id = Array.unsafe_get code (i + 1) in
    fire pb id;
    go vm regs pb code (Array.unsafe_get code (i + 2))
  | 57 (* mov + jmp *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Array.unsafe_get regs (Array.unsafe_get code (i + 2)));
    go vm regs pb code (Array.unsafe_get code (i + 3))
  (* probe-carrying conditional branches 58..63: the branch-arm
     probe fused into the branch itself. Fall through => the probe
     fires; jump => it is skipped — bit-identical to the unfused
     [j..; probe] pair, NaN behaviour included. *)
  | 58 (* jlt.p *) ->
    if
      Array.unsafe_get regs (Array.unsafe_get code (i + 1))
      < Array.unsafe_get regs (Array.unsafe_get code (i + 2))
    then begin
      let id = Array.unsafe_get code (i + 3) in
      fire pb id;
      go vm regs pb code (i + 5)
    end
    else go vm regs pb code (Array.unsafe_get code (i + 4))
  | 59 (* jle.p *) ->
    if
      Array.unsafe_get regs (Array.unsafe_get code (i + 1))
      <= Array.unsafe_get regs (Array.unsafe_get code (i + 2))
    then begin
      let id = Array.unsafe_get code (i + 3) in
      fire pb id;
      go vm regs pb code (i + 5)
    end
    else go vm regs pb code (Array.unsafe_get code (i + 4))
  | 60 (* jeq.p *) ->
    if
      Array.unsafe_get regs (Array.unsafe_get code (i + 1))
      = Array.unsafe_get regs (Array.unsafe_get code (i + 2))
    then begin
      let id = Array.unsafe_get code (i + 3) in
      fire pb id;
      go vm regs pb code (i + 5)
    end
    else go vm regs pb code (Array.unsafe_get code (i + 4))
  | 61 (* jne.p *) ->
    if
      Array.unsafe_get regs (Array.unsafe_get code (i + 1))
      <> Array.unsafe_get regs (Array.unsafe_get code (i + 2))
    then begin
      let id = Array.unsafe_get code (i + 3) in
      fire pb id;
      go vm regs pb code (i + 5)
    end
    else go vm regs pb code (Array.unsafe_get code (i + 4))
  | 62 (* jz.p *) ->
    if Array.unsafe_get regs (Array.unsafe_get code (i + 1)) = 0.0 then
      go vm regs pb code (Array.unsafe_get code (i + 3))
    else begin
      let id = Array.unsafe_get code (i + 2) in
      fire pb id;
      go vm regs pb code (i + 4)
    end
  | 63 (* jnz.p *) ->
    if Array.unsafe_get regs (Array.unsafe_get code (i + 1)) <> 0.0 then
      go vm regs pb code (Array.unsafe_get code (i + 3))
    else begin
      let id = Array.unsafe_get code (i + 2) in
      fire pb id;
      go vm regs pb code (i + 4)
    end
  (* branch distances 64..70 (see Ir_linearize): one side of a
     comparison's Korel distance each, K = 1 *)
  | 64 (* dt_eq *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Float.abs
         (Array.unsafe_get regs (Array.unsafe_get code (i + 2))
         -. Array.unsafe_get regs (Array.unsafe_get code (i + 3))));
    go vm regs pb code (i + 4)
  | 65 (* df_eq *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if
         Float.abs
           (Array.unsafe_get regs (Array.unsafe_get code (i + 2))
           -. Array.unsafe_get regs (Array.unsafe_get code (i + 3)))
         = 0.0
       then 1.0
       else 0.0);
    go vm regs pb code (i + 4)
  | 66 (* dt_lt *) ->
    let d =
      Array.unsafe_get regs (Array.unsafe_get code (i + 2))
      -. Array.unsafe_get regs (Array.unsafe_get code (i + 3))
    in
    Array.unsafe_set regs (Array.unsafe_get code (i + 1)) (if d < 0.0 then 0.0 else d +. 1.0);
    go vm regs pb code (i + 4)
  | 67 (* df_lt *) ->
    let d =
      Array.unsafe_get regs (Array.unsafe_get code (i + 2))
      -. Array.unsafe_get regs (Array.unsafe_get code (i + 3))
    in
    Array.unsafe_set regs (Array.unsafe_get code (i + 1)) (if d < 0.0 then -.d else 0.0);
    go vm regs pb code (i + 4)
  | 68 (* dt_le *) ->
    let d =
      Array.unsafe_get regs (Array.unsafe_get code (i + 2))
      -. Array.unsafe_get regs (Array.unsafe_get code (i + 3))
    in
    Array.unsafe_set regs (Array.unsafe_get code (i + 1)) (if d <= 0.0 then 0.0 else d);
    go vm regs pb code (i + 4)
  | 69 (* df_le *) ->
    let d =
      Array.unsafe_get regs (Array.unsafe_get code (i + 2))
      -. Array.unsafe_get regs (Array.unsafe_get code (i + 3))
    in
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (if d <= 0.0 then -.d +. 1.0 else 0.0);
    go vm regs pb code (i + 4)
  | 70 (* min_f *) ->
    Array.unsafe_set regs
      (Array.unsafe_get code (i + 1))
      (Float.min
         (Array.unsafe_get regs (Array.unsafe_get code (i + 2)))
         (Array.unsafe_get regs (Array.unsafe_get code (i + 3))));
    go vm regs pb code (i + 4)
  (* probe selects 71..74 and probe-firing sets 75..79: a whole
     two-probe diamond in one dispatch (see Ir_linearize). The
     relation reads its operands before a setp writes its register. *)
  | 71 (* psel.lt *) ->
    fire pb
      (if
         Array.unsafe_get regs (Array.unsafe_get code (i + 1))
         < Array.unsafe_get regs (Array.unsafe_get code (i + 2))
       then Array.unsafe_get code (i + 3)
       else Array.unsafe_get code (i + 4));
    go vm regs pb code (i + 5)
  | 72 (* psel.le *) ->
    fire pb
      (if
         Array.unsafe_get regs (Array.unsafe_get code (i + 1))
         <= Array.unsafe_get regs (Array.unsafe_get code (i + 2))
       then Array.unsafe_get code (i + 3)
       else Array.unsafe_get code (i + 4));
    go vm regs pb code (i + 5)
  | 73 (* psel.eq *) ->
    fire pb
      (if
         Array.unsafe_get regs (Array.unsafe_get code (i + 1))
         = Array.unsafe_get regs (Array.unsafe_get code (i + 2))
       then Array.unsafe_get code (i + 3)
       else Array.unsafe_get code (i + 4));
    go vm regs pb code (i + 5)
  | 74 (* psel.nz *) ->
    fire pb
      (if Array.unsafe_get regs (Array.unsafe_get code (i + 1)) <> 0.0 then
         Array.unsafe_get code (i + 2)
       else Array.unsafe_get code (i + 3));
    go vm regs pb code (i + 4)
  | 75 (* setp.lt *) ->
    if
      Array.unsafe_get regs (Array.unsafe_get code (i + 2))
      < Array.unsafe_get regs (Array.unsafe_get code (i + 3))
    then begin
      Array.unsafe_set regs (Array.unsafe_get code (i + 1)) 1.0;
      fire pb (Array.unsafe_get code (i + 4))
    end
    else begin
      Array.unsafe_set regs (Array.unsafe_get code (i + 1)) 0.0;
      fire pb (Array.unsafe_get code (i + 5))
    end;
    go vm regs pb code (i + 6)
  | 76 (* setp.le *) ->
    if
      Array.unsafe_get regs (Array.unsafe_get code (i + 2))
      <= Array.unsafe_get regs (Array.unsafe_get code (i + 3))
    then begin
      Array.unsafe_set regs (Array.unsafe_get code (i + 1)) 1.0;
      fire pb (Array.unsafe_get code (i + 4))
    end
    else begin
      Array.unsafe_set regs (Array.unsafe_get code (i + 1)) 0.0;
      fire pb (Array.unsafe_get code (i + 5))
    end;
    go vm regs pb code (i + 6)
  | 77 (* setp.eq *) ->
    if
      Array.unsafe_get regs (Array.unsafe_get code (i + 2))
      = Array.unsafe_get regs (Array.unsafe_get code (i + 3))
    then begin
      Array.unsafe_set regs (Array.unsafe_get code (i + 1)) 1.0;
      fire pb (Array.unsafe_get code (i + 4))
    end
    else begin
      Array.unsafe_set regs (Array.unsafe_get code (i + 1)) 0.0;
      fire pb (Array.unsafe_get code (i + 5))
    end;
    go vm regs pb code (i + 6)
  | 78 (* setp.ne *) ->
    if
      Array.unsafe_get regs (Array.unsafe_get code (i + 2))
      <> Array.unsafe_get regs (Array.unsafe_get code (i + 3))
    then begin
      Array.unsafe_set regs (Array.unsafe_get code (i + 1)) 1.0;
      fire pb (Array.unsafe_get code (i + 4))
    end
    else begin
      Array.unsafe_set regs (Array.unsafe_get code (i + 1)) 0.0;
      fire pb (Array.unsafe_get code (i + 5))
    end;
    go vm regs pb code (i + 6)
  | 79 (* setp.nz *) ->
    if Array.unsafe_get regs (Array.unsafe_get code (i + 2)) <> 0.0 then begin
      Array.unsafe_set regs (Array.unsafe_get code (i + 1)) 1.0;
      fire pb (Array.unsafe_get code (i + 3))
    end
    else begin
      Array.unsafe_set regs (Array.unsafe_get code (i + 1)) 0.0;
      fire pb (Array.unsafe_get code (i + 4))
    end;
    go vm regs pb code (i + 5)
  | _ -> assert false

let exec vm code = go vm vm.regs vm.probes code 0

(* ------------------------------------------------------------------ *)
(* Public interface                                                     *)
(* ------------------------------------------------------------------ *)

let program vm = vm.lin.Ir_linearize.l_prog

let reset vm =
  Array.fill vm.regs 0 (Array.length vm.regs) 0.0;
  Array.blit vm.lin.Ir_linearize.l_consts 0 vm.regs vm.lin.Ir_linearize.l_const_base
    (Array.length vm.lin.Ir_linearize.l_consts);
  let br = vm.branches in
  let n_sites = Bytes.length br.b_reached in
  if n_sites > 0 then begin
    Bytes.fill br.b_reached 0 n_sites '\000';
    Array.fill br.b_min_dt 0 n_sites Float.infinity;
    Array.fill br.b_min_df 0 n_sites Float.infinity;
    Array.blit vm.watch 0 vm.regs vm.lin.Ir_linearize.l_prog.Ir.n_vars n_sites
  end;
  exec vm vm.lin.Ir_linearize.l_init

(* the mask and the live watch registers both: a later [reset] reloads
   it, and the next [If] visit already obeys it *)
let set_watch vm f =
  let base = vm.lin.Ir_linearize.l_prog.Ir.n_vars in
  for ix = 0 to Array.length vm.watch - 1 do
    let w = if f ix then 1.0 else 0.0 in
    vm.watch.(ix) <- w;
    vm.regs.(base + ix) <- w
  done

let step vm = exec vm vm.lin.Ir_linearize.l_step

let set_input vm i v =
  let var = (program vm).Ir.inputs.(i) in
  vm.regs.(var.Ir.vid) <- Value.to_float (Value.cast var.Ir.vty v)

let load_input vm i (ty : Dtype.t) data off =
  Value.decode_into ty data off vm.regs (program vm).Ir.inputs.(i).Ir.vid

let of_float_exact (ty : Dtype.t) f =
  match ty with
  | Dtype.Bool -> Value.of_bool (f <> 0.0)
  | ty when Dtype.is_integer ty -> Value.of_int ty (int_of_float f)
  | ty -> Value.of_float ty f

let get_output vm i =
  let var = (program vm).Ir.outputs.(i) in
  of_float_exact var.Ir.vty vm.regs.(var.Ir.vid)

let get_var vm (v : Ir.var) = of_float_exact v.Ir.vty vm.regs.(v.Ir.vid)

let read_raw vm vid = vm.regs.(vid)

(* Snapshots are blits, never per-element float reads and writes, so
   NaN payloads and -0.0 survive a round trip bit for bit. *)
type state = {
  s_regs : float array;
  s_reached : Bytes.t;
  s_min_dt : float array;
  s_min_df : float array;
}

let fresh_state vm =
  let n_sites = Bytes.length vm.branches.b_reached in
  {
    s_regs = Array.make (Array.length vm.regs) 0.0;
    s_reached = Bytes.make n_sites '\000';
    s_min_dt = Array.make n_sites Float.infinity;
    s_min_df = Array.make n_sites Float.infinity;
  }

let check_state vm st =
  if Array.length st.s_regs <> Array.length vm.regs
     || Bytes.length st.s_reached <> Bytes.length vm.branches.b_reached
  then invalid_arg "Ir_vm: state was made for different code"

let blit_floats src dst = Array.blit src 0 dst 0 (Array.length src)

let save_state vm st =
  check_state vm st;
  let br = vm.branches in
  blit_floats vm.regs st.s_regs;
  Bytes.blit br.b_reached 0 st.s_reached 0 (Bytes.length br.b_reached);
  blit_floats br.b_min_dt st.s_min_dt;
  blit_floats br.b_min_df st.s_min_df

let restore_state vm st =
  check_state vm st;
  let br = vm.branches in
  blit_floats st.s_regs vm.regs;
  Bytes.blit st.s_reached 0 br.b_reached 0 (Bytes.length br.b_reached);
  blit_floats st.s_min_dt br.b_min_dt;
  blit_floats st.s_min_df br.b_min_df

let carried vm = code_carried vm.code

let code_linearized code = code.c_lin

let check_carried c (buf : float array) at =
  if at < 0 || at > Array.length buf - Array.length c then
    invalid_arg "Ir_vm: carried registers out of the buffer's bounds"

(* element-wise float moves through an unboxed float array: no
   arithmetic, so NaN payloads and -0.0 survive *)
let save_carried vm (buf : float array) ~at =
  let regs = vm.regs and c = carried vm in
  check_carried c buf at;
  for k = 0 to Array.length c - 1 do
    Array.unsafe_set buf (at + k) (Array.unsafe_get regs (Array.unsafe_get c k))
  done

let restore_carried vm (buf : float array) ~at =
  let regs = vm.regs and c = carried vm in
  check_carried c buf at;
  for k = 0 to Array.length c - 1 do
    Array.unsafe_set regs (Array.unsafe_get c k) (Array.unsafe_get buf (at + k))
  done

(* float equality bit for bit, without leaving registers: [=] decides
   every pair but zeros, where the sign of [1 / x] tells -0.0 from
   +0.0, and NaNs, equal only with the same bits *)
let[@inline] same_bits a b =
  if a = b then a <> 0.0 || 1.0 /. a = 1.0 /. b
  else a <> a && b <> b && Int64.bits_of_float a = Int64.bits_of_float b

let carried_equal vm (buf : float array) ~at =
  let regs = vm.regs and c = carried vm in
  check_carried c buf at;
  let n = Array.length c in
  let k = ref 0 in
  while
    !k < n
    && same_bits (Array.unsafe_get regs (Array.unsafe_get c !k)) (Array.unsafe_get buf (at + !k))
  do
    incr k
  done;
  !k = n

let probes vm = vm.probes

let set_probes vm p = vm.probes <- p

let fresh_probes vm = make_probes (Bytes.length vm.probes.p_fired)

let probe_fired vm id = Bytes.get vm.probes.p_fired id <> '\000'

let branches vm = vm.branches

let code_size vm = Ir_linearize.code_size vm.lin

(* Opt-in profile mode: replays the VM's own (possibly optimized)
   bytecode on Ir_opt's reference interpreter, which dispatches the
   same opcodes with the same arm formulas but counts as it goes. The
   fuzzing dispatch loop above stays byte-for-byte identical whether
   or not anyone profiles. *)
let profile vm rows = Ir_opt.profile_bytecode vm.lin rows

let linearized vm = vm.lin
