(** C source emission for generated model code.

    The paper's tool emits C fuzz code (model step function with
    branch instrumentation) plus a fuzz driver ([FuzzTestOneInput],
    Figure 3) and compiles them with Clang. Our execution path is
    {!Ir_vm}, but this emitter produces the equivalent C text so
    a user can inspect — or actually compile elsewhere — what the
    pipeline generated. Output is deterministic. *)

val emit_program : Ir.program -> string
(** Standalone C translation unit: instrumentation macros, state
    variables, [<name>_init()] and [<name>_step(...)]. *)

val emit_fuzz_driver : Ir.program -> string
(** The [FuzzTestOneInput] function in the exact shape of the
    paper's Figure 3: tuple length constant, the splitting loop,
    per-inport [memcpy]s, and the step call. *)

val emit_all : Ir.program -> string
(** {!emit_program} followed by {!emit_fuzz_driver}. *)

val emit_test_harness : Ir.program -> string
(** A [main()] that decodes a hex-encoded tuple stream from
    [argv[1]], runs the model one iteration per tuple, and prints
    every output as [%.17g] per step — the executable the C-backend
    differential test compiles with gcc and compares against
    {!Ir_eval}. Includes no-op definitions of the coverage
    interface. Append it to {!emit_program}'s output. *)
