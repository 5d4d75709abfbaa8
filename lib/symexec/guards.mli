(** Static guard-chain analysis of instrumented programs.

    For the constraint-driven generator ({!Symexec}) each coverage
    probe is a {e target}: the chain of [If] branches that dominate
    it. Chains are expressed over the same depth-first [If] numbering
    that every backend reports through [Hooks.on_branch] and that
    indexes {!Cftcg_ir.Ir_vm.branches} ([init] traversed before
    [step], then-arm before else-arm). *)

open Cftcg_ir

type chain = (int * bool) list
(** Root-to-leaf list of [(if_ix, needs_then_branch)]. An empty chain
    means the probe sits at top level (always executed). *)

val probe_chains : Ir.program -> chain array
(** [probe_chains p] indexed by probe id. A probe that never appears
    in the program body gets an empty chain. *)
