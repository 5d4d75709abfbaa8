open Cftcg_ir

type chain = (int * bool) list

let probe_chains (p : Ir.program) =
  let chains = Array.make p.Ir.n_probes [] in
  let counter = ref 0 in
  let rec go prefix stmts =
    List.iter
      (fun (s : Ir.stmt) ->
        match s with
        | Ir.Assign _ | Ir.Record_cond _ | Ir.Record_decision _ | Ir.Comment _ -> ()
        | Ir.Probe id -> if chains.(id) = [] then chains.(id) <- List.rev prefix
        | Ir.If { then_; else_; _ } ->
          let if_ix = !counter in
          incr counter;
          go ((if_ix, true) :: prefix) then_;
          go ((if_ix, false) :: prefix) else_)
      stmts
  in
  go [] p.Ir.init;
  go [] p.Ir.step;
  chains
