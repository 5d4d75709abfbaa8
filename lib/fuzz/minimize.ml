open Cftcg_ir

type stats = {
  kept : int;
  dropped : int;
  probes_covered : int;
}

let suite ?(max_tuples = 4096) (prog : Ir.program) cases =
  let layout = Layout.of_program prog in
  let n_probes = max prog.Ir.n_probes 1 in
  (* Unoptimized: a fuzz suite replays in well under a millisecond,
     less than the optimizer alone takes (0.2–1.7 ms, DESIGN §3 "Code
     vs instance") *)
  let vm = Ir_vm.of_code (Ir_vm.prepare ~optimize:false prog) in
  let curr = Ir_vm.probes vm in
  let kept_cov = Bytes.make n_probes '\000' in
  let run data =
    Ir_vm.clear_probes curr;
    Layout.run_case layout vm ~max_tuples data
  in
  let adds_coverage () =
    let fresh = ref false in
    Ir_vm.iter_fired
      (fun i ->
        if Bytes.unsafe_get kept_cov i = '\000' then begin
          Bytes.unsafe_set kept_cov i '\001';
          fresh := true
        end)
      curr;
    !fresh
  in
  let by_length = List.stable_sort (fun a b -> compare (Bytes.length a) (Bytes.length b)) cases in
  let kept =
    List.filter
      (fun data ->
        run data;
        adds_coverage ())
      by_length
  in
  let covered = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr covered) kept_cov;
  ( kept,
    { kept = List.length kept; dropped = List.length cases - List.length kept; probes_covered = !covered }
  )
