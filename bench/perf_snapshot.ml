(* Machine-readable enumeration performance snapshot.

     dune exec bench/perf_snapshot.exe [-- OUT.json]

   Enumerates the default control model on 1, 2, 4 and the
   recommended number of domains, checks the results are identical,
   and writes BENCH_enum.json with throughput and speedup numbers and,
   per run, the domains the enumeration actually used.  It also
   enumerates the translated pp_control design and appends its state,
   edge and simulator-step counts to the bench history.  AVP_LARGE=1
   measures the paper-scale large preset instead of the default.
   AVP_BENCH_TRACE=FILE additionally records a telemetry trace of the
   measured runs (per-level spans, counters). *)

open Avp_pp
open Avp_enum

let with_bench_trace f =
  match Sys.getenv_opt "AVP_BENCH_TRACE" with
  | None -> f ()
  | Some path ->
    let t = Avp_obs.Obs.create () in
    let r = Avp_obs.Obs.with_tracer t f in
    Avp_obs.Obs.write_trace t path;
    Printf.printf "wrote trace %s\n" path;
    r

type run = {
  domains : int;
  domains_used : int;  (* stats.domains: > 1 when some level was sharded *)
  elapsed_s : float;
  states_per_s : float;
  edges_per_s : float;
  heap_mb : float;
  speedup : float;  (* vs the 1-domain run *)
}

let enumerate_with model ~domains =
  let g = State_graph.enumerate ~domains model in
  (g, g.State_graph.stats)

(* The translated pp_control design, whose enumeration steps the HDL
   simulator: one scalar step and 17 bit-sliced 62-lane passes per
   state.  Its simulator step count is exact, so a fallback to one
   step per choice fails the history gate. *)
let translated () =
  let open Avp_fsm in
  let tr =
    Translate.translate
      (Avp_hdl.Elab.elaborate (Avp_hdl.Parser.parse Control_hdl.source))
  in
  let t = Avp_obs.Obs.create () in
  let g =
    Avp_obs.Obs.with_tracer t (fun () ->
        State_graph.enumerate ~domains:1 tr.Translate.model)
  in
  let steps =
    Option.value ~default:0 (List.assoc_opt "sim.steps" (Avp_obs.Obs.counters t))
  in
  (g.State_graph.stats, steps)

let () =
  let out =
    match Array.to_list Sys.argv with
    | [ _ ] -> "BENCH_enum.json"
    | [ _; path ] -> path
    | _ ->
      prerr_endline "usage: perf_snapshot.exe [OUT.json]";
      exit 1
  in
  let large = Sys.getenv_opt "AVP_LARGE" = Some "1" in
  let preset = if large then "large" else "default" in
  let cfg = if large then Control_model.large else Control_model.default in
  let model = Control_model.model cfg in
  let cores = Domain.recommended_domain_count () in
  (* Always measure 1/2/4 domains (plus the recommended count): on a
     single-core host the >1 runs exercise the parallel path and
     record its honest overhead next to the "cores" field. *)
  let counts = List.sort_uniq Int.compare [ 1; 2; 4; cores ] in
  with_bench_trace @@ fun () ->
  let seq_graph, seq = enumerate_with model ~domains:1 in
  let runs =
    List.map
      (fun domains ->
        let g, s =
          if domains = 1 then (seq_graph, seq)
          else enumerate_with model ~domains
        in
        if
          State_graph.num_states g <> State_graph.num_states seq_graph
          || State_graph.num_edges g <> State_graph.num_edges seq_graph
        then begin
          Printf.eprintf
            "FATAL: %d-domain enumeration diverged from sequential\n" domains;
          exit 1
        end;
        {
          domains;
          domains_used = s.State_graph.domains;
          elapsed_s = s.State_graph.elapsed_s;
          states_per_s =
            float_of_int s.State_graph.num_states /. s.State_graph.elapsed_s;
          edges_per_s =
            float_of_int s.State_graph.num_edges /. s.State_graph.elapsed_s;
          heap_mb = s.State_graph.heap_mb;
          speedup = seq.State_graph.elapsed_s /. s.State_graph.elapsed_s;
        })
      counts
  in
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"preset\": %S,\n" preset;
  p "  \"provenance\": %s,\n" (History.provenance_string ());
  p "  \"cores\": %d,\n" cores;
  p "  \"num_states\": %d,\n" seq.State_graph.num_states;
  p "  \"num_edges\": %d,\n" seq.State_graph.num_edges;
  p "  \"state_bits\": %d,\n" seq.State_graph.state_bits;
  p "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"domains\": %d, \"domains_used\": %d, \"elapsed_s\": %.4f, \
         \"states_per_s\": %.1f, \"edges_per_s\": %.1f, \"heap_mb\": %.1f, \
         \"speedup\": %.3f}%s\n"
        r.domains r.domains_used r.elapsed_s r.states_per_s r.edges_per_s
        r.heap_mb r.speedup
        (if i = List.length runs - 1 then "" else ","))
    runs;
  p "  ]\n";
  p "}\n";
  close_out oc;
  (* Deterministic graph shape exactly, throughput/speedups within the
     regress_check tolerance band. *)
  History.append ~bench:"enum" ~preset
    ([
       ("num_states", float_of_int seq.State_graph.num_states);
       ("num_edges", float_of_int seq.State_graph.num_edges);
     ]
    @ List.concat_map
        (fun r ->
          let d = string_of_int r.domains in
          [
            (Printf.sprintf "states_per_s_j%s" d, r.states_per_s);
            (Printf.sprintf "speedup_j%s" d, r.speedup);
          ])
        runs);
  let tstats, tsteps = translated () in
  History.append ~bench:"enum" ~preset:"pp_translated"
    [
      ("num_states", float_of_int tstats.State_graph.num_states);
      ("num_edges", float_of_int tstats.State_graph.num_edges);
      ("sim_steps", float_of_int tsteps);
    ];
  Printf.printf "wrote %s (%s preset, %d cores):\n" out preset cores;
  List.iter
    (fun r ->
      Printf.printf
        "  domains=%d (used %d)  %.3fs  %.0f states/s  %.0f edges/s  \
         speedup %.2fx\n"
        r.domains r.domains_used r.elapsed_s r.states_per_s r.edges_per_s
        r.speedup)
    runs;
  Printf.printf "  pp_translated: %d states, %d edges, %d simulator steps, %.3fs\n"
    tstats.State_graph.num_states tstats.State_graph.num_edges tsteps
    tstats.State_graph.elapsed_s
