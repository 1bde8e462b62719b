(* The benchmark program: one process, one round of one workload.

     main.exe run --workload W --seed N --round R [--trace] [--spans FILE]
     main.exe pool

   [run] prints one JSON object: the round's wall time, the set-up
   time, the peak RSS, every job's verdict, and with [--trace] the
   per-layer metrics and the counts of the exact-count self-check.
   [pool] remakes reference.json from the current program; run it only
   in a change that means to change the program's outputs. *)

module J = Avp_obs.Json
module L = Layers
open Bench

let reference_file = "perfbench/reference.json"

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

let verdict_json v =
  J.Obj
    ([ ("key", J.Str v.v_key); ("wall_s", J.Float v.v_wall); ("ok", J.Bool (v.v_errors = [])) ]
    @ (match v.v_out with
      | Some o -> [ ("digest", J.Str o.Jobs.digest); ("summary", J.Str o.summary) ]
      | None -> [])
    @
    if v.v_errors = [] then []
    else [ ("errors", J.List (List.map (fun e -> J.Str e) v.v_errors)) ])

let run ~workload ~seed ~round ~trace ~spans_file =
  L.reset ~trace;
  let p = plan ~workload ~seed ~round (Inputs.load_reference reference_file) in
  if p.jobs = [] then failwith (Printf.sprintf "round %d: the plan holds %d" round p.available);
  let minor0, major0 = gc_counts () in
  let verdicts = run_round p.jobs in
  let minor1, major1 = gc_counts () in
  let spans = L.spans () in
  let facts = facts verdicts in
  let int_obj l = J.Obj (List.map (fun (k, v) -> (k, J.Int v)) l) in
  let traced =
    if not trace then []
    else
      [
        ( "layers",
          J.Obj
            (List.map
               (fun (k, v) -> (k, J.Float v))
               (layer_metrics spans facts verdicts ~gc_minor:(minor1 - minor0)
                  ~gc_major:(major1 - major0))) );
        ("exact", int_obj (exact_counts spans));
      ]
  in
  Option.iter
    (fun file ->
      Out_channel.with_open_text file (fun oc ->
          List.iter (fun s -> output_string oc (J.to_string (L.span_json s) ^ "\n")) spans))
    spans_file;
  print_endline
    (J.to_string
       (J.Obj
          ([
             ("workload", J.Str workload);
             ("seed", J.Int seed);
             ("round", J.Int round);
             ("rounds_available", J.Int p.available);
             ("traced", J.Bool trace);
             ("domains", J.Int Jobs.domains);
             ( "enum.domains_used",
               J.Int (Option.value ~default:0 (List.assoc_opt "enum.domains_used" facts)) );
             ("ocaml", J.Str Sys.ocaml_version);
             ("wall_s", J.Float (List.fold_left (fun a v -> a +. v.v_wall) 0. verdicts));
             ("setup_s", J.Float p.setup_s);
             ("setup_samples_s", J.List (List.map (fun x -> J.Float x) p.setup_samples));
             ("peak_rss_mb", J.Float (peak_rss_mb ()));
             ("attempted", J.Int (List.length verdicts));
             ("failed", J.Int (List.length (List.filter (fun v -> v.v_errors <> []) verdicts)));
             ("facts", int_obj facts);
             ("jobs", J.List (List.map verdict_json verdicts));
           ]
          @ traced)))

let fuzz_seeds = 32

(* Every pool design's size, mutate cost and digests; the fuzz seeds'
   costs and digests; the model's digest.  Costs are simulator steps,
   counted traced.  A design on which the flow raises is left out. *)
let pool () =
  let pristine = Avp_hdl.Parser.parse Avp_pp.Control_hdl.source in
  let checked job =
    match job () () with
    | (o : Jobs.output) when o.problems = [] -> o
    | o -> failwith (String.concat "; " o.problems)
  in
  let counted job =
    L.reset ~trace:true;
    let o = checked job in
    let steps = List.fold_left (fun a s -> a + L.counter s "sim.steps") 0 (L.spans ()) in
    L.reset ~trace:false;
    (o, steps)
  in
  let entry (key, descr, design) =
    match
      let loop = checked (Jobs.design_loop design) in
      let mutate, cost = counted (Jobs.mutate design) in
      Printf.eprintf "%s: %s; mutate cost %d\n%!" key loop.summary cost;
      let states = List.assoc "enum.states" loop.facts in
      { Inputs.key; descr; states; cost; loop = loop.digest; mutate = mutate.digest }
    with
    | e -> Some e
    | exception e ->
      L.reset ~trace:false;
      Printf.eprintf "%s: left out: %s\n%!" key (Printexc.to_string e);
      None
  in
  let pool =
    List.filter_map entry
      (("pristine", "", pristine)
      :: List.map
           (fun (m : Avp_mutate.Gen.mutant) ->
             ("m" ^ string_of_int m.id, Inputs.descr_string m, m.design))
           (Avp_mutate.Gen.all pristine))
  in
  let fuzz =
    List.init fuzz_seeds (fun s ->
        let o, fuzz_cost = counted (Jobs.fuzz_compare ~seed:s pristine) in
        Printf.eprintf "fuzz seed %d: %s; cost %d\n%!" s o.summary fuzz_cost;
        { Inputs.fuzz_seed = s; fuzz_cost; digest = o.digest })
  in
  let model_tour =
    (checked (Jobs.model_tour (Avp_pp.Control_model.model Jobs.model_tour_cfg))).digest
  in
  Out_channel.with_open_text reference_file (fun oc ->
      output_string oc (J.to_string_pretty (Inputs.reference_json { pool; model_tour; fuzz })));
  Printf.eprintf "wrote %s: %d designs\n%!" reference_file (List.length pool)

let () =
  let workload = ref "" and seed = ref 1 and round = ref 0 in
  let trace = ref false and spans_file = ref None and mode = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W design-loop | model-tour | mutate | fuzz-compare");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--round", Arg.Set_int round, "R which round of the seeded plan to run");
      ("--trace", Arg.Set trace, " record per-layer spans and counts");
      ("--spans", Arg.String (fun f -> spans_file := Some f), "FILE write the spans as JSONL");
    ]
  in
  let usage = "main.exe (run|pool) [options]; run from the root of the source tree" in
  Arg.parse specs (fun m -> mode := m) usage;
  match !mode with
  | "run" -> run ~workload:!workload ~seed:!seed ~round:!round ~trace:!trace ~spans_file:!spans_file
  | "pool" -> pool ()
  | _ ->
    prerr_endline usage;
    exit 2
