(* Tests of the benchmark itself: seeded inputs, the output check, and
   the traced spans' accounting. *)

open Avp_enum
module L = Layers

let reference = Inputs.load_reference "reference.json"

let keys ~seed ~salt ~strata ~cost ?first entries =
  List.map (List.map (fun (e : Inputs.entry) -> e.key))
    (Inputs.rounds ~seed ~salt ~strata ~cost ?first entries)

let loop_keys seed =
  keys ~seed ~salt:1 ~strata:4 ~cost:(fun e -> e.Inputs.states) ~first:"pristine" reference.pool

let test_seeded_inputs () =
  Alcotest.(check (list (list string))) "same seed, same inputs" (loop_keys 7) (loop_keys 7);
  Alcotest.(check bool) "another seed, other inputs" true (loop_keys 7 <> loop_keys 8);
  let all = List.concat (loop_keys 7) in
  Alcotest.(check int) "no design twice in a run" (List.length all)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check string) "the run starts on the unmodified design" "pristine"
    (List.hd (List.hd (loop_keys 8)));
  let fuzz seed = List.map (fun (f : Inputs.fuzz_seed) -> f.fuzz_seed) (Inputs.fuzz_rounds ~seed reference) in
  Alcotest.(check (list int)) "same seed, same fuzz seeds" (fuzz 7) (fuzz 7);
  Alcotest.(check bool) "another seed, other fuzz seeds" true (fuzz 7 <> fuzz 8)

let pristine_flow () =
  let tr = Avp_pp.Control_hdl.translate () in
  let graph = State_graph.enumerate ~domains:1 tr.Avp_fsm.Translate.model in
  let tours = Avp_tour.Tour_gen.generate graph in
  (graph, tours, Avp_vectors.Replay.check tr graph tours)

let test_digest () =
  let expect = Some (List.hd reference.pool).loop in
  let graph, tours, verdict = pristine_flow () in
  Alcotest.(check (list string)) "the flow matches the reference" []
    (Bench.judge ~expect (Jobs.design_loop_output graph tours verdict));
  (* One edge of the graph pointed at another state: the invariants
     may not notice, the digest must. *)
  let adj = Array.map Array.copy graph.adj in
  let dst, c = adj.(0).(0) in
  adj.(0).(0) <- ((dst + 1) mod Array.length adj, c);
  let tampered = Jobs.design_loop_output { graph with adj } tours verdict in
  Alcotest.(check bool) "a tampered graph fails" true (Bench.judge ~expect tampered <> [])

let test_spans_within_job () =
  let pristine = Avp_pp.Control_hdl.parse () in
  let designs = Inputs.designs pristine reference in
  let small =
    List.filter (fun (e : Inputs.entry) -> e.states < 130) reference.pool
    |> List.filteri (fun i _ -> i < 3)
  in
  let jobs =
    List.map
      (fun (e : Inputs.entry) ->
        { Bench.key = e.key; run = Jobs.design_loop (Hashtbl.find designs e.key); expect = Some e.loop })
      small
  in
  L.reset ~trace:true;
  let verdicts = Bench.run_round jobs in
  let spans = L.spans () in
  L.reset ~trace:false;
  List.iteri
    (fun i (v : Bench.verdict) ->
      Alcotest.(check (list string)) (v.v_key ^ " checks out") [] v.v_errors;
      let inside =
        List.fold_left (fun a (s : L.span) -> if s.job = i then a +. s.wall_s else a) 0. spans
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: spans %.6fs within job %.6fs" v.v_key inside v.v_wall)
        true
        (inside > 0. && inside <= v.v_wall))
    verdicts;
  Alcotest.(check bool) "transition calls were counted" true
    (List.exists (fun (s : L.span) -> s.next_calls > 0) spans)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "seeded inputs" `Quick test_seeded_inputs;
          Alcotest.test_case "digest catches a tampered output" `Quick test_digest;
          Alcotest.test_case "spans within job wall" `Quick test_spans_within_job;
        ] );
    ]
