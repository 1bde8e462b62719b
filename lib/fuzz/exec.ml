open Avp_fsm
module Obs = Avp_obs.Obs

(* Candidate evaluation: plan (model walk), realize (condition map),
   execute (on one of [Replay]'s two drivers), observe (per-cycle
   state-id projection).

   Planning walks the translated model's [next] from reset — the
   model may step a shared reference simulator, so planning is always
   sequential on the calling domain (same constraint as
   [Replay.vectors]).  Execution replays the realized force/release
   vectors on fresh engine instances and reads the annotated state
   nets back each cycle, projecting the valuation onto the enumerated
   graph's state ids; that observation — not the plan — is what the
   fuzzing loop feeds to coverage, so the feedback signal is the
   executed hardware's behaviour, exactly like the RTL arc-coverage
   harness.  On the pristine design observation and plan provably
   agree (the replay theorems of PRs 2/4); the loop checks it. *)

type planned = {
  choices : Corpus.entry;
  trace : Avp_tour.Tour_gen.trace;
}

let plan (model : Model.t) (graph : Avp_enum.State_graph.t)
    (entry : Corpus.entry) =
  let cur = ref (Avp_enum.State_graph.reset_id graph) in
  let trace =
    Array.map
      (fun choice ->
        let src = !cur in
        let nxt =
          model.Model.next
            graph.Avp_enum.State_graph.states.(src)
            (Model.choice_of_index model choice)
        in
        let dst =
          match Avp_enum.State_graph.find_state graph nxt with
          | Some id -> id
          | None ->
            (* Enumeration is total over reachable states. *)
            assert false
        in
        cur := dst;
        { Avp_tour.Tour_gen.src; dst; choice; fresh = false })
      entry
  in
  { choices = entry; trace }

(* The state ids the plan predicts: index 0 is the post-reset state,
   index i+1 the state after cycle i. *)
let planned_ids p =
  let n = Array.length p.trace in
  Array.init (n + 1) (fun i ->
      if i = 0 then
        if n = 0 then 0 else p.trace.(0).Avp_tour.Tour_gen.src
      else p.trace.(i - 1).Avp_tour.Tour_gen.dst)

let vectors_of (tr : Translate.result) (planned : planned array) =
  let map = Avp_vectors.Condition_map.of_translation tr in
  Array.map
    (fun p ->
      Avp_vectors.Condition_map.vectors_of_trace map tr.Translate.model
        p.trace)
    planned

(* Read the state nets (by position, through [read]) into [buf] and
   project the valuation onto the enumerated graph's state ids: [-1]
   when a net carries x/z bits or the valuation is not a state. *)
let project graph buf read =
  match
    for vi = 0 to Array.length buf - 1 do
      buf.(vi) <- Translate.value_of_bv (read vi)
    done
  with
  | () ->
    Option.value ~default:(-1) (Avp_enum.State_graph.find_state graph buf)
  | exception Translate.Unsupported _ -> -1

let exec_span t0 args =
  if Obs.enabled () then
    Obs.complete ~cat:"fuzz" "fuzz.exec"
      ~dur_s:(Obs.Clock.now_s () -. t0)
      ~args:(args @ [ ("flow_in", Obs.Int 0) ])

let state_ids (tr : Translate.result) =
  Array.map
    (fun nm -> (Avp_hdl.Elab.net tr.Translate.elab nm).Avp_hdl.Elab.id)
    (Avp_vectors.Replay.state_nets tr)

let run_scalar ~domains ?progress (tr : Translate.result) graph results
    vectors =
  let ids = state_ids tr in
  let tpl = Avp_hdl.Sim.template tr.Translate.elab in
  Avp_vectors.Replay.drive ~domains tpl tr vectors (fun i play ->
      let t0 = Obs.Clock.now_s () in
      let buf = Array.make (Array.length ids) 0 in
      play (fun sim c ->
          results.(i).(c + 1) <-
            project graph buf (fun vi -> Avp_hdl.Sim.get_id sim ids.(vi)));
      exec_span t0
        [
          ("candidate", Obs.Int i);
          ("cycles", Obs.Int (Array.length vectors.(i)));
        ];
      Option.iter Avp_obs.Progress.tick progress)

let run_sliced ~domains ?progress (tr : Translate.result) graph results
    vectors =
  let ids = state_ids tr in
  Avp_vectors.Replay.drive_lanes ~lanes:Avp_logic.Bv_sliced.lanes_limit
    ~domains tr.Translate.elab tr vectors (fun ~first ~k sim ->
      let t0 = Obs.Clock.now_s () in
      let buf = Array.make (Array.length ids) 0 in
      let observe c =
        for j = 0 to k - 1 do
          let row = results.(first + j) in
          if c + 1 < Array.length row then
            row.(c + 1) <-
              project graph buf (fun vi ->
                  Avp_hdl.Sliced.get_lane sim ~lane:j ids.(vi))
        done
      in
      let finish () =
        let cycles = ref 0 in
        for j = 0 to k - 1 do
          cycles := max !cycles (Array.length vectors.(first + j));
          Option.iter Avp_obs.Progress.tick progress
        done;
        exec_span t0
          [
            ("candidate", Obs.Int first);
            ("lanes", Obs.Int k);
            ("cycles", Obs.Int !cycles);
          ]
      in
      (observe, finish))

let run ?(engine : [ `Scalar | `Sliced ] = `Sliced) ?(domains = 1) ?progress
    (tr : Translate.result) (graph : Avp_enum.State_graph.t)
    (planned : planned array) =
  let vectors = vectors_of tr planned in
  let results =
    Array.map (fun v -> Array.make (Array.length v + 1) (-1)) vectors
  in
  (match engine with
   | `Scalar -> run_scalar ~domains ?progress tr graph results vectors
   | `Sliced -> (
     match run_sliced ~domains ?progress tr graph results vectors with
     | Some () -> ()
     | None -> run_scalar ~domains ?progress tr graph results vectors));
  results
