(* The jobs the four workloads are made of.  A job makes its public
   calls into the library (timed by the caller) and returns a check,
   run untimed, that reduces the outputs to a digest, the invariants
   they break, and the work facts the per-layer metrics divide by. *)

open Avp_hdl
open Avp_fsm
open Avp_enum
open Avp_tour
module L = Layers
module Replay = Avp_vectors.Replay
module Campaign = Avp_mutate.Campaign
module Loop = Avp_fuzz.Loop
module Compare = Avp_fuzz.Compare
module Control_model = Avp_pp.Control_model

(* Fixed, never [AVP_DOMAINS] or [default_domains ()]: the host's
   core count is checked against it before a run. *)
let domains = 2

type output = {
  summary : string;  (** readable and free of timings *)
  digest : string;  (** MD5 of the summary and the full outputs *)
  problems : string list;  (** violated seed-independent invariants *)
  facts : (string * int) list;  (** work done, summed over a round *)
}

type check = unit -> output

let add_ints b a =
  Array.iter (fun x -> Buffer.add_string b (string_of_int x); Buffer.add_char b ',') a;
  Buffer.add_char b ';'

let graph_text (g : State_graph.t) =
  let b = Buffer.create 65536 in
  Array.iter (add_ints b) g.states;
  Array.iter
    (fun row ->
      Array.iter (fun (d, c) -> Printf.bprintf b "%d/%d," d c) row;
      Buffer.add_char b ';')
    g.adj;
  Buffer.contents b

let tour_text (t : Tour_gen.t) =
  let b = Buffer.create 65536 in
  Array.iter
    (fun trace ->
      Array.iter
        (fun (s : Tour_gen.step) ->
          Printf.bprintf b "%d>%d/%d%c," s.src s.dst s.choice
            (if s.fresh then '+' else '-'))
        trace;
      Buffer.add_char b ';')
    t.traces;
  Buffer.contents b

let graph_summary (g : State_graph.t) =
  Printf.sprintf "states %d edges %d" (State_graph.num_states g)
    (State_graph.num_edges g)

let tour_summary (t : Tour_gen.t) =
  let s = t.stats in
  Printf.sprintf "traces %d traversals %d instructions %d longest %d/%d limited %d"
    s.num_traces s.edge_traversals s.instructions s.longest_trace_edges
    s.longest_trace_instructions s.traces_hitting_limit

let tour_problems graph tours =
  (if Tour_gen.is_valid graph tours then [] else [ "tour is not valid" ])
  @ if Tour_gen.covers_all_edges graph tours then [] else [ "tour misses an edge" ]

let enum_facts (g : State_graph.t) (t : Tour_gen.t) =
  [
    ("enum.states", State_graph.num_states g);
    ("enum.edges", State_graph.num_edges g);
    ("enum.domains_used", g.stats.domains);
    ("tour.traversals", t.stats.edge_traversals);
  ]

let output ~summary ~texts ~problems ~facts =
  let digest = Digest.to_hex (Digest.string (String.concat "\n" (summary :: texts))) in
  { summary; digest; problems; facts }

(* Elaborate, translate and enumerate: the front of every HDL job. *)
let front design =
  let elab = L.call "hdl" "elaborate" (fun () -> Elab.elaborate design) in
  let tr = L.call "fsm" "translate" (fun () -> Translate.translate elab) in
  let tr = { tr with Translate.model = L.count_calls tr.Translate.model } in
  let graph =
    L.call "enum" "enumerate" (fun () -> State_graph.enumerate ~domains tr.Translate.model)
  in
  (tr, graph)

let tour graph = L.call "tour" "generate" (fun () -> Tour_gen.generate graph)

let design_loop_output graph tours verdict =
  let replay, cycles, bad =
    match verdict with
    | Ok s -> (Printf.sprintf "replay ok %d/%d" s.Replay.traces s.cycles, s.cycles, [])
    | Error m ->
      let msg = Format.asprintf "replay mismatch %a" Replay.pp_mismatch m in
      (msg, 0, [ msg ])
  in
  output
    ~summary:(String.concat "; " [ graph_summary graph; tour_summary tours; replay ])
    ~texts:[ graph_text graph; tour_text tours ]
    ~problems:(tour_problems graph tours @ bad)
    ~facts:(("vectors.cycles", cycles) :: enum_facts graph tours)

(* design-loop: the paper's flow on one design revision. *)
let design_loop design () : check =
  let tr, graph = front design in
  let tours = tour graph in
  let vectors = L.call "vectors" "realize" (fun () -> Replay.vectors tr tours) in
  let verdict =
    L.call "vectors" "replay" (fun () -> Replay.check ~domains ~vectors tr graph tours)
  in
  fun () -> design_loop_output graph tours verdict

(* mutate: a sliced kill campaign over all mutants of one revision. *)
let mutate design () : check =
  let tr, graph = front design in
  let tours = tour graph in
  let report =
    L.call "mutate" "campaign" (fun () ->
        Campaign.run ~engine:`Sliced ~domains ~design ~tr ~graph ~tours ())
  in
  fun () ->
    let r = report in
    output
      ~summary:
        (String.concat "; "
           [
             graph_summary graph;
             tour_summary tours;
             Printf.sprintf "mutants %d candidates %d tour %d random %d" r.Campaign.total
               r.candidates r.tour_killed r.random_killed;
           ])
      ~texts:[ graph_text graph; tour_text tours; Campaign.to_json r ]
      ~problems:(tour_problems graph tours)
      ~facts:(enum_facts graph tours)

(* fuzz-compare: [avp fuzz] on one design — the fuzz loop, then the
   tours-vs-random-vs-fuzz kill comparison. *)
let fuzz_compare ~seed design () : check =
  let tr, graph = front design in
  let config =
    { Loop.default_config with Loop.seed; budget = 512; engine = `Sliced; domains }
  in
  let result = L.call "fuzz" "loop" (fun () -> Loop.run ~config tr graph) in
  let tours = tour graph in
  let cmp =
    L.call "fuzz" "compare" (fun () ->
        Compare.run ~seed ~domains ~design ~tr ~graph ~tours ~fuzz:result ())
  in
  fun () ->
    let get name =
      match Compare.find_method cmp name with
      | Some m -> (m.Compare.m_arcs, m.m_killed)
      | None -> (-1, -1)
    in
    let fuzz_arcs, fuzz_kills = get "fuzz" and rnd_arcs, rnd_kills = get "random" in
    let problems =
      (if fuzz_arcs >= rnd_arcs then []
       else [ Printf.sprintf "fuzz reached %d arcs, random %d" fuzz_arcs rnd_arcs ])
      @ (if fuzz_kills >= rnd_kills then []
         else [ Printf.sprintf "fuzz killed %d, random %d" fuzz_kills rnd_kills ])
      @ tour_problems graph tours
    in
    let cov = Avp_obs.Coverage.summary result.Loop.coverage in
    let json =
      Avp_obs.Json.to_string
        (Avp_obs.Json.Obj
           [
             ("executed", Avp_obs.Json.Int result.Loop.executed);
             ("kept", Avp_obs.Json.Int (Array.length result.Loop.kept));
             ("coverage", Avp_obs.Coverage.to_json cov);
             ("compare", Compare.json_value cmp);
           ])
    in
    output
      ~summary:
        (Printf.sprintf "%s; fuzz arcs %d kills %d; random arcs %d kills %d"
           (graph_summary graph) fuzz_arcs fuzz_kills rnd_arcs rnd_kills)
      ~texts:[ graph_text graph; tour_text tours; json ]
      ~problems
      ~facts:
        (("fuzz.executed", result.Loop.executed)
        :: ("fuzz.kept", Array.length result.Loop.kept)
        :: enum_facts graph tours)

(* model-tour: the abstract model — parallel BFS over pure transition
   functions, then a weighted tour at the paper's instruction limit. *)
let model_tour_cfg = { Control_model.medium with fill_counters = 2 }

let model_tour model () : check =
  let model = L.count_calls model in
  let graph = L.call "enum" "enumerate" (fun () -> State_graph.enumerate ~domains model) in
  let weigh ~src ~choice =
    Control_model.instructions_of_edge model_tour_cfg ~src:graph.State_graph.states.(src)
      ~choice:(Model.choice_of_index model choice)
  in
  let tours =
    L.call "tour" "generate" (fun () ->
        Tour_gen.generate ~instr_limit:10_000 ~instructions_of_edge:weigh graph)
  in
  fun () ->
    output
      ~summary:(graph_summary graph ^ "; " ^ tour_summary tours)
      ~texts:[ graph_text graph; tour_text tours ]
      ~problems:(tour_problems graph tours)
      ~facts:(enum_facts graph tours)
