(* Successor rows of translated models.  The model [Translate] builds
   answers an ascending scan of one state's choices from 62-lane
   bit-sliced passes; every answer must equal the scalar simulator's.
   The oracle queries a separate translation in descending choice
   order, which never fills a pass. *)

open Avp_hdl
open Avp_fsm
open Avp_enum
module Obs = Avp_obs.Obs

let translate design = Translate.translate (Elab.elaborate design)
let pristine = lazy (Parser.parse Avp_pp.Control_hdl.source)

exception Undefined of int array * int * string

(* The graph [State_graph.enumerate] must build: breadth-first in id
   order, successors resolved in ascending choice order, so the first
   undefined successor in scan order is where [Undefined] reports. *)
let oracle ?(all_conditions = false) (m : Model.t) =
  let n = Model.num_choices m in
  let ids = Hashtbl.create 64 and states = ref [] and count = ref 0 in
  let todo = Queue.create () in
  let intern s =
    match Hashtbl.find_opt ids s with
    | Some id -> id
    | None ->
      let id = !count in
      incr count;
      Hashtbl.add ids s id;
      states := s :: !states;
      Queue.add s todo;
      id
  in
  ignore (intern m.Model.reset);
  let adj = ref [] in
  while not (Queue.is_empty todo) do
    let s = Queue.pop todo in
    let succ = Array.make n (Ok [||]) in
    for ci = n - 1 downto 0 do
      succ.(ci) <-
        (match m.Model.next s (Model.choice_of_index m ci) with
         | v -> Ok v
         | exception Translate.Unsupported msg -> Error msg)
    done;
    let seen = Hashtbl.create 16 and row = ref [] in
    Array.iteri
      (fun ci r ->
        match r with
        | Error msg -> raise (Undefined (s, ci, msg))
        | Ok v ->
          let d = intern v in
          if all_conditions || not (Hashtbl.mem seen d) then begin
            Hashtbl.replace seen d ();
            row := (d, ci) :: !row
          end)
      succ;
    adj := Array.of_list (List.rev !row) :: !adj
  done;
  (Array.of_list (List.rev !states), Array.of_list (List.rev !adj))

let agrees ?all_conditions design =
  let g =
    State_graph.enumerate ?all_conditions ~domains:1
      (translate design).Translate.model
  in
  let states, adj = oracle ?all_conditions (translate design).Translate.model in
  g.State_graph.states = states && g.State_graph.adj = adj

let counters f =
  let t = Obs.create () in
  let r = Obs.with_tracer t f in
  let c name = Option.value ~default:0 (List.assoc_opt name (Obs.counters t)) in
  (r, c "sim.steps", c "sim.lanes")

let test_pristine () =
  let d = Lazy.force pristine in
  Alcotest.(check bool) "first-condition graph" true (agrees d);
  Alcotest.(check bool) "all-conditions graph" true
    (agrees ~all_conditions:true d)

(* One scalar first request and 17 passes per state: 121 * 18. *)
let test_step_count () =
  let tr = translate (Lazy.force pristine) in
  let g, steps, lanes =
    counters (fun () -> State_graph.enumerate ~domains:1 tr.Translate.model)
  in
  Alcotest.(check int) "states" 121 (State_graph.num_states g);
  Alcotest.(check int) "sim.steps" 2178 steps;
  Alcotest.(check int) "sim.lanes" (121 * 17 * 62) lanes

let test_mutants () =
  let translating =
    Avp_mutate.Gen.all (Lazy.force pristine)
    |> List.filter (fun (m : Avp_mutate.Gen.mutant) ->
           match translate m.design with
           | _ -> true
           | exception Translate.Unsupported _ -> false)
  in
  (* About 20M oracle steps: split over two domains, each translating
     its own designs. *)
  let mutants = Array.of_list translating in
  let differs = Array.make (Array.length mutants) false in
  Pool.iter ~domains:2 (Array.length mutants) (fun i ->
      differs.(i) <- not (agrees mutants.(i).Avp_mutate.Gen.design));
  let wrong =
    List.filteri (fun i _ -> differs.(i)) translating
    |> List.map (fun (m : Avp_mutate.Gen.mutant) -> m.id)
  in
  Alcotest.(check bool) "most mutants translate" true
    (List.length translating >= 150);
  Alcotest.(check (list int)) "mutants whose graph differs" [] wrong

(* Random-access calls between scan steps — on other states, and on
   the scanned state itself as tour planning does along a self-loop —
   break the scan but must still get the oracle's answers, whether
   served from a filled pass or by the scalar path. *)
let test_interleaved () =
  let d = Lazy.force pristine in
  let g = State_graph.enumerate ~domains:1 (translate d).Translate.model in
  let picks =
    List.map (fun i -> g.State_graph.states.(i)) [ 0; 1; 7; 40; 120 ]
    |> Array.of_list
  in
  let om = (translate d).Translate.model and m = (translate d).Translate.model in
  let n = Model.num_choices m in
  let rows =
    Array.map
      (fun s ->
        let row = Array.make n [||] in
        for ci = n - 1 downto 0 do
          row.(ci) <- om.Model.next s (Model.choice_of_index om ci)
        done;
        row)
      picks
  in
  let rng = Random.State.make [| 13 |] in
  let bad = ref 0 in
  let ask k ci =
    if m.Model.next picks.(k) (Model.choice_of_index m ci) <> rows.(k).(ci)
    then incr bad
  in
  (* Same state, but never at the previous index + 1: no pass. *)
  let (), steps, lanes =
    counters (fun () -> List.iter (ask 2) [ 5; 900; 5; 300; 17; 16 ])
  in
  Alcotest.(check (pair int int)) "random access: steps, lanes" (6, 0)
    (steps, lanes);
  let (), _, lanes =
    counters (fun () ->
        Array.iteri
          (fun k _ ->
            for ci = 0 to n - 1 do
              ask k ci;
              match Random.State.int rng 16 with
              | 0 -> ask k (Random.State.int rng n)
              | 1 ->
                ask (Random.State.int rng (Array.length picks))
                  (Random.State.int rng n)
              | _ -> ()
            done)
          picks)
  in
  Alcotest.(check int) "answers differing from the oracle" 0 !bad;
  Alcotest.(check bool) "passes were filled" true (lanes > 0)

(* Successor x for one choice of one state only: lane 100 of pass 1. *)
let xlane_src =
  {|
module xlane (clk, rst, a, s);
  input clk, rst;
  input [6:0] a;
  output [1:0] s;
  reg [1:0] s; // avp state
  // avp clock clk
  // avp reset rst
  // avp free a
  always @(posedge clk) begin
    if (rst) s <= 2'b00;
    else if (s == 2'b00) s <= {1'b0, a[0]};
    else if (s == 2'b01) s <= (a == 7'd100) ? 2'bx1 : 2'b10;
    else s <= 2'b00;
  end
endmodule
|}

let test_undefined_lane () =
  let d = Parser.parse xlane_src in
  let expected =
    match oracle (translate d).Translate.model with
    | _ -> Alcotest.fail "the oracle reached no undefined successor"
    | exception Undefined (s, ci, msg) -> (s, ci, msg)
  in
  let _, ci, _ = expected in
  Alcotest.(check int) "oracle's choice" 100 ci;
  let m = (translate d).Translate.model in
  let last = ref ([||], -1) in
  let watched =
    { m with
      Model.next_into =
        (fun s c dst ->
          last := (Array.copy s, Model.index_of_choice m c);
          m.Model.next_into s c dst) }
  in
  (match State_graph.enumerate ~domains:1 watched with
   | _ -> Alcotest.fail "enumeration passed an undefined successor"
   | exception Translate.Unsupported msg ->
     let s, ci = !last in
     let es, eci, emsg = expected in
     Alcotest.(check (array int)) "state" es s;
     Alcotest.(check int) "choice" eci ci;
     Alcotest.(check string) "message" emsg msg);
  (* The pass holding lane 100 is filled at choice 62; its other lanes
     answer, and the message waits for choice 100 itself. *)
  let m = (translate d).Translate.model in
  let s = [| 1 |] in
  let (), _, lanes =
    counters (fun () ->
        for ci = 0 to 99 do
          ignore (m.Model.next s (Model.choice_of_index m ci))
        done)
  in
  Alcotest.(check bool) "passes were filled" true (lanes > 0);
  match m.Model.next s (Model.choice_of_index m 100) with
  | _ -> Alcotest.fail "choice 100 answered"
  | exception Translate.Unsupported msg ->
    let _, _, emsg = expected in
    Alcotest.(check string) "deferred message" emsg msg

(* AVP_SIM_ENGINE=interp keeps the interpreter the oracle of every
   answer: no sliced pass runs, one interpreter step per call. *)
let test_interp_oracle () =
  let saved = Sys.getenv_opt "AVP_SIM_ENGINE" in
  Unix.putenv "AVP_SIM_ENGINE" "interp";
  let tr =
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "AVP_SIM_ENGINE" (Option.value ~default:"" saved))
      (fun () -> translate (Lazy.force pristine))
  in
  let g, steps, lanes =
    counters (fun () -> State_graph.enumerate ~domains:1 tr.Translate.model)
  in
  let reference =
    State_graph.enumerate ~domains:1
      (translate (Lazy.force pristine)).Translate.model
  in
  Alcotest.(check int) "sim.lanes" 0 lanes;
  Alcotest.(check int) "sim.steps" (121 * 1024) steps;
  Alcotest.(check bool) "same graph" true
    (g.State_graph.states = reference.State_graph.states
    && g.State_graph.adj = reference.State_graph.adj)

let suite =
  [
    Alcotest.test_case "pristine graphs match the oracle" `Quick test_pristine;
    Alcotest.test_case "pristine step count" `Quick test_step_count;
    Alcotest.test_case "mutant graphs match the oracle" `Slow test_mutants;
    Alcotest.test_case "interleaved random access" `Quick test_interleaved;
    Alcotest.test_case "undefined lane raises at its choice" `Quick
      test_undefined_lane;
    Alcotest.test_case "interp engine fills no rows" `Quick test_interp_oracle;
  ]
