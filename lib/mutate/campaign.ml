open Avp_fsm
open Avp_enum

type classification =
  | Stillborn of string
  | Killed_static of string
  | Killed_absint of string
  | Killed of { by_tour : bool; by_random : bool; detail : string }
  | Equivalent
  | Survived of string

type result = { mutant : Gen.mutant; cls : classification }

type family_score = {
  family : Op.family;
  total : int;
  stillborn : int;
  killed_static : int;
  killed_absint : int;
  equivalent : int;
  killed_tour : int;
  killed_random : int;
  survived : int;
  candidates : int;
}

type report = {
  design : string;
  seed : int;
  total : int;
  results : result array;
  families : family_score list;
  candidates : int;
  tour_killed : int;
  random_killed : int;
  tour_rate : float;
  random_rate : float;
  tour_cycles : int;
  random_cycles : int;
}

(* ---------------------------------------------------------------- *)
(* Random baseline                                                  *)
(* ---------------------------------------------------------------- *)

let random_walks ~salt ~seed (model : Model.t) (graph : State_graph.t)
    (lengths : int array) =
  let rng = Random.State.make [| salt; seed |] in
  let num_choices = Model.num_choices model in
  Avp_tour.Tour_gen.of_traces
    (Array.map
       (fun len ->
         let cur = ref (State_graph.reset_id graph) in
         Array.init len (fun _ ->
             let src = !cur in
             let choice = Random.State.int rng num_choices in
             let nxt =
               model.Model.next
                 graph.State_graph.states.(src)
                 (Model.choice_of_index model choice)
             in
             let dst =
               match State_graph.find_state graph nxt with
               | Some id -> id
               | None ->
                 (* Enumeration is total over reachable states. *)
                 assert false
             in
             cur := dst;
             { Avp_tour.Tour_gen.src; dst; choice; fresh = false }))
       lengths)

(* ---------------------------------------------------------------- *)
(* Kill scoring                                                     *)
(* ---------------------------------------------------------------- *)

module Obs = Avp_obs.Obs
module Replay = Avp_vectors.Replay

type oracle = State of Avp_tour.Tour_gen.t | Outputs

type oracle_set = {
  vectors : Avp_vectors.Vector.t array;
  chains : oracle list list;
}

type outcome = Clean | Mismatch of Replay.mismatch | Escape of string

(* The mutant drove a checked net to X/Z: the predicted/actual
   comparison itself becomes impossible — the Z-latch shape. *)
let escaped msg = Escape ("checked net left the defined domain: " ^ msg)

let detail = function
  | Clean -> None
  | Mismatch m -> Some (Format.asprintf "%a" Replay.pp_mismatch m)
  | Escape d -> Some d

let output_ports (design : Avp_hdl.Ast.design) ~top =
  match Avp_hdl.Ast.find_module design top with
  | None -> [||]
  | Some m ->
    List.concat_map
      (function
        | Avp_hdl.Ast.Port_decl (Avp_hdl.Ast.Output, _, names, _) -> names
        | _ -> [])
      m.Avp_hdl.Ast.m_items
    |> Array.of_list

(* The scalar path: every oracle is one full {!Replay} run of its set's
   vectors against one mutant, and a chain stops at its first issue. *)
let scalar_outcomes ~tr ~graph ~outs ~rows sets dut =
  Array.mapi
    (fun si set ->
      let run oracle =
        match
          match oracle with
          | State tours -> Replay.check ~dut ~vectors:set.vectors tr graph tours
          | Outputs ->
            Replay.check_nets ~dut tr ~nets:outs ~predicted:rows.(si)
              set.vectors
        with
        | Ok _ -> Clean
        | Error m -> Mismatch m
        | exception Translate.Unsupported msg -> escaped msg
        | exception e -> Escape ("replay raised: " ^ Printexc.to_string e)
      in
      let rec chain = function
        | [] -> Clean
        | o :: rest -> ( match run o with Clean -> chain rest | issue -> issue)
      in
      Array.of_list (List.map chain set.chains))
    sets

(* One replay of one vector set, all lanes word-parallel, serving
   CHAINS of oracles: stimulus is broadcast (every mutant sees the
   same vectors), only the checks are per lane.  Within a chain,
   oracle [k] is consumed by the caller only for lanes every earlier
   oracle of the chain passed clean, so a lane with an issue in
   oracle [j] stops checking in the rest of [j]'s chain; separate
   chains are independent.  [need] names the lanes whose result the
   caller will consume at all; the rest never simulate.  Returns, per
   chain per lane, the outcome the scalar path would have produced.

   Scalar fidelity rules, per oracle, lane by lane:
   - the first mismatch (lowest trace, then lowest cycle, then
     checked-net order) is the one recorded;
   - after a lane's first issue in a trace, the lane is not checked
     again within that trace (the scalar replay stops the trace), but
     is checked again in later traces — where an [Unsupported] escape
     would preempt the recorded mismatch, because the scalar replay
     runs every trace and the exception escapes the final scan;
   - a lane with an escape is retired from all later traces.

   The word pass exploits those rules for speed: once EVERY oracle is
   done with a lane for the current trace, the lane is frozen in the
   kernel (its nets stop toggling, so a chunk of dead mutants costs
   only the live lanes' settle activity), and the trace is abandoned
   outright once every lane has stopped everywhere — the batched
   analogue of the scalar replay's first-mismatch early exit.  All
   oracles on one vector set watch the same simulation, which is
   sound because checks never perturb it. *)
type probe = {
  p_ids : Avp_hdl.Elab.uid array;
  p_names : string array;
  p_predict : int -> int -> int -> int;  (* trace -> cycle -> net -> value *)
}

let sliced_phases sim ~lookup ~clock ~reset ~need (chains : probe array array)
    (vectors : Avp_vectors.Vector.t array) =
  let module S = Avp_hdl.Sliced in
  let lanes = S.lanes sim in
  let amask = S.amask sim in
  let oracles = Array.concat (Array.to_list chains) in
  let no = Array.length oracles in
  (* [last.(k)]: the final oracle of [k]'s chain. *)
  let last =
    let ends = ref 0 in
    Array.concat
      (List.map
         (fun c ->
           ends := !ends + Array.length c;
           Array.make (Array.length c) (!ends - 1))
         (Array.to_list chains))
  in
  let one = Avp_logic.Bv.of_int ~width:1 1
  and zero = Avp_logic.Bv.of_int ~width:1 0 in
  let res = Array.init no (fun _ -> Array.make lanes Clean) in
  let exn_mask = Array.make no 0 in
  let issue = Array.make no 0 in  (* lanes with any recorded issue *)
  let stopped = Array.make no 0 in  (* per trace: lanes not checked *)
  for ti = 0 to Array.length vectors - 1 do
    let irrelevant = ref 0 in
    for k = 0 to no - 1 do
      if k > 0 && last.(k - 1) <> last.(k) then irrelevant := 0;
      stopped.(k) <-
        amask
        land lnot (need land lnot exn_mask.(k) land lnot !irrelevant);
      irrelevant := !irrelevant lor issue.(k)
    done;
    let frozen0 = Array.fold_left ( land ) amask stopped in
    if frozen0 <> amask then begin
      S.reinit sim;
      S.freeze sim ~mask:frozen0;
      (* Returns [true] once every oracle has stopped every lane —
         the rest of the trace cannot change any recorded result. *)
      let compare_at cycle =
        let newly = ref false in
        for k = 0 to no - 1 do
          let o = oracles.(k) in
          Array.iteri
            (fun vi id ->
              let m = amask land lnot stopped.(k) in
              if m <> 0 then begin
                let p = o.p_predict ti cycle vi in
                let bad, neq = S.check_net ~mask:m sim id ~predicted:p in
                let flagged = bad lor neq in
                if flagged <> 0 then begin
                  for l = 0 to lanes - 1 do
                    if (flagged lsr l) land 1 = 1 then begin
                      let bv = S.get_lane sim ~lane:l id in
                      match Translate.value_of_bv bv with
                      | actual ->
                        if res.(k).(l) = Clean then
                          res.(k).(l) <-
                            Mismatch
                              {
                                Replay.trace = ti;
                                cycle;
                                net = o.p_names.(vi);
                                actual;
                                predicted = p;
                              }
                      | exception Translate.Unsupported msg ->
                        res.(k).(l) <- escaped msg;
                        exn_mask.(k) <- exn_mask.(k) lor (1 lsl l)
                    end
                  done;
                  issue.(k) <- issue.(k) lor flagged;
                  for k' = k to last.(k) do
                    stopped.(k') <- stopped.(k') lor flagged
                  done;
                  newly := true
                end
              end)
            o.p_ids
        done;
        if !newly then begin
          let all = Array.fold_left ( land ) amask stopped in
          S.freeze sim ~mask:all;
          all = amask
        end
        else false
      in
      S.set_id sim reset one;
      S.step sim clock;
      S.set_id sim reset zero;
      if not (compare_at (-1)) then begin
        try
          Array.iteri
            (fun i { Avp_vectors.Vector.actions } ->
              List.iter
                (fun a ->
                  match a with
                  | Avp_vectors.Vector.Force (nm, v) ->
                    S.force_id sim (lookup nm) v
                  | Avp_vectors.Vector.Release nm ->
                    S.release_id sim (lookup nm))
                actions;
              S.step sim clock;
              if compare_at i then raise Exit)
            vectors.(ti)
        with Exit -> ()
      end
    end
  done;
  let first = ref 0 in
  Array.map
    (fun c ->
      let k0 = !first in
      first := k0 + Array.length c;
      Array.init lanes (fun l ->
          let rec go k =
            if k = !first then Clean
            else match res.(k).(l) with Clean -> go (k + 1) | o -> o
          in
          go k0))
    chains

let score ?top ?(domains = 1) ?(engine = `Sliced)
    ?(lanes = Avp_logic.Bv_sliced.lanes_limit) ~design ~tr ~graph ~sets
    ~scored (duts : Avp_hdl.Elab.t array) =
  let n = Array.length duts in
  let outs = output_ports design ~top:tr.Translate.elab.Avp_hdl.Elab.top in
  (* Golden output trajectories, recorded once from the pristine
     design on the calling domain. *)
  let rows =
    Array.map (fun set -> Replay.record tr ~nets:outs set.vectors) sets
  in
  (* Mutant-level sharding: the scalar engine's whole population, and
     the sliced engine's leftovers (unschedulable mutants, chunks the
     kernel aborted on). *)
  let scalar_pass indices =
    Pool.iter ~domains (Array.length indices) (fun i ->
        let j = indices.(i) in
        scored j (scalar_outcomes ~tr ~graph ~outs ~rows sets duts.(j)))
  in
  let base =
    match engine with
    | `Scalar -> None
    | `Sliced -> (
      try Some (Avp_hdl.Elab.elaborate ?top design) with _ -> None)
  in
  match base with
  | None -> scalar_pass (Array.init n Fun.id)
  | Some base ->
    let fallback = ref [] in
    let lanes = max 1 (min lanes Avp_logic.Bv_sliced.lanes_limit) in
    let units = Avp_hdl.Compile.units base in
    let net_id nm = (Avp_hdl.Elab.net base nm).Avp_hdl.Elab.id in
    let clock = net_id tr.Translate.clock
    and reset = net_id tr.Translate.reset in
    let lookup =
      let tbl = Hashtbl.create 16 in
      fun nm ->
        match Hashtbl.find_opt tbl nm with
        | Some id -> id
        | None ->
          let id = net_id nm in
          Hashtbl.add tbl nm id;
          id
    in
    let state_names = Replay.state_nets tr in
    let state_ids = Array.map net_id state_names in
    let out_ids = Array.map net_id outs in
    let probe si = function
      | State tours ->
        let predict ti cycle vi =
          let trace = tours.Avp_tour.Tour_gen.traces.(ti) in
          let state =
            if cycle < 0 then trace.(0).Avp_tour.Tour_gen.src
            else trace.(cycle).Avp_tour.Tour_gen.dst
          in
          graph.State_graph.states.(state).(vi)
        in
        { p_ids = state_ids; p_names = state_names; p_predict = predict }
      | Outputs ->
        let predict ti cycle vi = rows.(si).(ti).(cycle + 1).(vi) in
        { p_ids = out_ids; p_names = outs; p_predict = predict }
    in
    let probes =
      Array.mapi
        (fun si set ->
          Array.of_list
            (List.map (fun c -> Array.of_list (List.map (probe si) c))
               set.chains))
        sets
    in
    for ci = 0 to ((n + lanes - 1) / lanes) - 1 do
      let c0 = ci * lanes in
      let k = min lanes (n - c0) in
      let tc0 = Obs.Clock.now_s () in
      let scheduled_n = ref 0 in
      (* The pass span covers the word-parallel replay only; the
         callers' verdicts run after it closes. *)
      let pass_span () =
        if Obs.enabled () then
          Obs.complete ~cat:"mutate" "mutate.pass"
            ~dur_s:(Obs.Clock.now_s () -. tc0)
            ~args:
              [
                ("pass", Obs.Int ci);
                ("lanes", Obs.Int k);
                ("scheduled", Obs.Int !scheduled_n);
              ]
      in
      let fall_back () =
        pass_span ();
        for j = c0 to c0 + k - 1 do
          fallback := j :: !fallback
        done
      in
      match
        Avp_hdl.Sliced.create_schemata ~u:units ~base (Array.sub duts c0 k)
      with
      | None -> fall_back ()
      | Some (sim, scheduled) -> (
        Array.iter (fun s -> if s then incr scheduled_n) scheduled;
        (* Only scheduled lanes simulate; one replay per set serves
           all its chains. *)
        let need = ref 0 in
        Array.iteri
          (fun l s -> if s then need := !need lor (1 lsl l))
          scheduled;
        match
          Array.mapi
            (fun si set ->
              sliced_phases sim ~lookup ~clock ~reset ~need:!need
                probes.(si) set.vectors)
            sets
        with
        | phases ->
          pass_span ();
          for l = 0 to k - 1 do
            if scheduled.(l) then
              scored (c0 + l)
                (Array.map (Array.map (fun by_lane -> by_lane.(l))) phases)
            else fallback := (c0 + l) :: !fallback
          done
        | exception _ ->
          (* One lane drove the kernel outside its envelope (a
             mutation-induced comb loop aborts the whole word):
             rescore the chunk lane by lane on the scalar path,
             which attributes the failure to the mutant that
             caused it. *)
          scheduled_n := 0;
          fall_back ())
    done;
    scalar_pass (Array.of_list (List.rev !fallback))

(* ---------------------------------------------------------------- *)
(* The campaign                                                     *)
(* ---------------------------------------------------------------- *)

(* Assemble the final classification from the two oracle outcomes
   ([Some detail] = caught). *)
let verdict ~max_equiv_states ~graph ~dut tour random =
  match (tour, random) with
  | None, None -> (
    match Filter.equivalent ~max_states:max_equiv_states ~pristine:graph dut with
    | `Equivalent -> Equivalent
    | `Different why | `Unknown why -> Survived why)
  | Some d, r -> Killed { by_tour = true; by_random = r <> None; detail = d }
  | None, Some d -> Killed { by_tour = false; by_random = true; detail = d }

let run ?families ?(seed = 1) ?budget ?(domains = 1)
    ?(max_equiv_states = 10_000) ?top ?progress ?engine ?lanes ~design ~tr
    ~graph ~tours () =
  let mutants =
    let all = Gen.all ?families design in
    match budget with
    | None -> all
    | Some budget -> Gen.sample ~seed ~budget all
  in
  let mutants = Array.of_list mutants in
  let n = Array.length mutants in
  (* Vector realization touches the pristine model (whose [next] steps
     a shared simulator), so it happens once, here, sequentially; the
     resulting vectors are immutable and shared by every domain.  The
     random baseline walks the tour's trace-length profile. *)
  let rtours =
    random_walks ~salt:0x6261736c ~seed tr.Translate.model graph
      (Array.map Array.length tours.Avp_tour.Tour_gen.traces)
  in
  let tvecs = Replay.vectors tr tours in
  let rvecs = Replay.vectors tr rtours in
  (* Pristine invariants, proven once; each vetted mutant is re-analysed
     and pruned when its invariants provably diverge on a checked net.
     The prune runs at vet time on BOTH engines, so scalar and sliced
     reports stay byte-identical. *)
  let checked_nets =
    Array.to_list (output_ports design ~top:tr.Translate.elab.Avp_hdl.Elab.top)
    @ Array.to_list (Replay.state_nets tr)
  in
  let pristine_inv = Avp_analysis.Absint.analyze tr.Translate.elab in
  let prune dut =
    Filter.prune ~checked:checked_nets ~pristine:pristine_inv dut
  in
  let cycles vecs =
    Array.fold_left (fun acc v -> acc + Array.length v) 0 vecs
  in
  let out = Array.make n Equivalent in
  (* One span per mutant, its args the deterministic classification —
     so normalized trace output is -j invariant like the report. *)
  let finish ~t0 i cls =
    out.(i) <- cls;
    if Obs.enabled () then
      Obs.complete ~cat:"mutate" "mutate.classify"
        ~dur_s:(Obs.Clock.now_s () -. t0)
        ~args:
          [
            ("mutant", Obs.Int mutants.(i).Gen.id);
            ("flow_in", Obs.Int 0);
            ( "class",
              Obs.Str
                (match cls with
                 | Stillborn _ -> "stillborn"
                 | Killed_static _ -> "killed-static"
                 | Killed_absint _ -> "killed-absint"
                 | Killed _ -> "killed"
                 | Equivalent -> "equivalent"
                 | Survived _ -> "survived") );
          ];
    match progress with
    | Some p -> Avp_obs.Progress.tick p
    | None -> ()
  in
  (* The parent span covers every pass and classification; the
     constant flow id draws the fan-out to the per-mutant spans in the
     Chrome viewer, and its args are domain-count-free so normalized
     traces stay -j invariant. *)
  Obs.span ~cat:"mutate" "mutate.run"
    ~args:[ ("mutants", Obs.Int n); ("flow_out", Obs.Int 0) ]
  @@ fun () ->
  (* Vet every mutant up front: stillborn, statically-killed and
     absint-pruned mutants classify without simulating; the rest are
     scored.  Tour oracle: per-cycle state predictions from the
     enumerated graph (the tour knows the transition taken every
     cycle), then — chained, for a mutant the state oracle passed —
     the expected outputs.  Random oracle: outputs only — golden-model
     lockstep is all the observability random vectors have. *)
  let cands = ref [] in
  for i = 0 to n - 1 do
    let t0 = Obs.Clock.now_s () in
    match Filter.vet ?top mutants.(i).Gen.design with
    | `Stillborn msg -> finish ~t0 i (Stillborn msg)
    | `Static msg -> finish ~t0 i (Killed_static msg)
    | `Ok dut -> (
      match prune dut with
      | Some why -> finish ~t0 i (Killed_absint why)
      | None -> cands := (i, dut) :: !cands)
  done;
  let cands = Array.of_list (List.rev !cands) in
  score ?top ~domains ?engine ?lanes ~design ~tr ~graph
    ~sets:
      [|
        { vectors = tvecs; chains = [ [ State tours; Outputs ] ] };
        { vectors = rvecs; chains = [ [ Outputs ] ] };
      |]
    ~scored:(fun c o ->
      let i, dut = cands.(c) in
      let t0 = Obs.Clock.now_s () in
      finish ~t0 i
        (verdict ~max_equiv_states ~graph ~dut (detail o.(0).(0))
           (detail o.(1).(0))))
    (Array.map snd cands);
  let results =
    Array.init n (fun i -> { mutant = mutants.(i); cls = out.(i) })
  in
  let score family =
    let of_family r = r.mutant.Gen.descr.Op.family = family in
    let count p = Array.fold_left
        (fun acc r -> if of_family r && p r.cls then acc + 1 else acc)
        0 results
    in
    let total = count (fun _ -> true) in
    let stillborn = count (function Stillborn _ -> true | _ -> false) in
    let killed_static =
      count (function Killed_static _ -> true | _ -> false)
    in
    let killed_absint =
      count (function Killed_absint _ -> true | _ -> false)
    in
    let equivalent = count (function Equivalent -> true | _ -> false) in
    let killed_tour =
      count (function Killed { by_tour; _ } -> by_tour | _ -> false)
    in
    let killed_random =
      count (function Killed { by_random; _ } -> by_random | _ -> false)
    in
    let survived = count (function Survived _ -> true | _ -> false) in
    {
      family;
      total;
      stillborn;
      killed_static;
      killed_absint;
      equivalent;
      killed_tour;
      killed_random;
      survived;
      candidates =
        total - stillborn - killed_static - killed_absint - equivalent;
    }
  in
  let families =
    List.filter_map
      (fun f ->
        let s = score f in
        if s.total = 0 then None else Some s)
      Op.all_families
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 families in
  let candidates = sum (fun s -> s.candidates) in
  let tour_killed = sum (fun s -> s.killed_tour) in
  let random_killed = sum (fun s -> s.killed_random) in
  let rate k = if candidates = 0 then 0. else float_of_int k /. float_of_int candidates in
  {
    design = tr.Translate.elab.Avp_hdl.Elab.top;
    seed;
    total = n;
    results;
    families;
    candidates;
    tour_killed;
    random_killed;
    tour_rate = rate tour_killed;
    random_rate = rate random_killed;
    tour_cycles = cycles tvecs;
    random_cycles = cycles rvecs;
  }

(* ---------------------------------------------------------------- *)
(* Rendering                                                        *)
(* ---------------------------------------------------------------- *)

let class_name = function
  | Stillborn _ -> "stillborn"
  | Killed_static _ -> "killed-static"
  | Killed_absint _ -> "killed-absint"
  | Killed _ -> "killed"
  | Equivalent -> "equivalent"
  | Survived _ -> "survived"

let class_note = function
  | Stillborn m | Killed_static m | Killed_absint m | Survived m -> m
  | Killed { detail; _ } -> detail
  | Equivalent -> ""

let survivors report =
  Array.to_list report.results
  |> List.filter (fun r -> match r.cls with Survived _ -> true | _ -> false)

let to_json report =
  let esc = Avp_hdl.Finding.json_escape in
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sum f =
    List.fold_left (fun acc s -> acc + f s) 0 report.families
  in
  p "{\n";
  p "  \"design\": \"%s\",\n" (esc report.design);
  p "  \"seed\": %d,\n" report.seed;
  p "  \"mutants\": %d,\n" report.total;
  p "  \"stillborn\": %d,\n" (sum (fun s -> s.stillborn));
  p "  \"killed_static\": %d,\n" (sum (fun s -> s.killed_static));
  p "  \"killed_absint\": %d,\n" (sum (fun s -> s.killed_absint));
  p "  \"equivalent\": %d,\n" (sum (fun s -> s.equivalent));
  p "  \"candidates\": %d,\n" report.candidates;
  p "  \"tour\": {\"killed\": %d, \"rate\": %.4f, \"cycles\": %d},\n"
    report.tour_killed report.tour_rate report.tour_cycles;
  p "  \"random\": {\"killed\": %d, \"rate\": %.4f, \"cycles\": %d},\n"
    report.random_killed report.random_rate report.random_cycles;
  p "  \"families\": [\n";
  List.iteri
    (fun i s ->
      p
        "    {\"family\": \"%s\", \"total\": %d, \"stillborn\": %d, \
         \"killed_static\": %d, \"killed_absint\": %d, \"equivalent\": %d, \
         \"killed_tour\": %d, \"killed_random\": %d, \"survived\": %d, \
         \"candidates\": %d}%s\n"
        (Op.family_name s.family) s.total s.stillborn s.killed_static
        s.killed_absint s.equivalent s.killed_tour s.killed_random s.survived
        s.candidates
        (if i = List.length report.families - 1 then "" else ","))
    report.families;
  p "  ],\n";
  p "  \"results\": [\n";
  Array.iteri
    (fun i r ->
      let d = r.mutant.Gen.descr in
      let missed_by ~by_tour ~by_random =
        (if by_tour then [] else [ "\"tour\"" ])
        @ (if by_random then [] else [ "\"random\"" ])
        |> String.concat ", "
        |> Printf.sprintf ", \"missed_by\": [%s]"
      in
      let extra =
        match r.cls with
        | Killed { by_tour; by_random; _ } ->
          Printf.sprintf ", \"by_tour\": %b, \"by_random\": %b%s" by_tour
            by_random
            (missed_by ~by_tour ~by_random)
        | Survived _ -> missed_by ~by_tour:false ~by_random:false
        | _ -> ""
      in
      p
        "    {\"id\": %d, \"family\": \"%s\", \"loc\": \"%d:%d\", \
         \"detail\": \"%s\", \"class\": \"%s\"%s, \"note\": \"%s\"}%s\n"
        r.mutant.Gen.id
        (Op.family_name d.Op.family)
        d.Op.loc.Avp_hdl.Ast.line d.Op.loc.Avp_hdl.Ast.col
        (esc d.Op.detail) (class_name r.cls) extra
        (esc (class_note r.cls))
        (if i = Array.length report.results - 1 then "" else ","))
    report.results;
  p "  ],\n";
  p "  \"survivors\": [\n";
  let survs = survivors report in
  List.iteri
    (fun i r ->
      let d = r.mutant.Gen.descr in
      p
        "    {\"id\": %d, \"family\": \"%s\", \"loc\": \"%d:%d\", \
         \"detail\": \"%s\", \"note\": \"%s\"}%s\n"
        r.mutant.Gen.id
        (Op.family_name d.Op.family)
        d.Op.loc.Avp_hdl.Ast.line d.Op.loc.Avp_hdl.Ast.col
        (esc d.Op.detail)
        (esc (class_note r.cls))
        (if i = List.length survs - 1 then "" else ","))
    survs;
  p "  ]\n";
  p "}\n";
  Buffer.contents buf

(* Bridge into the unified coverage reports: the campaign's scores as
   an {!Avp_obs.Report.mutation_section}, family table included. *)
let report_section (report : report) : Avp_obs.Report.mutation_section =
  {
    Avp_obs.Report.mutants = report.total;
    candidates = report.candidates;
    tour_killed = report.tour_killed;
    tour_rate = report.tour_rate;
    random_killed = report.random_killed;
    random_rate = report.random_rate;
    families =
      List.map
        (fun s ->
          {
            Avp_obs.Report.family = Op.family_name s.family;
            fam_total = s.total;
            fam_candidates = s.candidates;
            fam_killed_tour = s.killed_tour;
            fam_killed_random = s.killed_random;
            fam_equivalent = s.equivalent;
            fam_survived = s.survived;
            fam_rejected = s.stillborn + s.killed_static + s.killed_absint;
          })
        report.families;
  }

let pp_report ppf report =
  Format.fprintf ppf
    "mutation campaign on %s: %d mutants (seed %d)@." report.design
    report.total report.seed;
  Format.fprintf ppf
    "  %-18s %5s %5s %6s %6s %5s %5s %5s@." "family" "total" "cand"
    "tour" "rand" "equiv" "surv" "rej";
  List.iter
    (fun s ->
      Format.fprintf ppf "  %-18s %5d %5d %6d %6d %5d %5d %5d@."
        (Op.family_name s.family)
        s.total s.candidates s.killed_tour s.killed_random s.equivalent
        s.survived
        (s.stillborn + s.killed_static + s.killed_absint))
    report.families;
  (let pruned =
     List.fold_left (fun acc s -> acc + s.killed_absint) 0 report.families
   in
   if pruned > 0 then
     Format.fprintf ppf
       "  absint pruned %d mutant%s without simulating a cycle@." pruned
       (if pruned = 1 then "" else "s"));
  Format.fprintf ppf
    "  tour kill-rate %.1f%% (%d/%d, %d cycles) | random kill-rate %.1f%% \
     (%d/%d, %d cycles)@."
    (100. *. report.tour_rate) report.tour_killed report.candidates
    report.tour_cycles
    (100. *. report.random_rate)
    report.random_killed report.candidates report.random_cycles;
  match survivors report with
  | [] -> Format.fprintf ppf "  no survivors@."
  | survs ->
    Format.fprintf ppf "  survivors (%d):@." (List.length survs);
    List.iter
      (fun r ->
        Format.fprintf ppf "    #%d %a — %s@." r.mutant.Gen.id Op.pp_descr
          r.mutant.Gen.descr (class_note r.cls))
      survs
