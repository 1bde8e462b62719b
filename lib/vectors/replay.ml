open Avp_fsm
module Obs = Avp_obs.Obs

type stats = {
  traces : int;
  cycles : int;
}

type mismatch = {
  trace : int;
  cycle : int;
  net : string;
  actual : int;
  predicted : int;
}

let pp_mismatch ppf m =
  if m.cycle < 0 then
    Format.fprintf ppf
      "trace %d at reset release: %s = %d but the tour predicted %d" m.trace
      m.net m.actual m.predicted
  else
    Format.fprintf ppf
      "trace %d cycle %d: %s = %d but the tour predicted %d" m.trace m.cycle
      m.net m.actual m.predicted

exception Found of mismatch

(* Small replays lose more to domain spawn and cache contention than
   they gain: stay sequential unless every domain gets at least this
   many cycles of work (the same shape as the enumerator's frontier
   threshold). *)
let min_cycles_per_domain = 4096

let total_cycles (vectors : Vector.t array) =
  Array.fold_left (fun acc v -> acc + Array.length v) 0 vectors

let effective_domains ~domains vectors =
  max 1 (min domains (total_cycles vectors / min_cycles_per_domain))

(* ------------------------------------------------------------------ *)
(* The two drivers                                                    *)
(* ------------------------------------------------------------------ *)

(* Scalar: one fresh instance of a compile-once template per trace, so
   a multi-hundred-trace replay pays static analysis and bytecode
   assembly a single time.  [job ti play] owns trace [ti]'s
   bookkeeping; [play observe] runs the trace. *)
let drive ?(domains = 1) tpl (tr : Translate.result) vectors job =
  Avp_enum.Pool.iter
    ~domains:(effective_domains ~domains vectors)
    (Array.length vectors)
    (fun ti ->
      job ti (fun observe ->
          let sim = Avp_hdl.Sim.instantiate tpl in
          Condition_map.apply vectors.(ti) sim ~clock:tr.Translate.clock
            ~reset:tr.Translate.reset
            ~on_reset:(fun () -> observe sim (-1))
            ~on_cycle:(observe sim)))

(* Lane-parallel: one sliced kernel carries up to [lanes] traces.
   Stimulus is applied lane-masked (each lane follows its own trace),
   the clock steps all lanes in lockstep, and lanes whose trace is
   shorter than the chunk's longest keep stepping after their last
   vector — harmless, since observers skip cycles past a trace's
   end. *)
let drive_lanes ~lanes ~domains (design : Avp_hdl.Elab.t)
    (tr : Translate.result) (vectors : Vector.t array) chunk =
  let n = Array.length vectors in
  let lanes = max 1 (min lanes Avp_logic.Bv_sliced.lanes_limit) in
  let units = Avp_hdl.Compile.units design in
  match Avp_hdl.Sliced.create ~u:units ~lanes:(min lanes (max 1 n)) design with
  | None -> None (* design outside the sliced kernel's coverage *)
  | Some _ ->
    let net_id nm = (Avp_hdl.Elab.net design nm).Avp_hdl.Elab.id in
    let clock = net_id tr.Translate.clock
    and reset = net_id tr.Translate.reset in
    let one = Avp_logic.Bv.of_int ~width:1 1
    and zero = Avp_logic.Bv.of_int ~width:1 0 in
    let nnets = Array.length design.Avp_hdl.Elab.nets in
    let run_chunk ci =
      let first = ci * lanes in
      let k = min lanes (n - first) in
      let sim =
        match Avp_hdl.Sliced.create ~u:units ~lanes:k design with
        | Some s -> s
        | None -> assert false (* coverage probed above *)
      in
      let observe, finish = chunk ~first ~k sim in
      (* The hot loop resolves a net name per (lane, action) — ~8 per
         lane per cycle.  The realized vectors share one physical
         string per choice variable, so a tiny pointer-equality cache
         beats hashing the string tens of thousands of times; distinct
         physical copies of the same name merely add a duplicate entry
         with the same uid. *)
      let cache = ref [] in
      let lookup nm =
        let rec find = function
          | [] ->
            let id = net_id nm in
            cache := (nm, id) :: !cache;
            id
          | (nm', id) :: rest -> if nm' == nm then id else find rest
        in
        find !cache
      in
      let len j = Array.length vectors.(first + j) in
      let maxlen = ref 0 in
      for j = 0 to k - 1 do
        maxlen := max !maxlen (len j)
      done;
      Avp_hdl.Sliced.set_id sim reset one;
      Avp_hdl.Sliced.step sim clock;
      Avp_hdl.Sliced.set_id sim reset zero;
      observe (-1);
      (* Forces are grouped per net and applied once per cycle
         ([Sliced.force_lanes]); nothing observes the nets between
         the actions and the clock edge, so deferring to the end of
         the action list is invisible — except to a same-cycle
         same-net Release on the same lane.  In the sequential order
         that force lands first and the release only unpins it (an
         undriven net keeps the forced value), so the Release applies
         the lane's pending force before releasing it.  The pending
         buffers are indexed by uid directly: the loop body runs once
         per (lane, action) and must stay allocation- and hash-free. *)
      let pending = Array.make nnets [||] in
      let pending_ids = ref [] in
      for c = 0 to !maxlen - 1 do
        for j = 0 to k - 1 do
          if c < len j then
            List.iter
              (function
                | Vector.Force (nm, v) ->
                  let id = lookup nm in
                  if Array.length pending.(id) = 0 then
                    pending.(id) <- Array.make k None;
                  if not (List.memq id !pending_ids) then
                    pending_ids := id :: !pending_ids;
                  pending.(id).(j) <- Some v
                | Vector.Release nm ->
                  let id = lookup nm in
                  (if Array.length pending.(id) > 0 then
                     match pending.(id).(j) with
                     | Some v ->
                       Avp_hdl.Sliced.force_id ~mask:(1 lsl j) sim id v;
                       pending.(id).(j) <- None
                     | None -> ());
                  Avp_hdl.Sliced.release_id ~mask:(1 lsl j) sim id)
              vectors.(first + j).(c).Vector.actions
        done;
        List.iter
          (fun id ->
            let buf = pending.(id) in
            Avp_hdl.Sliced.force_lanes sim id buf;
            Array.fill buf 0 k None)
          !pending_ids;
        pending_ids := [];
        Avp_hdl.Sliced.step sim clock;
        observe c
      done;
      finish ()
    in
    Avp_enum.Pool.iter
      ~domains:(effective_domains ~domains vectors)
      ((n + lanes - 1) / lanes)
      run_chunk;
    Some ()

(* ------------------------------------------------------------------ *)
(* Checking replays                                                   *)
(* ------------------------------------------------------------------ *)

(* Per-trace (cycles, mismatch) results, scanned left to right as the
   sequential run would: cycles of every trace before the first
   failing one count, and the lowest-numbered mismatch is reported. *)
let merge results =
  let rec scan ti cycles =
    if ti = Array.length results then Ok { traces = ti; cycles }
    else
      match results.(ti) with
      | c, None -> scan (ti + 1) (cycles + c)
      | _, Some m -> Error m
  in
  scan 0 0

(* Replay every trace, comparing the given nets against
   [predict ti cycle net_index] after reset (cycle -1) and after every
   clock edge.  Every domain works on disjoint indices of [results],
   so the merge is deterministic for any [domains]. *)
let sharded ?progress ~domains tpl (tr : Translate.result)
    ~(nets : string array) ~predict vectors =
  let n = Array.length vectors in
  let results = Array.make n (0, None) in
  (* The parent span covers dispatch, the shards and the scan — the
     profiler's envelope for replay's serial fraction.  Its args (and
     the constant flow id linking it to the per-trace spans in the
     Chrome viewer) must not depend on [domains], or the normalized
     trace would stop being [-j]-invariant. *)
  Obs.span ~cat:"replay" "replay.run"
    ~args:[ ("traces", Obs.Int n); ("flow_out", Obs.Int 0) ]
  @@ fun () ->
  (* Telemetry is per trace, not per cycle, and its args (trace index,
     cycles, verdict) are the deterministic replay results — so the
     normalized event set is identical for any [domains]. *)
  drive ~domains tpl tr vectors (fun ti play ->
      let t0 = Obs.Clock.now_s () in
      let cycles = ref 0 in
      let compare_at sim cycle =
        if cycle >= 0 then incr cycles;
        Array.iteri
          (fun vi net ->
            let predicted = predict ti cycle vi in
            let actual = Translate.value_of_bv (Avp_hdl.Sim.get sim net) in
            if actual <> predicted then
              raise (Found { trace = ti; cycle; net; actual; predicted }))
          nets
      in
      let m =
        match play compare_at with () -> None | exception Found m -> Some m
      in
      if Obs.enabled () then
        Obs.complete ~cat:"replay" "replay.trace"
          ~dur_s:(Obs.Clock.now_s () -. t0)
          ~args:
            [
              ("trace", Obs.Int ti);
              ("cycles", Obs.Int !cycles);
              ("ok", Obs.Bool (Option.is_none m));
              ("flow_in", Obs.Int 0);
            ];
      Option.iter Avp_obs.Progress.tick progress;
      results.(ti) <- (!cycles, m));
  merge results

(* The model's [next] may drive a shared reference simulator, so
   vector generation stays sequential; the replay itself dominates
   the cost and is embarrassingly parallel. *)
let vectors (tr : Translate.result) (tours : Avp_tour.Tour_gen.t) =
  let map = Condition_map.of_translation tr in
  Array.map
    (Condition_map.vectors_of_trace map tr.Translate.model)
    tours.Avp_tour.Tour_gen.traces

let state_nets (tr : Translate.result) =
  Array.map
    (fun (b : Translate.binding) -> b.Translate.net.Avp_hdl.Elab.name)
    tr.Translate.state_bindings

(* Vector budget consumed up to and including a detecting cycle: the
   full length of every trace before the mismatching one, plus the
   cycles of the mismatching trace itself.  The post-reset check
   (cycle -1) costs no vectors.  This is the "vectors-to-kill" cost
   the generator comparison reports. *)
let cycles_until (vectors : Vector.t array) (m : mismatch) =
  let acc = ref 0 in
  for ti = 0 to min (m.trace - 1) (Array.length vectors - 1) do
    acc := !acc + Array.length vectors.(ti)
  done;
  !acc + max 0 (m.cycle + 1)

(* The state the tour predicts for trace [ti] after reset (cycle -1)
   or after cycle [cycle]. *)
let tour_predict (graph : Avp_enum.State_graph.t)
    (traces : Avp_tour.Tour_gen.trace array) ti cycle vi =
  let trace = traces.(ti) in
  let state =
    if cycle < 0 then trace.(0).Avp_tour.Tour_gen.src
    else trace.(cycle).Avp_tour.Tour_gen.dst
  in
  graph.Avp_enum.State_graph.states.(state).(vi)

let check ?dut ?(domains = 1) ?progress ?vectors:vecs (tr : Translate.result)
    (graph : Avp_enum.State_graph.t) (tours : Avp_tour.Tour_gen.t) =
  let design = Option.value ~default:tr.Translate.elab dut in
  let vectors = match vecs with Some v -> v | None -> vectors tr tours in
  sharded ?progress ~domains (Avp_hdl.Sim.template design) tr
    ~nets:(state_nets tr)
    ~predict:(tour_predict graph tours.Avp_tour.Tour_gen.traces)
    vectors

let record ?dut (tr : Translate.result) ~(nets : string array)
    (vectors : Vector.t array) =
  let design = Option.value ~default:tr.Translate.elab dut in
  let rows =
    Array.map
      (fun v -> Array.make_matrix (Array.length v + 1) (Array.length nets) 0)
      vectors
  in
  drive (Avp_hdl.Sim.template design) tr vectors (fun ti play ->
      play (fun sim cycle ->
          Array.iteri
            (fun vi net ->
              rows.(ti).(cycle + 1).(vi) <-
                Translate.value_of_bv (Avp_hdl.Sim.get sim net))
            nets));
  rows

let check_nets ~dut ?(domains = 1) ?progress (tr : Translate.result)
    ~(nets : string array) ~(predicted : int array array array)
    (vectors : Vector.t array) =
  sharded ?progress ~domains (Avp_hdl.Sim.template dut) tr ~nets
    ~predict:(fun ti cycle vi -> predicted.(ti).(cycle + 1).(vi))
    vectors

(* Batched replay on the lane driver.  The outcome is assembled to
   match the sequential scalar run exactly: an [Unsupported] (a
   checked net leaving the defined domain) in the lowest-numbered
   trace that has one is re-raised — even past an earlier trace's
   recorded mismatch, because the scalar loop runs every trace and
   the exception escapes the scan — and otherwise the lowest-numbered
   mismatch is reported. *)
let check_batch ?dut ?(lanes = Avp_logic.Bv_sliced.lanes_limit)
    ?(domains = 1) ?progress ?vectors:vecs (tr : Translate.result)
    (graph : Avp_enum.State_graph.t) (tours : Avp_tour.Tour_gen.t) =
  let design = Option.value ~default:tr.Translate.elab dut in
  let vectors = match vecs with Some v -> v | None -> vectors tr tours in
  let n = Array.length vectors in
  let predict = tour_predict graph tours.Avp_tour.Tour_gen.traces in
  let nets = state_nets tr in
  let net_ids =
    Array.map (fun nm -> (Avp_hdl.Elab.net design nm).Avp_hdl.Elab.id) nets
  in
  (* Per-trace issue: [`Mis m | `Exn msg]. *)
  let issue = Array.make n None in
  let len ti = Array.length vectors.(ti) in
  let chunk ~first ~k sim =
    let pred_buf = Array.make k 0 in
    let compare_at cycle =
      Array.iteri
        (fun vi net ->
          let mask = ref 0 in
          for j = 0 to k - 1 do
            let ti = first + j in
            if Option.is_none issue.(ti) && (cycle < 0 || cycle < len ti)
            then begin
              mask := !mask lor (1 lsl j);
              pred_buf.(j) <- predict ti cycle vi
            end
            else pred_buf.(j) <- 0
          done;
          if !mask <> 0 then begin
            let bad, neq =
              Avp_hdl.Sliced.check_net_lanes ~mask:!mask sim net_ids.(vi)
                ~predicted:pred_buf
            in
            let flagged = bad lor neq in
            if flagged <> 0 then
              for j = 0 to k - 1 do
                if (flagged lsr j) land 1 = 1 then
                  issue.(first + j) <-
                    Some
                      (match
                         Translate.value_of_bv
                           (Avp_hdl.Sliced.get_lane sim ~lane:j net_ids.(vi))
                       with
                       | actual ->
                         `Mis
                           {
                             trace = first + j;
                             cycle;
                             net;
                             actual;
                             predicted = pred_buf.(j);
                           }
                       | exception Translate.Unsupported msg -> `Exn msg)
              done
          end)
        nets
    in
    let finish () =
      for _ = 1 to k do
        Option.iter Avp_obs.Progress.tick progress
      done
    in
    (compare_at, finish)
  in
  match drive_lanes ~lanes ~domains design tr vectors chunk with
  | None ->
    (* Design outside the sliced kernel's coverage: scalar path. *)
    check ?dut ~domains ?progress ~vectors tr graph tours
  | Some () ->
    (* Scalar-equivalent assembly: lowest-trace exception first. *)
    Array.iter
      (function Some (`Exn msg) -> raise (Translate.Unsupported msg) | _ -> ())
      issue;
    merge
      (Array.mapi
         (fun ti -> function
           | Some (`Mis m) -> (0, Some m)
           | _ -> (len ti, None))
         issue)

(* Replay one trace's vectors with a VCD dump attached: the waveform
   artifact behind the CLI's [--vcd], showing state nets toggling
   under annotated force/release stimulus. *)
let dump_vcd ?dut ?nets (tr : Translate.result) (vector : Vector.t) =
  let design = Option.value ~default:tr.Translate.elab dut in
  let nets =
    match nets with
    | Some ns -> ns
    | None ->
      (* Clock, reset, the annotated state nets, then every net the
         vectors touch — deduplicated, first occurrence wins. *)
      let forced = ref [] in
      Array.iter
        (fun (c : Vector.cycle) ->
          List.iter
            (function
              | Vector.Force (n, _) -> forced := n :: !forced
              | Vector.Release n -> forced := n :: !forced)
            c.Vector.actions)
        vector;
      let candidates =
        (tr.Translate.clock :: tr.Translate.reset
         :: Array.to_list (state_nets tr))
        @ List.rev !forced
      in
      let seen = Hashtbl.create 16 in
      List.filter
        (fun n ->
          if Hashtbl.mem seen n then false
          else begin
            Hashtbl.add seen n ();
            true
          end)
        candidates
  in
  let sim = Avp_hdl.Sim.create design in
  let vcd = Avp_hdl.Vcd.attach sim ~nets in
  Condition_map.apply vector sim ~clock:tr.Translate.clock
    ~reset:tr.Translate.reset
    ~on_cycle:(fun _ -> ());
  Avp_hdl.Vcd.detach vcd;
  Avp_hdl.Vcd.serialize ~top:tr.Translate.model.Model.model_name vcd
