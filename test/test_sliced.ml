(* Differential tests for the bit-sliced batched engine.

   Three layers:

   - transposed bitvector properties: every [Bv_sliced] operation on
     random lane arrays (lane counts 1..62, widths crossing the
     62-bit word boundary) must agree lane-for-lane with the scalar
     [Bv] operation;

   - batched engine differential: the control design driven with
     per-lane random stimulus (pokes, forces, releases) must track
     one scalar compiled simulator per lane, net-for-net;

   - mutant schemata differential: the pp control mutants compiled
     into one schemata kernel must each track a scalar simulator of
     that mutant's own elaboration. *)

open Avp_logic
open Avp_hdl
module Sl = Bv_sliced

let gen_bit =
  QCheck.Gen.frequency
    [
      (4, QCheck.Gen.return Bit.L0);
      (4, QCheck.Gen.return Bit.L1);
      (1, QCheck.Gen.return Bit.X);
      (1, QCheck.Gen.return Bit.Z);
    ]

let gen_bv w =
  QCheck.Gen.map Bv.of_bits (QCheck.Gen.list_size (QCheck.Gen.return w) gen_bit)

(* A batch: 1..62 lanes of equal width, widths crossing the packed /
   wide boundary so the per-design-bit layout is exercised beyond one
   word's worth of bits. *)
let gen_batch =
  QCheck.Gen.(
    int_range 1 70 >>= fun w ->
    int_range 1 62 >>= fun k ->
    map Array.of_list (list_size (return k) (gen_bv w)))

let gen_batch_pair =
  QCheck.Gen.(
    pair (int_range 1 70) (int_range 1 70) >>= fun (wa, wb) ->
    int_range 1 62 >>= fun k ->
    pair
      (map Array.of_list (list_size (return k) (gen_bv wa)))
      (map Array.of_list (list_size (return k) (gen_bv wb))))

let prop name gen f = QCheck.Test.make ~name ~count:300 (QCheck.make gen) f

let lanes_agree name expected (batch : Sl.t) =
  Array.iteri
    (fun l e ->
      let actual = Sl.lane batch l in
      if not (Bv.equal e actual) then
        Alcotest.failf "%s lane %d: expected %s got %s" name l
          (Bv.to_string e) (Bv.to_string actual))
    expected;
  true

let bit1 b = Bv.of_bits [ b ]

let prop_bitwise =
  prop "sliced bitwise ops = per-lane Bv" gen_batch_pair (fun (xs, ys) ->
      let sx = Sl.of_lanes xs and sy = Sl.of_lanes ys in
      List.for_all
        (fun (name, slf, bvf) ->
          lanes_agree name
            (Array.map2 bvf xs ys)
            (slf sx sy))
        [
          ("logand", Sl.logand, Bv.logand);
          ("logor", Sl.logor, Bv.logor);
          ("logxor", Sl.logxor, Bv.logxor);
          ("resolve", Sl.resolve, Bv.resolve);
          ("add", Sl.add, Bv.add);
          ("sub", Sl.sub, Bv.sub);
          ("mul", Sl.mul, Bv.mul);
          ("shl", Sl.shift_left, Bv.shift_left);
          ("shr", Sl.shift_right, Bv.shift_right);
        ])

let prop_relational =
  prop "sliced relational ops = per-lane Bv" gen_batch_pair (fun (xs, ys) ->
      let sx = Sl.of_lanes xs and sy = Sl.of_lanes ys in
      List.for_all
        (fun (name, slf, bvf) ->
          lanes_agree name
            (Array.map2 (fun a b -> bit1 (bvf a b)) xs ys)
            (slf sx sy))
        [
          ("eq", Sl.eq, Bv.eq);
          ("neq", Sl.neq, Bv.neq);
          ("lt", Sl.lt, Bv.lt);
          ("le", Sl.le, Bv.le);
          ("gt", Sl.gt, Bv.gt);
          ("ge", Sl.ge, Bv.ge);
          ("case_eq", Sl.case_eq, fun a b -> Bv.case_eq a b);
          ( "case_neq",
            Sl.case_neq,
            fun a b ->
              match Bv.case_eq a b with
              | Bit.L1 -> Bit.L0
              | _ -> Bit.L1 );
        ])

let prop_unary =
  prop "sliced unary ops = per-lane Bv" gen_batch (fun xs ->
      let sx = Sl.of_lanes xs in
      lanes_agree "lognot" (Array.map Bv.lognot xs) (Sl.lognot sx)
      && lanes_agree "neg" (Array.map Bv.neg xs) (Sl.neg sx)
      && lanes_agree "reduce_and"
           (Array.map (fun x -> bit1 (Bv.reduce_and x)) xs)
           (Sl.reduce_and sx)
      && lanes_agree "reduce_or"
           (Array.map (fun x -> bit1 (Bv.reduce_or x)) xs)
           (Sl.reduce_or sx)
      && lanes_agree "reduce_xor"
           (Array.map (fun x -> bit1 (Bv.reduce_xor x)) xs)
           (Sl.reduce_xor sx))

(* The interpreter's logical connectives: both sides evaluated, X
   when either side's truth value is undecidable. *)
let ref_logical2 f a b =
  match (Bv.to_bool a, Bv.to_bool b) with
  | Some x, Some y -> bit1 (if f x y then Bit.L1 else Bit.L0)
  | _ -> bit1 Bit.X

let prop_logical =
  prop "sliced logical connectives = interpreter rules" gen_batch_pair
    (fun (xs, ys) ->
      let sx = Sl.of_lanes xs and sy = Sl.of_lanes ys in
      lanes_agree "logical_and"
        (Array.map2 (ref_logical2 ( && )) xs ys)
        (Sl.logical_and sx sy)
      && lanes_agree "logical_or"
           (Array.map2 (ref_logical2 ( || )) xs ys)
           (Sl.logical_or sx sy)
      && lanes_agree "logical_not"
           (Array.map
              (fun x ->
                match Bv.to_bool x with
                | Some b -> bit1 (if b then Bit.L0 else Bit.L1)
                | None -> bit1 Bit.X)
              xs)
           (Sl.logical_not sx)
      && lanes_agree "truth-as-masks"
           (Array.map
              (fun x ->
                bit1
                  (match Bv.to_bool x with
                   | Some true -> Bit.L1
                   | Some false -> Bit.L0
                   | None -> Bit.X))
              xs)
           (let t1, t0, tx = Sl.truth sx in
            ignore t0;
            Sl.make 1 (fun _ -> (t1 lor tx, tx))))

(* Mux with equal arm widths (the only shape the engines accept). *)
let gen_mux =
  QCheck.Gen.(
    int_range 1 70 >>= fun w ->
    int_range 1 8 >>= fun wc ->
    int_range 1 62 >>= fun k ->
    let lanes g = map Array.of_list (list_size (return k) g) in
    triple (lanes (gen_bv wc)) (lanes (gen_bv w)) (lanes (gen_bv w)))

let prop_mux =
  prop "sliced mux = interpreter ternary" gen_mux (fun (cs, xs, ys) ->
      let r = Sl.mux ~sel:(Sl.of_lanes cs) (Sl.of_lanes xs) (Sl.of_lanes ys) in
      let expected =
        Array.init (Array.length cs) (fun l ->
            match Bv.to_bool cs.(l) with
            | Some true -> xs.(l)
            | Some false -> ys.(l)
            | None -> Bv.mux ~sel:Bit.X xs.(l) ys.(l))
      in
      lanes_agree "mux" expected r)

let prop_structural =
  prop "sliced structural ops = per-lane Bv" gen_batch_pair (fun (xs, ys) ->
      let sx = Sl.of_lanes xs and sy = Sl.of_lanes ys in
      let w = Bv.width xs.(0) in
      let hi = (w - 1) / 2 and lo = 0 in
      lanes_agree "resize+4"
        (Array.map (fun x -> Bv.resize x (w + 4)) xs)
        (Sl.resize sx (w + 4))
      && lanes_agree "resize-1"
           (Array.map (fun x -> Bv.resize x (max 1 (w - 1))) xs)
           (Sl.resize sx (max 1 (w - 1)))
      && lanes_agree "select"
           (Array.map (fun x -> Bv.select x ~hi ~lo) xs)
           (Sl.select sx ~hi ~lo)
      && lanes_agree "concat"
           (Array.map2 Bv.concat xs ys)
           (Sl.concat sx sy)
      && lanes_agree "repeat"
           (Array.map (fun x -> Bv.repeat 3 x) xs)
           (Sl.repeat 3 sx))

(* Dynamic index against the interpreter's rule: undefined or
   out-of-range index reads X. *)
let prop_index =
  prop "sliced dynamic index = interpreter rule" gen_batch_pair
    (fun (xs, is) ->
      let w = Bv.width xs.(0) in
      let r = Sl.index (Sl.of_lanes xs) (Sl.of_lanes is) in
      let expected =
        Array.map2
          (fun x i ->
            match Bv.to_int i with
            | Some n when n < w -> bit1 (Bv.get x n)
            | _ -> bit1 Bit.X)
          xs is
      in
      lanes_agree "index" expected r)

let prop_merge =
  prop "merge picks lanes by mask" gen_batch_pair (fun (xs, ys) ->
      let k = min (Array.length xs) (Array.length ys) in
      let xs = Array.sub xs 0 k and ys = Array.sub ys 0 k in
      let wa = Bv.width xs.(0) and wb = Bv.width ys.(0) in
      let w = max wa wb in
      let mask = 0b1011 land ((1 lsl k) - 1) in
      let r = Sl.merge ~mask (Sl.of_lanes xs) (Sl.of_lanes ys) in
      let expected =
        Array.init k (fun l ->
            Bv.resize (if (mask lsr l) land 1 = 1 then xs.(l) else ys.(l)) w)
      in
      lanes_agree "merge" expected r)

(* ------------------------------------------------------------------ *)
(* Batched engine vs one scalar simulator per lane                    *)
(* ------------------------------------------------------------------ *)

let control_inputs =
  [
    ("i_hit", 1); ("d_hit", 1); ("instr", 3); ("inbox_rdy", 1);
    ("outbox_rdy", 1); ("mem_adv", 1); ("dirty", 1); ("same_line", 1);
  ]

let lcg seed =
  let s = ref seed in
  fun n ->
    s := ((!s * 25214903917) + 11) land 0xFFFFFFFFFFFF;
    !s lsr 20 mod n

let nets_agree_lane d sliced ~lane scalar ~cycle =
  Array.iter
    (fun (net : Elab.enet) ->
      let b = Sliced.get_lane sliced ~lane net.Elab.id in
      let s = Sim.get_id scalar net.Elab.id in
      if not (Bv.equal b s) then
        Alcotest.failf "cycle %d lane %d: %s = %s but scalar has %s" cycle
          lane net.Elab.name (Bv.to_string b) (Bv.to_string s))
    d.Elab.nets

(* One lane is the degenerate word; five exercise the lane masks. *)
let engine_differential ~lanes =
  let d = Avp_pp.Control_hdl.elaborate () in
  let sliced =
    match Sliced.create ~lanes d with
    | Some s -> s
    | None -> Alcotest.fail "sliced engine rejected the control design"
  in
  let scalars =
    Array.init lanes (fun _ -> Sim.create ~engine:`Compiled d)
  in
  let rand = lcg 424242 in
  let id n = Elab.net_id d n in
  let clk = id "clk" in
  (* Reset all lanes. *)
  Sliced.set_id sliced (id "rst") (Bv.of_int ~width:1 1);
  Array.iter (fun s -> Sim.set s "rst" (Bv.of_int ~width:1 1)) scalars;
  Sliced.step sliced clk;
  Array.iter (fun s -> Sim.step s "clk") scalars;
  Sliced.set_id sliced (id "rst") (Bv.of_int ~width:1 0);
  Array.iter (fun s -> Sim.set s "rst" (Bv.of_int ~width:1 0)) scalars;
  for cycle = 1 to 150 do
    (* Fresh random inputs per lane. *)
    List.iter
      (fun (n, w) ->
        for l = 0 to lanes - 1 do
          let v = Bv.of_int ~width:w (rand (1 lsl w)) in
          Sliced.poke_id ~mask:(1 lsl l) sliced (id n) v;
          Sim.set scalars.(l) n v
        done)
      control_inputs;
    Sliced.settle sliced;
    (* Occasionally pin / unpin one lane's input mid-run. *)
    if cycle mod 23 = 0 then begin
      let l = rand lanes in
      Sliced.force_id ~mask:(1 lsl l) sliced (id "d_hit")
        (Bv.of_int ~width:1 0);
      Sim.force scalars.(l) "d_hit" (Bv.of_int ~width:1 0)
    end;
    if cycle mod 23 = 11 then begin
      let l = rand lanes in
      Sliced.release_id ~mask:(1 lsl l) sliced (id "d_hit");
      Sim.release scalars.(l) "d_hit"
    end;
    Sliced.step sliced clk;
    Array.iter (fun s -> Sim.step s "clk") scalars;
    for l = 0 to lanes - 1 do
      nets_agree_lane d sliced ~lane:l scalars.(l) ~cycle
    done
  done

let test_engine_differential () =
  List.iter (fun lanes -> engine_differential ~lanes) [ 1; 5 ]

(* ------------------------------------------------------------------ *)
(* Mutant schemata vs one scalar simulator per mutant                 *)
(* ------------------------------------------------------------------ *)

let test_schemata_differential () =
  let base = Avp_pp.Control_hdl.elaborate () in
  let design = Avp_pp.Control_hdl.parse () in
  let muts =
    Avp_mutate.Gen.all design
    |> List.filter_map (fun (m : Avp_mutate.Gen.mutant) ->
        match Avp_mutate.Filter.vet m.Avp_mutate.Gen.design with
        | `Ok dut -> Some dut
        | `Stillborn _ | `Static _ -> None)
    |> Array.of_list
  in
  let muts =
    Array.sub muts 0 (min (Array.length muts) Sl.lanes_limit)
  in
  Alcotest.(check bool) "have mutants to schedule" true (Array.length muts > 0);
  let sliced, scheduled =
    match Sliced.create_schemata ~base muts with
    | Some r -> r
    | None -> Alcotest.fail "schemata kernel rejected the control design"
  in
  let n_sched = Array.fold_left (fun a b -> if b then a + 1 else a) 0 scheduled in
  if n_sched < Array.length muts then
    Alcotest.failf "only %d of %d mutants schedulable" n_sched
      (Array.length muts);
  let scalars =
    Array.map (fun md -> Sim.create ~engine:`Compiled md) muts
  in
  let rand = lcg 777 in
  let id n = Elab.net_id base n in
  let clk = id "clk" in
  let both_set n v =
    Sliced.set_id sliced (id n) v;
    Array.iter (fun s -> Sim.set s n v) scalars
  in
  both_set "rst" (Bv.of_int ~width:1 1);
  Sliced.step sliced clk;
  Array.iter (fun s -> Sim.step s "clk") scalars;
  both_set "rst" (Bv.of_int ~width:1 0);
  for cycle = 1 to 60 do
    (* Identical stimulus for every lane, as the kill campaign does. *)
    List.iter
      (fun (n, w) -> both_set n (Bv.of_int ~width:w (rand (1 lsl w))))
      control_inputs;
    Sliced.step sliced clk;
    Array.iter (fun s -> Sim.step s "clk") scalars;
    Array.iteri
      (fun l scalar ->
        if scheduled.(l) then
          nets_agree_lane base sliced ~lane:l scalar ~cycle)
      scalars
  done

(* ------------------------------------------------------------------ *)
(* Batched trace replay vs the sequential scalar replay               *)
(* ------------------------------------------------------------------ *)

type replay_outcome =
  | R_ok of int * int  (* traces, cycles *)
  | R_mismatch of string
  | R_exn of string

let outcome f =
  match f () with
  | Ok (s : Avp_vectors.Replay.stats) ->
    R_ok (s.Avp_vectors.Replay.traces, s.Avp_vectors.Replay.cycles)
  | Error m ->
    R_mismatch (Format.asprintf "%a" Avp_vectors.Replay.pp_mismatch m)
  | exception Avp_fsm.Translate.Unsupported msg -> R_exn msg

let pp_outcome = function
  | R_ok (t, c) -> Printf.sprintf "ok traces=%d cycles=%d" t c
  | R_mismatch m -> "mismatch: " ^ m
  | R_exn m -> "exn: " ^ m

let test_check_batch () =
  let tr = Avp_pp.Control_hdl.translate () in
  let graph = Avp_enum.State_graph.enumerate tr.Avp_fsm.Translate.model in
  let tours = Avp_tour.Tour_gen.generate graph in
  let vectors = Avp_vectors.Replay.vectors tr tours in
  let agree name scalar batched =
    if scalar <> batched then
      Alcotest.failf "%s: scalar %s but batched %s" name (pp_outcome scalar)
        (pp_outcome batched)
  in
  (* Pristine design: both pass with identical stats, at several lane
     counts. *)
  let scalar =
    outcome (fun () -> Avp_vectors.Replay.check ~vectors tr graph tours)
  in
  List.iter
    (fun lanes ->
      agree
        (Printf.sprintf "pristine lanes=%d" lanes)
        scalar
        (outcome (fun () ->
             Avp_vectors.Replay.check_batch ~lanes ~vectors tr graph tours)))
    [ 1; 7; 62 ];
  (* Mutant duts: killed, escaped and X-escaping mutants must report
     byte-identical outcomes (same mismatch, same exception). *)
  let design = Avp_pp.Control_hdl.parse () in
  let muts =
    Avp_mutate.Gen.all design
    |> List.filter_map (fun (m : Avp_mutate.Gen.mutant) ->
        match Avp_mutate.Filter.vet m.Avp_mutate.Gen.design with
        | `Ok dut -> Some (m.Avp_mutate.Gen.id, dut)
        | `Stillborn _ | `Static _ -> None)
  in
  let muts = List.filteri (fun i _ -> i < 25) muts in
  List.iter
    (fun (mid, dut) ->
      agree
        (Printf.sprintf "mutant %d" mid)
        (outcome (fun () ->
             Avp_vectors.Replay.check ~dut ~vectors tr graph tours))
        (outcome (fun () ->
             Avp_vectors.Replay.check_batch ~dut ~vectors tr graph tours)))
    muts;
  (* The condition map only emits [Force]: hand-built stimulus reaches
     the lane driver's [Release] branch.  Prefixes of unequal length
     of the tour share one chunk.  Trace 1 forces its choice nets to
     the opposite values and releases them in the same cycle: the
     sequential order leaves an undriven net at the released force's
     value, which decides the next state.  Trace 0 releases a net no
     vector ever forces, and a choice net right after the map's own
     force of it. *)
  let open Avp_vectors in
  let sub =
    Array.map
      (fun len -> Array.sub tours.Avp_tour.Tour_gen.traces.(0) 0 len)
      [| 5; 17; 3; 40; 9 |]
  in
  let tours = Avp_tour.Tour_gen.of_traces sub in
  let vectors = Replay.vectors tr tours in
  let append ti c extra =
    let v = vectors.(ti) in
    v.(c) <- { Vector.actions = v.(c).Vector.actions @ extra }
  in
  let forces ti c =
    List.filter_map
      (function Vector.Force (n, v) -> Some (n, v) | Vector.Release _ -> None)
      vectors.(ti).(c).Vector.actions
  in
  append 1 1
    (List.concat_map
       (fun (n, v) -> [ Vector.Force (n, Bv.lognot v); Vector.Release n ])
       (forces 1 1));
  append 0 1 [ Vector.Release (Replay.state_nets tr).(0) ];
  append 0 2 [ Vector.Release (fst (List.hd (forces 0 2))) ];
  let scalar = outcome (fun () -> Replay.check ~vectors tr graph tours) in
  (match scalar with
   | R_mismatch m when String.starts_with ~prefix:"trace 1 cycle 1:" m -> ()
   | o -> Alcotest.failf "released forces did not decide: %s" (pp_outcome o));
  List.iter
    (fun lanes ->
      agree
        (Printf.sprintf "release stimulus lanes=%d" lanes)
        scalar
        (outcome (fun () -> Replay.check_batch ~lanes ~vectors tr graph tours)))
    [ 1; 3; 62 ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bitwise;
    QCheck_alcotest.to_alcotest prop_relational;
    QCheck_alcotest.to_alcotest prop_unary;
    QCheck_alcotest.to_alcotest prop_logical;
    QCheck_alcotest.to_alcotest prop_mux;
    QCheck_alcotest.to_alcotest prop_structural;
    QCheck_alcotest.to_alcotest prop_index;
    QCheck_alcotest.to_alcotest prop_merge;
    Alcotest.test_case "control design: sliced vs per-lane compiled" `Quick
      test_engine_differential;
    Alcotest.test_case "mutant schemata: each lane tracks its mutant" `Quick
      test_schemata_differential;
    Alcotest.test_case "batched trace replay = sequential replay" `Quick
      test_check_batch;
  ]
