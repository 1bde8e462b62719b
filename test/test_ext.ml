(* Tests for the extension modules: assembler, VCD, lints, product
   comparison, UIO sequences, squashing branches. *)

open Avp_pp
open Avp_hdl
open Avp_fsm
open Avp_tour

let contains_sub text needle =
  let tl = String.length text and nl = String.length needle in
  let rec loop i =
    if i + nl > tl then false
    else if String.sub text i nl = needle then true
    else loop (i + 1)
  in
  nl = 0 || loop 0

(* ---------------------------------------------------------------- *)
(* Assembler                                                        *)
(* ---------------------------------------------------------------- *)

let test_asm_basic () =
  let program =
    Asm.assemble
      {|
        ; countdown loop
        addi r1, r0, 3
      loop:
        subi r1, r1, 1
        bne  r1, r0, loop
        send r1
        halt
      |}
  in
  Alcotest.(check int) "five instructions" 5 (Array.length program);
  (match program.(2) with
   | Isa.Bne (1, 0, -2) -> ()
   | i -> Alcotest.failf "bad branch: %a" Isa.pp i);
  let s = Spec.create ~program ~inbox:[] () in
  Spec.run s;
  Alcotest.(check (list int)) "loop ran to zero" [ 0 ] (Spec.outbox s)

let test_asm_memory_operands () =
  let program = Asm.assemble "lw r2, 8(r3)\nsw r4, 12\nhalt" in
  Alcotest.(check bool) "lw" true (Isa.equal program.(0) (Isa.Lw (2, 3, 8)));
  Alcotest.(check bool) "sw implicit base" true
    (Isa.equal program.(1) (Isa.Sw (4, 0, 12)))

let test_asm_errors () =
  let expect_err src =
    match Asm.assemble src with
    | exception Asm.Error _ -> ()
    | _ -> Alcotest.failf "expected error for %S" src
  in
  expect_err "frobnicate r1";
  expect_err "add r1, r2";
  expect_err "lw r99, 0";
  expect_err "beq r1, r2, nowhere";
  expect_err "dup: nop\ndup: nop"

let test_asm_roundtrip () =
  let program =
    Asm.assemble
      {|
        addi r1, r0, 7
      top:
        lw r2, 4(r1)
        beq r2, r0, out
        sw r2, 8(r0)
        bne r1, r0, top
      out:
        switch r3
        halt
      |}
  in
  let program' = Asm.assemble (Asm.disassemble program) in
  Alcotest.(check int) "same length" (Array.length program)
    (Array.length program');
  Array.iteri
    (fun i instr ->
      if not (Isa.equal instr program'.(i)) then
        Alcotest.failf "instr %d: %a vs %a" i Isa.pp instr Isa.pp program'.(i))
    program

(* ---------------------------------------------------------------- *)
(* VCD                                                              *)
(* ---------------------------------------------------------------- *)

let counter_src =
  {|
module counter (clk, rst, en, count);
  input clk, rst, en;
  output [3:0] count;
  reg [3:0] count;
  always @(posedge clk) begin
    if (rst) count <= 4'b0000;
    else if (en) count <= count + 4'b0001;
  end
endmodule
|}

let test_vcd_output () =
  let open Avp_logic in
  let sim = Sim.create (Elab.elaborate (Parser.parse counter_src)) in
  let vcd = Vcd.create sim ~nets:[ "count"; "en" ] in
  Sim.set sim "rst" (Bv.of_int ~width:1 1);
  Sim.step sim "clk";
  Vcd.sample vcd;
  Sim.set sim "rst" (Bv.of_int ~width:1 0);
  Sim.set sim "en" (Bv.of_int ~width:1 1);
  for _ = 1 to 3 do
    Sim.step sim "clk";
    Vcd.sample vcd
  done;
  let out = Vcd.serialize ~top:"counter" vcd in
  Alcotest.(check bool) "has definitions" true
    (contains_sub out "$enddefinitions");
  Alcotest.(check bool) "declares count" true
    (contains_sub out "$var wire 4");
  Alcotest.(check bool) "has timestamps" true (contains_sub out "#0");
  Alcotest.(check bool) "has vector values" true (contains_sub out "b0011")

let test_vcd_unknown_net () =
  let sim = Sim.create (Elab.elaborate (Parser.parse counter_src)) in
  match Vcd.create sim ~nets:[ "missing" ] with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

(* ---------------------------------------------------------------- *)
(* Lints                                                            *)
(* ---------------------------------------------------------------- *)

let lint_findings src =
  List.map
    (fun (f : Finding.t) -> (f.Finding.rule, f.Finding.net))
    (Lint.check (Elab.elaborate (Parser.parse src)))

let test_lint_clean_design () =
  Alcotest.(check (list (pair string (option string))))
    "counter is clean" []
    (lint_findings counter_src)

let test_lint_multiple_drivers () =
  let src =
    {|
module m (a, b, y);
  input a, b;
  output y;
  assign y = a;
  assign y = b;
endmodule
|}
  in
  match lint_findings src with
  | [ ("multiple-drivers", Some "y") ] -> ()
  | fs -> Alcotest.failf "unexpected findings (%d)" (List.length fs)

let test_lint_assign_and_process () =
  let src =
    {|
module m (clk, a, y);
  input clk, a;
  output y;
  reg y;
  assign y = a;
  always @(posedge clk) y <= a;
endmodule
|}
  in
  Alcotest.(check bool) "error reported" true
    (List.exists
       (fun (r, n) -> r = "multiple-drivers" && n = Some "y")
       (lint_findings src))

let test_lint_mixed_assignment () =
  let src =
    {|
module m (clk, a, y);
  input clk, a;
  output y;
  reg y;
  always @(posedge clk) begin
    y = a;
    y <= a;
  end
endmodule
|}
  in
  Alcotest.(check bool) "mixed assignment" true
    (List.mem ("mixed-assignment", Some "y") (lint_findings src))

let test_lint_undriven_wire () =
  let src =
    {|
module m (y);
  output y;
  wire ghost;
  assign y = ghost;
endmodule
|}
  in
  Alcotest.(check bool) "undriven wire" true
    (List.mem ("wire-never-driven", Some "ghost") (lint_findings src))

let test_lint_unused_reg () =
  let src =
    {|
module m (a, y);
  input a;
  output y;
  reg dead;
  assign y = a;
endmodule
|}
  in
  Alcotest.(check bool) "unused net" true
    (List.mem ("unused-net", Some "dead") (lint_findings src))

(* ---------------------------------------------------------------- *)
(* Product comparison                                               *)
(* ---------------------------------------------------------------- *)

let two_state_model name ~merge_c =
  (* A->B on a; A->C on c unless [merge_c], which erroneously sends c
     to B as well (the Figure 4.2 bug). *)
  Model.create ~name
    ~state_vars:[ Model.var "s" [| "A"; "B"; "C" |] ]
    ~choice_vars:[ Model.var "in" [| "a"; "b"; "c" |] ]
    ~reset:[ 0 ]
    ~next:(fun st ch ->
      match st.(0), ch.(0) with
      | 0, 0 -> [| 1 |]
      | 0, 2 -> [| (if merge_c then 1 else 2) |]
      | (1 | 2), 1 -> [| 0 |]
      | s, _ -> [| s |])
    ()

let test_product_detects_merged_transition () =
  let spec = two_state_model "spec" ~merge_c:false in
  let impl = two_state_model "impl" ~merge_c:true in
  let obs st = st.(0) in
  match Product.compare ~impl ~spec ~impl_obs:obs ~spec_obs:obs () with
  | None -> Alcotest.fail "expected a divergence"
  | Some d ->
    Alcotest.(check int) "witness length" 1 (List.length d.Product.witness);
    (match d.Product.witness with
     | [ c ] -> Alcotest.(check int) "witness input is c" 2 c.(0)
     | _ -> Alcotest.fail "bad witness")

let test_product_equal_models_agree () =
  let spec = two_state_model "spec" ~merge_c:false in
  let impl = two_state_model "impl2" ~merge_c:false in
  let obs st = st.(0) in
  Alcotest.(check bool) "no divergence" true
    (Product.compare ~impl ~spec ~impl_obs:obs ~spec_obs:obs () = None)

let test_product_choice_mismatch () =
  let spec = two_state_model "spec" ~merge_c:false in
  let impl =
    Model.create ~name:"impl"
      ~state_vars:[ Model.bool_var "s" ]
      ~choice_vars:[ Model.bool_var "other" ]
      ~reset:[ 0 ]
      ~next:(fun st _ -> st)
      ()
  in
  match
    Product.compare ~impl ~spec ~impl_obs:(fun _ -> 0)
      ~spec_obs:(fun _ -> 0) ()
  with
  | exception Product.Choice_mismatch _ -> ()
  | _ -> Alcotest.fail "expected Choice_mismatch"

(* The tour-based check misses the Figure 4.2 bug; the product
   enumeration catches it statically. *)
let test_product_beats_first_condition_tour () =
  let open Avp_harness in
  let tour_outcome = Fsm_demo.figure_4_2 ~all_conditions:false in
  Alcotest.(check bool) "tour misses" false tour_outcome.Fsm_demo.detected;
  let spec = two_state_model "spec" ~merge_c:false in
  let impl = two_state_model "impl" ~merge_c:true in
  let obs st = st.(0) in
  Alcotest.(check bool) "product catches" true
    (Product.compare ~impl ~spec ~impl_obs:obs ~spec_obs:obs () <> None)

(* ---------------------------------------------------------------- *)
(* UIO sequences                                                    *)
(* ---------------------------------------------------------------- *)

(* Three-state Mealy machine: a ring advanced by input 0, with
   distinct outputs on input 1 only in state 2. *)
let ring_mealy =
  {
    Uio.Mealy.states = 3;
    inputs = 2;
    next = (fun s i -> if i = 0 then (s + 1) mod 3 else s);
    output = (fun s i -> if i = 1 && s = 2 then 1 else 0);
  }

let test_uio_found () =
  Array.iteri
    (fun s uio ->
      match uio with
      | Some word ->
        Alcotest.(check bool)
          (Printf.sprintf "state %d word valid" s)
          true
          (Uio.is_uio ring_mealy ~state:s word)
      | None -> Alcotest.failf "no UIO for state %d" s)
    (Uio.all_uios ring_mealy ~max_len:6)

let test_uio_shortest () =
  (* State 2 answers input 1 uniquely: its UIO is the single input 1. *)
  match Uio.uio ring_mealy ~state:2 ~max_len:6 with
  | Some [ 1 ] -> ()
  | Some w ->
    Alcotest.failf "expected [1], got length %d" (List.length w)
  | None -> Alcotest.fail "no UIO"

let test_uio_none_for_equivalent_states () =
  (* Two equivalent states can have no UIO. *)
  let m =
    {
      Uio.Mealy.states = 2;
      inputs = 1;
      next = (fun s _ -> s);
      output = (fun _ _ -> 0);
    }
  in
  Alcotest.(check bool) "no UIO exists" true
    (Uio.uio m ~state:0 ~max_len:8 = None)

let prop_uio_definition =
  QCheck.Test.make ~name:"computed UIOs satisfy the definition" ~count:40
    (QCheck.make QCheck.Gen.(pair (int_range 2 5) (int_bound 999)))
    (fun (k, seed) ->
      let rng = Random.State.make [| seed |] in
      let nexts =
        Array.init k (fun _ -> Array.init 2 (fun _ -> Random.State.int rng k))
      in
      let outs =
        Array.init k (fun _ -> Array.init 2 (fun _ -> Random.State.int rng 2))
      in
      let m =
        {
          Uio.Mealy.states = k;
          inputs = 2;
          next = (fun s i -> nexts.(s).(i));
          output = (fun s i -> outs.(s).(i));
        }
      in
      Array.for_all
        (fun (s, w) ->
          match w with
          | None -> true
          | Some word -> Uio.is_uio m ~state:s word)
        (Array.mapi (fun s w -> (s, w)) (Uio.all_uios m ~max_len:5)))

(* ---------------------------------------------------------------- *)
(* Squashing branches                                               *)
(* ---------------------------------------------------------------- *)

let test_branch_extension_grows_model () =
  let open Avp_enum in
  let base = Control_model.default in
  let with_br = { base with Control_model.with_branches = true } in
  let g0 = State_graph.enumerate (Control_model.model base) in
  let g1 = State_graph.enumerate (Control_model.model with_br) in
  Alcotest.(check bool) "branches add states" true
    (State_graph.num_states g1 > State_graph.num_states g0);
  match Model.validate (Control_model.model with_br) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_branch_squash () =
  let cfg = { Control_model.default with Control_model.with_branches = true } in
  let m = Control_model.model cfg in
  (* Find a state with BR at the head by stepping from reset. *)
  let var_index name =
    let idx = ref (-1) in
    Array.iteri
      (fun i (v : Model.var) -> if v.Model.name = name then idx := i)
      m.Model.choice_vars;
    !idx
  in
  let ix_instr = var_index "instr" in
  let ix_ihit = var_index "i_hit" in
  let ix_taken = var_index "br_taken" in
  let ix_gap = var_index "fetch_gap" in
  let choose ~instr ~taken =
    let c = Array.make (Array.length m.Model.choice_vars) 0 in
    (* default binary choices to "benign": hit, ready, advance *)
    Array.iteri
      (fun i (v : Model.var) ->
        if i <> ix_instr && Model.card v = 2 then c.(i) <- 1)
      m.Model.choice_vars;
    c.(ix_instr) <- instr;
    c.(ix_ihit) <- 1;
    if ix_gap >= 0 then c.(ix_gap) <- 0;  (* fetch must deliver *)
    c.(ix_taken) <- taken;
    c
  in
  (* Feed BR (class index 5 in the instr choice) until it reaches the
     head, then take it with taken=1: the pipe must be squashed to
     bubbles+new fetch. *)
  let st = ref m.Model.reset in
  for _ = 1 to 4 do
    st := m.Model.next !st (choose ~instr:5 ~taken:0)
  done;
  let head_ix =
    (* pipe0 position: after boot,ifsm,dfsm,spill,store,conflict *)
    6
  in
  Alcotest.(check int) "BR at head" 6 !st.(head_ix);
  let after = m.Model.next !st (choose ~instr:0 ~taken:1) in
  Alcotest.(check int) "follower squashed to bubble" 0 after.(head_ix + 0)

let suite =
  [
    Alcotest.test_case "asm basic" `Quick test_asm_basic;
    Alcotest.test_case "asm memory operands" `Quick test_asm_memory_operands;
    Alcotest.test_case "asm errors" `Quick test_asm_errors;
    Alcotest.test_case "asm roundtrip" `Quick test_asm_roundtrip;
    Alcotest.test_case "vcd output" `Quick test_vcd_output;
    Alcotest.test_case "vcd unknown net" `Quick test_vcd_unknown_net;
    Alcotest.test_case "lint clean design" `Quick test_lint_clean_design;
    Alcotest.test_case "lint multiple drivers" `Quick
      test_lint_multiple_drivers;
    Alcotest.test_case "lint assign and process" `Quick
      test_lint_assign_and_process;
    Alcotest.test_case "lint mixed assignment" `Quick
      test_lint_mixed_assignment;
    Alcotest.test_case "lint undriven wire" `Quick test_lint_undriven_wire;
    Alcotest.test_case "lint unused reg" `Quick test_lint_unused_reg;
    Alcotest.test_case "product detects merged transition" `Quick
      test_product_detects_merged_transition;
    Alcotest.test_case "product equal models" `Quick
      test_product_equal_models_agree;
    Alcotest.test_case "product choice mismatch" `Quick
      test_product_choice_mismatch;
    Alcotest.test_case "product beats first-condition tour" `Quick
      test_product_beats_first_condition_tour;
    Alcotest.test_case "uio found" `Quick test_uio_found;
    Alcotest.test_case "uio shortest" `Quick test_uio_shortest;
    Alcotest.test_case "uio none for equivalent states" `Quick
      test_uio_none_for_equivalent_states;
    QCheck_alcotest.to_alcotest prop_uio_definition;
    Alcotest.test_case "branch extension grows model" `Slow
      test_branch_extension_grows_model;
    Alcotest.test_case "branch squash" `Quick test_branch_squash;
  ]

(* ---------------------------------------------------------------- *)
(* Product comparison at PP-control scale: a buggy variant of the
   real translated HDL against the correct one.                     *)
(* ---------------------------------------------------------------- *)

let test_product_on_translated_pp_control () =
  let spec = (Control_hdl.translate ()).Translate.model in
  (* The buggy implementation drops the same_line qualification from
     the conflict detector: loads behind a pending store conflict even
     when they target a different line. *)
  let buggy_src =
    let needle =
      "assign conflicts = is_mem & store_pend & ((head == CLS_SD) | \
       same_line);"
    in
    let replacement = "assign conflicts = is_mem & store_pend;" in
    let src = Control_hdl.source in
    let rec subst i =
      if i + String.length needle > String.length src then
        Alcotest.fail "needle not found in control source"
      else if String.sub src i (String.length needle) = needle then
        String.sub src 0 i ^ replacement
        ^ String.sub src
            (i + String.length needle)
            (String.length src - i - String.length needle)
      else subst (i + 1)
    in
    subst 0
  in
  let impl =
    (Translate.translate (Elab.elaborate (Parser.parse buggy_src)))
      .Translate.model
  in
  (* Observe the conflict FSM bit (same state-variable order in both
     models: the net declarations are identical). *)
  let conflict_ix =
    let ix = ref (-1) in
    Array.iteri
      (fun i (v : Model.var) -> if v.Model.name = "conflict" then ix := i)
      spec.Model.state_vars;
    !ix
  in
  Alcotest.(check bool) "conflict var found" true (conflict_ix >= 0);
  let obs st = st.(conflict_ix) in
  match Product.compare ~impl ~spec ~impl_obs:obs ~spec_obs:obs () with
  | None -> Alcotest.fail "expected the dropped qualification to diverge"
  | Some d ->
    (* Replay the witness on both models and confirm the divergence. *)
    let replay (m : Model.t) =
      List.fold_left (fun st c -> m.Model.next st c) m.Model.reset
        d.Product.witness
    in
    let si = replay impl and ss = replay spec in
    Alcotest.(check bool) "witness reproduces divergence" true
      (obs si <> obs ss)

let suite =
  suite
  @ [
      Alcotest.test_case "product on translated pp control" `Slow
        test_product_on_translated_pp_control;
    ]
