(* Syntactic "this driver can release the bus": the expression can
   evaluate to all-z on some input.  A tri-state driver is written
   [en ? data : 'bz]; a net whose every continuous driver has this
   shape is a deliberate tri-state bus, not a conflict. *)
let rec can_float (e : Elab.eexpr) =
  match e with
  | Elab.Const v ->
    let s = Avp_logic.Bv.to_string v in
    s <> "" && String.for_all (fun c -> c = 'z') s
  | Elab.Ternary (_, a, b) -> can_float a || can_float b
  | Elab.Concat es -> es <> [] && List.for_all can_float es
  | Elab.Repeat (_, e) -> can_float e
  | _ -> false

(* Per-net facts gathered over the design. *)
type facts = {
  mutable assign_drivers : int;
  mutable hard_assign_drivers : int;
      (* continuous drivers that can never release the bus *)
  mutable comb_writes : int;
  mutable seq_writes : int;
  mutable blocking_writes : int;
  mutable nonblocking_writes : int;
  mutable reads : int;
  mutable is_edge_trigger : bool;  (* appears in a sensitivity list *)
}

let fresh () =
  {
    assign_drivers = 0;
    hard_assign_drivers = 0;
    comb_writes = 0;
    seq_writes = 0;
    blocking_writes = 0;
    nonblocking_writes = 0;
    reads = 0;
    is_edge_trigger = false;
  }

let rec stmt_assign_kinds (s : Elab.estmt) ~on_blocking ~on_nonblocking =
  match s with
  | Elab.Block ss ->
    List.iter (stmt_assign_kinds ~on_blocking ~on_nonblocking) ss
  | Elab.Blocking (lv, _) -> List.iter on_blocking (Elab.lv_nets lv)
  | Elab.Nonblocking (lv, _) -> List.iter on_nonblocking (Elab.lv_nets lv)
  | Elab.If (_, t, e) ->
    stmt_assign_kinds t ~on_blocking ~on_nonblocking;
    Option.iter (stmt_assign_kinds ~on_blocking ~on_nonblocking) e
  | Elab.Case (_, items, dflt) ->
    List.iter
      (fun (_, body) -> stmt_assign_kinds body ~on_blocking ~on_nonblocking)
      items;
    Option.iter (stmt_assign_kinds ~on_blocking ~on_nonblocking) dflt
  | Elab.Nop -> ()

let check (d : Elab.t) : Finding.t list =
  let n = Array.length d.Elab.nets in
  let facts = Array.init n (fun _ -> fresh ()) in
  Array.iter
    (fun p ->
      (match p with
       | Elab.Assign (lv, e) ->
         let hard = if can_float e then 0 else 1 in
         List.iter
           (fun id ->
             facts.(id).assign_drivers <- facts.(id).assign_drivers + 1;
             facts.(id).hard_assign_drivers <-
               facts.(id).hard_assign_drivers + hard)
           (Elab.lv_nets lv)
       | Elab.Comb body ->
         List.iter
           (fun id -> facts.(id).comb_writes <- facts.(id).comb_writes + 1)
           (Elab.stmt_writes body)
       | Elab.Seq (edges, body) ->
         List.iter
           (fun (_, id) -> facts.(id).is_edge_trigger <- true)
           edges;
         List.iter
           (fun id -> facts.(id).seq_writes <- facts.(id).seq_writes + 1)
           (Elab.stmt_writes body));
      (match p with
       | Elab.Comb body | Elab.Seq (_, body) ->
         stmt_assign_kinds body
           ~on_blocking:(fun id ->
             facts.(id).blocking_writes <- facts.(id).blocking_writes + 1)
           ~on_nonblocking:(fun id ->
             facts.(id).nonblocking_writes <-
               facts.(id).nonblocking_writes + 1)
       | Elab.Assign _ -> ());
      let reads =
        match p with
        | Elab.Assign (lv, e) ->
          Elab.expr_nets e
          @ (let rec idx acc = function
               | Elab.Lnet _ | Elab.Lrange _ -> acc
               | Elab.Lindex (_, e) -> Elab.expr_nets e @ acc
               | Elab.Lconcat ls -> List.fold_left idx acc ls
             in
             idx [] lv)
        | Elab.Comb body | Elab.Seq (_, body) -> Elab.stmt_reads body
      in
      List.iter (fun id -> facts.(id).reads <- facts.(id).reads + 1) reads)
    d.Elab.processes;
  let out = ref [] in
  Array.iteri
    (fun id f ->
      let add severity rule net message =
        out :=
          Finding.make ~net_id:id ~net ~loc:(Elab.net_loc d id) severity rule
            message
          :: !out
      in
      let net = d.Elab.nets.(id) in
      let name = net.Elab.name in
      let is_input = d.Elab.top_inputs.(id) in
      let written =
        f.assign_drivers + f.comb_writes + f.seq_writes > 0 || is_input
      in
      if f.assign_drivers > 0 && f.comb_writes + f.seq_writes > 0 then
        add Finding.Error "multiple-drivers" name
          "driven by both a continuous assignment and a process"
      else if f.assign_drivers > 1 && f.hard_assign_drivers > 0 then
        (* All-tri-state driver sets are a deliberate bus and stay
           silent; one driver that can never release makes the bus
           contended. *)
        add Finding.Warning "multiple-drivers" name
          (Printf.sprintf
             "%d continuous drivers and %d can never release the bus"
             f.assign_drivers f.hard_assign_drivers);
      if f.seq_writes > 0 && f.comb_writes > 0 then
        add Finding.Error "seq-and-comb" name
          "written by both sequential and combinational processes";
      if f.blocking_writes > 0 && f.nonblocking_writes > 0 then
        add Finding.Error "mixed-assignment" name
          "written by both blocking and nonblocking assignments";
      (match net.Elab.kind with
       | Ast.Reg when not written && not f.is_edge_trigger ->
         if f.reads > 0 then
           add Finding.Error "reg-never-written" name
             "register is read but never assigned"
         else add Finding.Warning "unused-net" name "declared but never used"
       | Ast.Wire
         when (not is_input) && f.assign_drivers = 0 && f.reads > 0
              && (not f.is_edge_trigger)
              && f.comb_writes + f.seq_writes = 0 ->
         add Finding.Warning "wire-never-driven" name
           "read but never driven (will float at z)"
       | Ast.Reg | Ast.Wire ->
         if (not written) && f.reads = 0 && not f.is_edge_trigger then
           add Finding.Warning "unused-net" name "declared but never used"))
    facts;
  Finding.sort !out
