(* Reusable dataflow scaffolding over the elaborated netlist: per-
   process def/use extraction, a net-level combinational dependency
   graph with Tarjan SCC, and a path-sensitive walker over
   [Elab.estmt] trees.  Every pass in this library is a client. *)

open Avp_hdl

type proc_kind = Kassign | Kcomb | Kseq

type proc_info = {
  index : int;
  kind : proc_kind;
  loc : Ast.loc;
  reads : int list;  (* nets read: rhs, lvalue indices, conditions *)
  writes : int list;  (* nets written anywhere in the process *)
}

let proc_reads (p : Elab.process) =
  match p with
  | Elab.Assign (lv, e) ->
    let rec lv_idx acc = function
      | Elab.Lnet _ | Elab.Lrange _ -> acc
      | Elab.Lindex (_, e) -> Elab.expr_nets e @ acc
      | Elab.Lconcat ls -> List.fold_left lv_idx acc ls
    in
    Elab.expr_nets e @ lv_idx [] lv
  | Elab.Comb s | Elab.Seq (_, s) -> Elab.stmt_reads s

let proc_writes (p : Elab.process) =
  match p with
  | Elab.Assign (lv, _) -> Elab.lv_nets lv
  | Elab.Comb s | Elab.Seq (_, s) -> Elab.stmt_writes s

let proc_infos (d : Elab.t) : proc_info array =
  Array.mapi
    (fun i p ->
      {
        index = i;
        kind =
          (match p with
           | Elab.Assign _ -> Kassign
           | Elab.Comb _ -> Kcomb
           | Elab.Seq _ -> Kseq);
        loc = d.Elab.process_locs.(i);
        reads = proc_reads p;
        writes = proc_writes p;
      })
    d.Elab.processes

(* ------------------------------------------------------------------ *)
(* Combinational dependency graph                                     *)
(* ------------------------------------------------------------------ *)

(* succs.(src) = [(dst, process index); ...]: a combinational process
   (continuous assignment or combinational always) reads [src] and writes
   [dst], so a change on [src] propagates to [dst] within the same
   cycle.  Sequential processes deliberately contribute no edges: a
   clocked register breaks the combinational path. *)
type graph = { n : int; succs : (int * int) list array }

let comb_graph ?(infos : proc_info array option) (d : Elab.t) : graph =
  let infos =
    match infos with Some i -> i | None -> proc_infos d
  in
  let n = Array.length d.Elab.nets in
  let succs = Array.make n [] in
  Array.iter
    (fun pi ->
      match pi.kind with
      | Kseq -> ()
      | Kassign | Kcomb ->
        List.iter
          (fun src ->
            List.iter
              (fun dst -> succs.(src) <- (dst, pi.index) :: succs.(src))
              pi.writes)
          pi.reads)
    infos;
  Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
  { n; succs }

(* Tarjan's strongly-connected components, iterative so pathological
   chains from fuzzed designs cannot overflow the OCaml stack.
   Returns components in reverse topological order; only components
   that contain a cycle (size > 1, or a self-edge) matter to
   comb-loop detection. *)
let sccs (g : graph) : int list list =
  let index = Array.make g.n (-1) in
  let lowlink = Array.make g.n 0 in
  let on_stack = Array.make g.n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let out = ref [] in
  (* Explicit DFS frames: (node, remaining successors). *)
  for root = 0 to g.n - 1 do
    if index.(root) < 0 then begin
      let frames = ref [ (root, ref g.succs.(root)) ] in
      index.(root) <- !next_index;
      lowlink.(root) <- !next_index;
      incr next_index;
      stack := root :: !stack;
      on_stack.(root) <- true;
      while !frames <> [] do
        match !frames with
        | [] -> ()
        | (v, succs) :: rest -> (
          match !succs with
          | (w, _) :: more ->
            succs := more;
            if index.(w) < 0 then begin
              index.(w) <- !next_index;
              lowlink.(w) <- !next_index;
              incr next_index;
              stack := w :: !stack;
              on_stack.(w) <- true;
              frames := (w, ref g.succs.(w)) :: !frames
            end
            else if on_stack.(w) then
              lowlink.(v) <- min lowlink.(v) index.(w)
          | [] ->
            frames := rest;
            (match rest with
             | (parent, _) :: _ ->
               lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
             | [] -> ());
            if lowlink.(v) = index.(v) then begin
              let rec pop acc =
                match !stack with
                | [] -> acc
                | w :: tl ->
                  stack := tl;
                  on_stack.(w) <- false;
                  if w = v then w :: acc else pop (w :: acc)
              in
              out := pop [] :: !out
            end)
      done
    end
  done;
  List.rev !out

let has_self_edge (g : graph) v =
  List.exists (fun (w, _) -> w = v) g.succs.(v)

(* ------------------------------------------------------------------ *)
(* Pretty-printing elaborated expressions with net names              *)
(* ------------------------------------------------------------------ *)

let rec pp_eexpr (d : Elab.t) ppf (e : Elab.eexpr) =
  let name id = d.Elab.nets.(id).Elab.name in
  match e with
  | Elab.Const v ->
    let s = Avp_logic.Bv.to_string v in
    if String.length s <= 8 then Format.pp_print_string ppf s
    else Format.fprintf ppf "%d'b..." (Avp_logic.Bv.width v)
  | Elab.Net id -> Format.pp_print_string ppf (name id)
  | Elab.Index (id, e) ->
    Format.fprintf ppf "%s[%a]" (name id) (pp_eexpr d) e
  | Elab.Range (id, hi, lo) -> Format.fprintf ppf "%s[%d:%d]" (name id) hi lo
  | Elab.Unop (op, e) ->
    Format.fprintf ppf "%s%a" (Ast.unop_str op) (pp_eexpr d) e
  | Elab.Binop (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" (pp_eexpr d) a (Ast.binop_str op)
      (pp_eexpr d) b
  | Elab.Ternary (c, a, b) ->
    Format.fprintf ppf "(%a ? %a : %a)" (pp_eexpr d) c (pp_eexpr d) a
      (pp_eexpr d) b
  | Elab.Concat es ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (pp_eexpr d))
      es
  | Elab.Repeat (n, e) -> Format.fprintf ppf "{%d{%a}}" n (pp_eexpr d) e

let expr_str d e = Format.asprintf "%a" (pp_eexpr d) e

(* ------------------------------------------------------------------ *)
(* Path-sensitive branch walker                                       *)
(* ------------------------------------------------------------------ *)

(* One step down the branch tree, innermost last. *)
type branch =
  | Then_of of Elab.eexpr
  | Else_of of Elab.eexpr
  | Case_arm of Elab.eexpr * Elab.eexpr list  (* selector, labels *)
  | Case_default of Elab.eexpr

let pp_branch d ppf = function
  | Then_of c -> pp_eexpr d ppf c
  | Else_of c -> Format.fprintf ppf "!(%a)" (pp_eexpr d) c
  | Case_arm (sel, labels) ->
    Format.fprintf ppf "%a == %a" (pp_eexpr d) sel
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "|")
         (pp_eexpr d))
      labels
  | Case_default sel -> Format.fprintf ppf "%a == <other>" (pp_eexpr d) sel

let path_str d path =
  match path with
  | [] -> "unconditionally"
  | p ->
    "when "
    ^ String.concat " && "
        (List.map (Format.asprintf "%a" (pp_branch d)) p)

(* Visit every assignment with the stack of branches guarding it. *)
let walk_assigns (s : Elab.estmt)
    ~(f : branch list -> blocking:bool -> Elab.elv -> Elab.eexpr -> unit) :
    unit =
  let rec go path s =
    match s with
    | Elab.Block ss -> List.iter (go path) ss
    | Elab.Blocking (lv, e) -> f (List.rev path) ~blocking:true lv e
    | Elab.Nonblocking (lv, e) -> f (List.rev path) ~blocking:false lv e
    | Elab.If (c, t, e) ->
      go (Then_of c :: path) t;
      (match e with None -> () | Some s -> go (Else_of c :: path) s)
    | Elab.Case (sel, items, dflt) ->
      List.iter
        (fun (labels, body) -> go (Case_arm (sel, labels) :: path) body)
        items;
      (match dflt with
       | None -> ()
       | Some s -> go (Case_default sel :: path) s)
    | Elab.Nop -> ()
  in
  go [] s

module Ids = Set.Make (Int)

(* Nets assigned in full on every path through [s].  Partial writes
   (bit/range selects) conservatively do not count: they still latch
   the remaining bits. *)
let rec must_assign_set (s : Elab.estmt) : Ids.t =
  match s with
  | Elab.Block ss ->
    List.fold_left (fun acc s -> Ids.union acc (must_assign_set s)) Ids.empty
      ss
  | Elab.Blocking (lv, _) | Elab.Nonblocking (lv, _) ->
    let rec full = function
      | Elab.Lnet id -> Ids.singleton id
      | Elab.Lindex _ | Elab.Lrange _ -> Ids.empty
      | Elab.Lconcat ls ->
        List.fold_left (fun acc l -> Ids.union acc (full l)) Ids.empty ls
    in
    full lv
  | Elab.If (_, t, Some e) -> Ids.inter (must_assign_set t) (must_assign_set e)
  | Elab.If (_, _, None) -> Ids.empty
  | Elab.Case (_, items, Some dflt) ->
    List.fold_left
      (fun acc (_, body) -> Ids.inter acc (must_assign_set body))
      (must_assign_set dflt) items
  | Elab.Case (_, _, None) -> Ids.empty
  | Elab.Nop -> Ids.empty

(* A concrete witness: one branch path through [s] along which [net]
   is never fully assigned, or [None] when every path assigns it.
   Used by the latch pass so findings say {e which} branch latches. *)
let missing_path (s : Elab.estmt) (net : int) : branch list option =
  let assigns_fully stmt =
    Ids.mem net (must_assign_set stmt)
  in
  let rec search path s =
    match s with
    | Elab.Block ss ->
      if List.exists assigns_fully ss then None
      else
        (* No sibling covers the net by itself; descend into branch
           statements to refine the witness, or report this path. *)
        let rec through = function
          | [] -> Some (List.rev path)
          | stmt :: rest -> (
            match stmt with
            | Elab.If _ | Elab.Case _ -> (
              match search path stmt with
              | Some _ as w -> w
              | None -> through rest)
            | _ -> through rest)
        in
        through ss
    | Elab.Blocking _ | Elab.Nonblocking _ | Elab.Nop ->
      if assigns_fully s then None else Some (List.rev path)
    | Elab.If (c, t, e) -> (
      match search (Then_of c :: path) t with
      | Some _ as w -> w
      | None -> (
        match e with
        | None -> Some (List.rev (Else_of c :: path))
        | Some e -> search (Else_of c :: path) e))
    | Elab.Case (sel, items, dflt) -> (
      let rec arms = function
        | [] -> (
          match dflt with
          | None -> Some (List.rev (Case_default sel :: path))
          | Some d -> search (Case_default sel :: path) d)
        | (labels, body) :: rest -> (
          match search (Case_arm (sel, labels) :: path) body with
          | Some _ as w -> w
          | None -> arms rest)
      in
      arms items)
  in
  search [] s

(* ------------------------------------------------------------------ *)
(* Expression scanning helpers                                        *)
(* ------------------------------------------------------------------ *)

let rec expr_consts_acc acc (e : Elab.eexpr) =
  match e with
  | Elab.Const v -> v :: acc
  | Elab.Net _ -> acc
  | Elab.Index (_, e) | Elab.Unop (_, e) | Elab.Repeat (_, e) ->
    expr_consts_acc acc e
  | Elab.Range _ -> acc
  | Elab.Binop (_, a, b) -> expr_consts_acc (expr_consts_acc acc a) b
  | Elab.Ternary (c, a, b) ->
    expr_consts_acc (expr_consts_acc (expr_consts_acc acc c) a) b
  | Elab.Concat es -> List.fold_left expr_consts_acc acc es

let rec stmt_exprs_acc acc (s : Elab.estmt) =
  match s with
  | Elab.Block ss -> List.fold_left stmt_exprs_acc acc ss
  | Elab.Blocking (lv, e) | Elab.Nonblocking (lv, e) ->
    let rec lv_exprs acc = function
      | Elab.Lnet _ | Elab.Lrange _ -> acc
      | Elab.Lindex (_, e) -> e :: acc
      | Elab.Lconcat ls -> List.fold_left lv_exprs acc ls
    in
    e :: lv_exprs acc lv
  | Elab.If (c, t, e) ->
    let acc = stmt_exprs_acc (c :: acc) t in
    (match e with None -> acc | Some s -> stmt_exprs_acc acc s)
  | Elab.Case (sel, items, dflt) ->
    let acc =
      List.fold_left
        (fun acc (labels, body) -> stmt_exprs_acc (labels @ acc) body)
        (sel :: acc) items
    in
    (match dflt with None -> acc | Some s -> stmt_exprs_acc acc s)
  | Elab.Nop -> acc

let proc_exprs (p : Elab.process) : Elab.eexpr list =
  match p with
  | Elab.Assign (lv, e) ->
    let rec lv_exprs acc = function
      | Elab.Lnet _ | Elab.Lrange _ -> acc
      | Elab.Lindex (_, e) -> e :: acc
      | Elab.Lconcat ls -> List.fold_left lv_exprs acc ls
    in
    e :: lv_exprs [] lv
  | Elab.Comb s | Elab.Seq (_, s) -> stmt_exprs_acc [] s

let bv_has_xz v =
  let s = Avp_logic.Bv.to_string v in
  String.exists (fun c -> c = 'x' || c = 'z') s

let bv_all_z v =
  let s = Avp_logic.Bv.to_string v in
  s <> "" && String.for_all (fun c -> c = 'z') s

(* An expression that can release its drive: syntactically it can
   evaluate to all-Z.  [cond ? e : 'bz] is the canonical tri-state
   driver shape. *)
let rec can_float (e : Elab.eexpr) : bool =
  match e with
  | Elab.Const v -> bv_all_z v
  | Elab.Ternary (_, a, b) -> can_float a || can_float b
  | Elab.Concat es -> es <> [] && List.for_all can_float es
  | Elab.Repeat (_, e) -> can_float e
  | _ -> false
