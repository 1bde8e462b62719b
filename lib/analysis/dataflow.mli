(** Reusable dataflow scaffolding over the elaborated netlist:
    per-process def/use extraction, a net-level combinational
    dependency graph with Tarjan SCC, and a path-sensitive walker over
    [Elab.estmt] trees.  Every pass in this library is a client. *)

open Avp_hdl

type proc_kind = Kassign | Kcomb | Kseq

type proc_info = {
  index : int;  (** position in [Elab.t.processes] *)
  kind : proc_kind;
  loc : Ast.loc;
  reads : int list;  (** nets read: rhs, lvalue indices, conditions *)
  writes : int list;  (** nets written anywhere in the process *)
}

val proc_reads : Elab.process -> int list
val proc_writes : Elab.process -> int list

val proc_infos : Elab.t -> proc_info array

type graph = {
  n : int;
  succs : (int * int) list array;
      (** [succs.(src) = (dst, process index) list]: a combinational
          process reads [src] and writes [dst].  Sequential processes
          contribute no edges — a clocked register breaks the
          combinational path. *)
}

val comb_graph : ?infos:proc_info array -> Elab.t -> graph

val sccs : graph -> int list list
(** Tarjan's strongly-connected components, iterative so pathological
    chains from fuzzed designs cannot overflow the stack.  Reverse
    topological order; a component is cyclic iff it has more than one
    node or a self-edge. *)

val has_self_edge : graph -> int -> bool

val pp_eexpr : Elab.t -> Format.formatter -> Elab.eexpr -> unit
(** Expression printing with net names (long constants abbreviated). *)

val expr_str : Elab.t -> Elab.eexpr -> string

(** One step down a branch tree, innermost last. *)
type branch =
  | Then_of of Elab.eexpr
  | Else_of of Elab.eexpr
  | Case_arm of Elab.eexpr * Elab.eexpr list  (** selector, labels *)
  | Case_default of Elab.eexpr

val pp_branch : Elab.t -> Format.formatter -> branch -> unit

val path_str : Elab.t -> branch list -> string
(** ["unconditionally"], or ["when c1 && !(c2)"]. *)

val walk_assigns :
  Elab.estmt ->
  f:(branch list -> blocking:bool -> Elab.elv -> Elab.eexpr -> unit) ->
  unit
(** Visit every assignment with the stack of branches guarding it. *)

module Ids : Set.S with type elt = int

val must_assign_set : Elab.estmt -> Ids.t
(** Nets assigned in full on every path.  Partial writes (bit/range
    selects) conservatively do not count: they still latch the
    remaining bits. *)

val missing_path : Elab.estmt -> int -> branch list option
(** A concrete witness: one branch path along which the net is never
    fully assigned, or [None] when every path assigns it. *)

val expr_consts_acc :
  Avp_logic.Bv.t list -> Elab.eexpr -> Avp_logic.Bv.t list

val stmt_exprs_acc : Elab.eexpr list -> Elab.estmt -> Elab.eexpr list

val proc_exprs : Elab.process -> Elab.eexpr list
(** Every expression a process contains (rhs, conditions, selectors,
    labels, lvalue indices). *)

val bv_has_xz : Avp_logic.Bv.t -> bool
val bv_all_z : Avp_logic.Bv.t -> bool

val can_float : Elab.eexpr -> bool
(** The expression can release its drive: syntactically it can
    evaluate to all-Z.  [cond ? e : 'bz] is the canonical tri-state
    driver shape. *)
