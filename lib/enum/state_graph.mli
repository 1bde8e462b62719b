(** Full state enumeration (step 2 of the paper's methodology).

    Breadth-first search from the reset state; at every state all
    combinations of choice-variable values are permuted, "resulting in
    the discovery of all reachable states, no matter how improbable a
    sequence of interactions is needed to reach it".

    Each graph edge carries the choice combination (the {e condition})
    that caused the transition.  By default, as in the paper, "only
    one is recorded" per (src, dst) pair — the first condition tried.
    [~all_conditions:true] applies the fix discussed in Section 4,
    recording every distinct condition as a parallel edge (this is how
    the Figure 4.2 class of bug becomes detectable).

    One level-synchronous core runs at every domain count: each BFS
    level is expanded against the frozen intern table — inline, or
    sharded over OCaml domains ([enumerate ?domains]) — and merged in
    (source, choice) order, so state numbering, adjacency, edge counts,
    [pruned] and raised exceptions are identical for any domain count.
    See DESIGN.md, "Parallel enumeration". *)

open Avp_fsm

type stats = {
  num_states : int;
  num_edges : int;
  state_bits : int;  (** the paper's "number of bits per state" *)
  elapsed_s : float;
  heap_mb : float;  (** major-heap size at completion, in MB *)
  domains : int;
      (** domains actually used: the requested count when some level
          had at least that many sources (and the model is
          {!Model.t.parallel_safe}), else 1 *)
  level_times : (int * float) array;
      (** one entry per BFS level: (sources expanded, seconds) *)
  pruned : int;
      (** successor occurrences the [admit] filter rejected (0 without
          a filter — and 0 with a sound one: that is the
          cross-validation invariant) *)
}

type index
(** Packed-valuation -> state-id hash index, built during
    enumeration. *)

type t = {
  model : Model.t;
  states : int array array;  (** state id -> valuation; id 0 is reset *)
  adj : (int * int) array array;
      (** state id -> ordered (dst, choice index) pairs *)
  stats : stats;
  index : index;
}

exception Too_many_states of int

val default_domains : unit -> int
(** The [AVP_DOMAINS] environment variable when set to a positive
    integer, else [Domain.recommended_domain_count ()]. *)

val enumerate :
  ?all_conditions:bool ->
  ?max_states:int ->
  ?domains:int ->
  ?progress:Avp_obs.Progress.t ->
  ?admit:(int array -> bool) ->
  Model.t ->
  t
(** [domains] defaults to [default_domains ()] and is clamped to 1
    when the model is not {!Model.t.parallel_safe}.

    [admit] is a frontier filter: a successor valuation not already
    interned is discarded (counted in [stats.pruned]) unless the
    filter accepts it.  A {e sound} filter — one accepting every truly
    reachable state, such as the abstract interpreter's proven state
    invariants ([Avp_analysis.Absint.admit]) — never changes the
    graph; [stats.pruned] staying 0 is the cross-validation check.
    The filter runs in the single-threaded merge, so results and
    counts are identical for any domain count.  The reset state is
    always admitted.

    A level is sharded over [domains] only when it has at least
    [domains] sources; the domains are spawned at the first such level
    and joined on return, so small graphs never spawn one.

    @raise Too_many_states when the [max_states] bound (default
    5_000_000) is exceeded.  An exception raised by the model's
    transition function propagates, at any domain count, exactly when
    a sequential scan would meet it: after every state interned before
    that (source, choice).
    @raise Invalid_argument when a state variable's cardinality
    exceeds the packed-key limit of 65536. *)

val reset_id : t -> int
(** Always 0. *)

val num_states : t -> int
val num_edges : t -> int

val find_state : t -> int array -> int option
(** Look up a state id by valuation — a constant-time probe of the
    enumeration-time index. *)

val out_degree : t -> int -> int

val edge_offsets : t -> int array
(** Prefix sums assigning each edge a dense global index: edge [k] of
    state [s] has index [offsets.(s) + k]. *)

val pp_stats : Format.formatter -> stats -> unit

val pp_dot : Format.formatter -> t -> unit
(** Graphviz rendering (small graphs only). *)

val value_coverage : t -> bool array array
(** [state var index -> value -> some enumerated state holds it] — the
    dynamic ground truth the static analyser's per-variable
    reachability claims are checked against (statically-unreachable
    must be a subset of dynamically-unreachable). *)

val absorbing_states : t -> int list
(** States every one of whose transitions self-loops: the machine can
    never leave them.  Coverage-driven validation does not check
    liveness, so deadlocks hide in plain sight unless surfaced —
    report them alongside enumeration statistics. *)

val is_deterministic_image : t -> bool
(** True when no state has two outgoing edges with the same recorded
    condition — a sanity check of the first-condition labelling. *)
