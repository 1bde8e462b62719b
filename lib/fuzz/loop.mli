(** The coverage-guided mutational fuzzing loop.

    Rounds of [batch] candidates — fresh random entries while the
    corpus is empty, then mutations of energy-picked corpus seeds —
    execute on the compiled or bit-sliced engine and fold
    sequentially in batch order: a candidate is kept iff committing
    its observed marks moves the coverage counters (new state, new
    arc, or new (state, input-class) pair, via the incremental
    {!Avp_obs.Coverage.delta}).  Discarded candidates commit nothing,
    so the kept corpus's coverage is exactly the run's coverage — the
    invariant {!replay} re-checks.

    The energy schedule favors rare arcs: a seed's weight is the sum
    over its observed arcs of 1/(corpus entries hitting that arc).

    Determinism: candidate generation draws from one seeded PRNG
    before any parallel evaluation, and evaluation results are
    positionally indexed — the final corpus and coverage set are
    byte-identical for any engine and domain count. *)

type config = {
  seed : int;
  budget : int;  (** candidate executions, initial population included *)
  batch : int;  (** candidates per round *)
  init_len : int;  (** length of initial random entries *)
  max_len : int;  (** entry length bound *)
  engine : [ `Scalar | `Sliced ];
  domains : int;
}

val default_config : config
(** seed 0, budget 512, batch 31, init_len 24, max_len 48, sliced
    engine, 1 domain. *)

type kept = {
  entry : Corpus.entry;
  trace : Avp_tour.Tour_gen.trace;
  round : int;
  gain : Avp_obs.Coverage.counts;  (** the delta that earned the keep *)
  frontier : int;
      (** last cycle index that was novel at keep time, -1 if only
          the post-reset state was (the extension point) *)
}

type result = {
  design : string;
  config : config;
  rounds : int;
  executed : int;
  kept : kept array;  (** in keep order *)
  lengths : int array;  (** per executed candidate, in order *)
  coverage : Avp_obs.Coverage.t;
  explore_cycles : int;  (** total vectors spent exploring *)
}

exception Diverged of string
(** The engine observation disagreed with the model walk on the
    pristine design — a translation/replay bug, not a user error. *)

val run :
  ?progress:Avp_obs.Progress.t ->
  config:config ->
  Avp_fsm.Translate.result ->
  Avp_enum.State_graph.t ->
  result
(** Emits one [fuzz.round] span per round and, inside it, the
    [fuzz.exec] spans of {!Exec.run} (one per candidate on the scalar
    engine, one per chunk on the sliced engine), with deterministic
    args. *)

val replay :
  ?progress:Avp_obs.Progress.t ->
  config:config ->
  Corpus.t ->
  Avp_fsm.Translate.result ->
  Avp_enum.State_graph.t ->
  (result, string) Stdlib.result
(** Re-run a persisted corpus byte-identically: entries evaluate in
    keep order through the same fold, every entry must still earn its
    keep, and the resulting coverage equals the growing run's.
    Returns [Error] for a corpus from another design, a malformed
    entry, or an entry that adds no coverage (stale corpus). *)

val corpus : result -> Avp_fsm.Translate.result -> Corpus.t
val tours_of_kept : result -> Avp_tour.Tour_gen.t
(** The kept corpus as a tour set — the form the kill comparison
    replays against mutants. *)
