(** The mutation kill campaign (the Table 2.1 claim as a score).

    Mutants are generated from the pristine parsed design, vetted
    ({!Filter.vet}), and every survivor of the vetting is simulated
    against two vector sets realized once from the {e pristine}
    model: the transition-tour vectors and a size-matched random
    baseline (uniform random choice-variable walks with the same
    trace-length profile — i.e. random stimulus on the abstracted
    interface nets).  The oracles mirror the paper's Table 2.1
    comparison: tour vectors carry a per-cycle prediction of every
    annotated state net (the tour knows exactly which transition is
    taken each cycle) as well as the expected outputs, while the
    random baseline has golden-model lockstep comparison of the
    design's {e output ports} only — without the enumerated tour
    there is no per-cycle state prediction to check against.  Both
    oracles also observe the post-reset state (reported as cycle -1),
    and a checked net carrying x/z bits is itself a kill.  Mutants
    are sharded round-robin over OCaml domains; classification is
    per-mutant deterministic, so the report is identical for any
    domain count.

    Mutants that escape both vector sets are re-enumerated and
    checked for graph equivalence ({!Filter.equivalent}); genuinely
    inequivalent escapees are the survivors listed for triage. *)

type classification =
  | Stillborn of string  (** does not elaborate *)
  | Killed_static of string  (** rejected by the static analyser *)
  | Killed_absint of string
      (** proven divergent by abstract interpretation ({!Filter.prune}):
          a checked net's post-reset invariants are disjoint, so every
          replay observation differs — killed with zero simulated
          cycles *)
  | Killed of { by_tour : bool; by_random : bool; detail : string }
  | Equivalent  (** state graph identical to the pristine design *)
  | Survived of string  (** escaped both vector sets; why not equivalent *)

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
      (** denominator: total − stillborn − static − absint − equivalent *)
}

type report = {
  design : string;
  seed : int;
  total : int;
  results : result array;  (** in mutant-id order *)
  families : family_score list;  (** in {!Op.all_families} order *)
  candidates : int;
  tour_killed : int;
  random_killed : int;
  tour_rate : float;
  random_rate : float;
  tour_cycles : int;  (** vector budget of the tour set *)
  random_cycles : int;  (** vector budget of the random baseline *)
}

val random_walks :
  salt:int ->
  seed:int ->
  Avp_fsm.Model.t ->
  Avp_enum.State_graph.t ->
  int array ->
  Avp_tour.Tour_gen.t
(** A random baseline: one uniform random walk from reset per entry of
    the length profile, choices drawn from the model's choice space by
    a PRNG seeded with [[| salt; seed |]], successor states computed by
    the model (they always exist in the fully-enumerated graph).  The
    campaign walks its tour's trace-length profile; the generator
    comparison walks the fuzz run's executed candidates. *)

(** {1 Kill scoring}

    The one scorer of mutants against vector sets, shared by {!run}
    and the fuzz generator comparison. *)

type oracle =
  | State of Avp_tour.Tour_gen.t
      (** per-cycle predictions of every annotated state net, from the
          walk the set's vectors realize *)
  | Outputs
      (** lockstep on the design's output ports against the pristine
          design's trajectory *)

type oracle_set = {
  vectors : Avp_vectors.Vector.t array;
  chains : oracle list list;
      (** Each chain's outcome is its first oracle issue, in order: a
          later oracle counts only for a mutant every earlier oracle
          of its chain passed clean.  Separate chains are independent;
          all of a set's chains watch one replay of its vectors. *)
}

type outcome =
  | Clean
  | Mismatch of Avp_vectors.Replay.mismatch
      (** the first, as {!Avp_vectors.Replay.check} reports it *)
  | Escape of string
      (** the replay escaped: a checked net carried x/z bits, or the
          simulation raised — the message is the report's kill detail *)

val score :
  ?top:string ->
  ?domains:int ->
  ?engine:[ `Scalar | `Sliced ] ->
  ?lanes:int ->
  design:Avp_hdl.Ast.design ->
  tr:Avp_fsm.Translate.result ->
  graph:Avp_enum.State_graph.t ->
  sets:oracle_set array ->
  scored:(int -> outcome array array -> unit) ->
  Avp_hdl.Elab.t array ->
  unit
(** [score ~sets ~scored duts] scores every vetted mutant design
    against every oracle chain of every set and calls [scored j o]
    once per mutant, where [o.(set).(chain)] is the outcome of
    [duts.(j)].  Each set's output trajectories are recorded once from
    the pristine design.  [`Scalar] replays each mutant alone, sharded over
    [domains]; [scored] then runs on worker domains.  [`Sliced]
    (default) compiles [design] once as mutant schemata and scores up
    to [lanes] (default 62) mutants per word-parallel pass, emitting
    one [mutate.pass] span per pass; mutants the kernel cannot carry
    fall back to the scalar path.  Outcomes are identical on both
    engines, for any [lanes] and [domains]. *)

(** {1 The campaign} *)

val run :
  ?families:Op.family list ->
  ?seed:int ->
  ?budget:int ->
  ?domains:int ->
  ?max_equiv_states:int ->
  ?top:string ->
  ?progress:Avp_obs.Progress.t ->
  ?engine:[ `Scalar | `Sliced ] ->
  ?lanes:int ->
  design:Avp_hdl.Ast.design ->
  tr:Avp_fsm.Translate.result ->
  graph:Avp_enum.State_graph.t ->
  tours:Avp_tour.Tour_gen.t ->
  unit ->
  report
(** [seed] (default 1) drives both the mutant sample and the random
    baseline; [budget] bounds the number of mutants (default: all);
    [domains] (default 1) parallelizes the per-mutant work.

    [engine] (default [`Sliced]) selects the replay backend.
    [`Sliced] compiles the pristine design {e once} as mutant
    schemata ({!Avp_hdl.Sliced.create_schemata}) and classifies up to
    [lanes] (default 62) mutants word-parallel per replay pass —
    ceil(candidates/lanes) passes instead of one full replay per
    mutant.  Mutants the schemata kernel cannot carry (structural
    divergence beyond one expression site, or a mutation-induced comb
    loop that aborts the shared word) fall back to the scalar path,
    sharded over [domains] as in [`Scalar] mode.  Classifications —
    including kill details and x/z escape messages — are byte-
    identical between engines and for any [lanes] value; {!to_json}
    is the equality witness the test suite checks. *)

val to_json : report -> string
(** Deterministic machine-readable report: header rates, per-family
    scores, every mutant's classification, and the survivor list.
    Contains no timings or domain counts, so byte-equal output is a
    correctness property across runs and [-j] values. *)

val report_section : report -> Avp_obs.Report.mutation_section
(** The campaign's scores as a section of a unified
    {!Avp_obs.Report}, family breakdown included. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable summary table plus the survivor list. *)
