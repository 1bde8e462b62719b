(** Netlist-level analysis passes over [Elab.t], built on
    {!Dataflow}.  Each pass returns plain findings; {!Analysis} owns
    selection, ordering and output. *)

open Avp_hdl

val comb_loop : Elab.t -> Dataflow.proc_info array -> Finding.t list
(** Combinational cycles (error), via SCC over the dependency graph;
    the finding's path lists the nets on the cycle. *)

val latch : Elab.t -> Dataflow.proc_info array -> Finding.t list
(** Nets a combinational process assigns on some but not all paths
    (warning), with a concrete uncovered path as witness.  Nets
    annotated [// avp state] are intentional latches and exempt. *)

val x_source : Elab.t -> Dataflow.proc_info array -> Finding.t list
(** Forward taint from Z/X-capable sources (multi-driver tri-state
    buses, undriven wires, never-written registers, explicit 'bx/'bz
    literals) through combinational logic into sequential latch
    points (warning), reporting the taint path. *)

val width_check : Elab.t -> Dataflow.proc_info array -> Finding.t list
(** Truncating assignments and mixed-width comparisons (warning),
    using significant widths so unsized 32-bit literals do not flood
    the report. *)

val races : Elab.t -> Finding.t list
(** Scheduling hazards, with both assignment positions in the
    message: a blocking and a nonblocking procedural write to one net
    (warning [sched-race]), and two edge-triggered processes writing
    one net on the same edge of the same clock (error
    [sched-race-edge]) — in both cases the observed value depends on
    unspecified scheduler ordering. *)
