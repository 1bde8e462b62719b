(** HDL-to-FSM translation (step 1 of the paper's methodology).

    Works from an elaborated design whose control logic has been
    annotated:

    - [// avp state] on a [reg] declaration marks a control state
      variable;
    - [// avp free <net>] (module level) or [// avp free] on a
      declaration marks an abstract nondeterministic input — the
      interface of an abstract block that "tries every combination of
      values";
    - [// avp tie <net> <value>] pins a net to a constant;
    - [// avp clock <net>] and [// avp reset <net>] name the clock and
      the active-high reset.

    The translator computes the cone of influence of the state
    variables and checks that it is closed: every sequential register
    in the cone is annotated as state, every inferred latch is
    annotated as state, and every free-running input is declared free
    or tied.  The resulting {!Model.t} steps the design's own
    simulator, so the state graph "accurately predicts all behaviors
    of the design since it is derived directly from the HDL model".

    The model answers an ascending scan of one state's choices, the
    call sequence of state enumeration, from a cached successor row:
    one 62-lane {!Avp_hdl.Sliced} step computes 62 consecutive choice
    indices.  A pass is filled only when a call names the previous
    call's state at the previous choice index + 1.  Other calls are
    served from a pass already filled for that state, or take one
    scalar step.  The answers, and the [Unsupported] message of an
    undefined successor, are those of the scalar simulator.  Under
    [AVP_SIM_ENGINE=interp] no row is filled: the interpreter answers
    every call. *)

type binding = { var : Model.var; net : Avp_hdl.Elab.enet }

type result = {
  model : Model.t;
  state_bindings : binding array;   (** model state var order *)
  choice_bindings : binding array;  (** model choice var order *)
  elab : Avp_hdl.Elab.t;
  clock : string;
  reset : string;
  latches : Latch.latch list;       (** latches folded into the state *)
}

exception Unsupported of string

val translate :
  ?clock:string ->
  ?reset:string ->
  ?reset_cycles:int ->
  Avp_hdl.Elab.t ->
  result
(** @raise Unsupported when annotations are missing or the cone is not
    closed; the message lists the offending nets. *)

val value_of_bv : Avp_logic.Bv.t -> int
(** Encode a defined vector as a domain value.
    @raise Unsupported on undefined bits. *)

val bv_of_value : width:int -> int -> Avp_logic.Bv.t
