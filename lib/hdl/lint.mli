(** Structural lints over elaborated designs.

    The paper's flow assumes a "stylized synthesizable subset"; these
    checks catch departures from it early, before translation or
    simulation produce confusing results. *)

val check : Elab.t -> Finding.t list
(** All findings, each with its net id and source position
    ({!Elab.net_loc}), in {!Finding.sort} order.  Rules:

    - [multiple-drivers]: a net written by more than one continuous
      assignment (warning — suppressed when every driver can evaluate
      to all-z, i.e. a deliberate tri-state bus) or by both an
      assignment and a process (error);
    - [reg-never-written]: a declared register no process assigns;
    - [wire-never-driven]: a wire with no driver that is read;
    - [unused-net]: declared but never read or written (warning);
    - [mixed-assignment]: a register written by both blocking and
      nonblocking assignments across processes (error);
    - [seq-and-comb]: a register written by both sequential and
      combinational processes (error). *)
