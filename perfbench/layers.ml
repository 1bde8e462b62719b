(* Per-layer spans recorded by the benchmark around each public call
   into the library.  Untraced, [call] is a plain function call, so
   the end-to-end run pays nothing for the instrument. *)

module Obs = Avp_obs.Obs

type span = {
  job : int;
  layer : string;  (** library module: hdl, fsm, enum, tour, ... *)
  call : string;  (** the public function, e.g. "enumerate" *)
  wall_s : float;
  cpu_s : float;  (** process user+system time: every domain *)
  alloc_w : int;  (** minor-heap words allocated by the calling domain *)
  next_calls : int;  (** calls through the counted transition functions *)
  counters : (string * int) list;  (** Obs counters the call emitted *)
  obs_spans : (string * int * float) list;
      (** Obs span name -> count, total seconds, as the call emitted them *)
}

let traced = ref false
let job = ref (-1)  (* the job a span belongs to; -1 before the first *)
let recorded : span list ref = ref []

let reset ~trace =
  traced := trace;
  job := -1;
  recorded := []

let spans () = List.rev !recorded

(* One counter per domain, so the parallel BFS counts without
   contention; the registry lets the calling domain sum them once the
   workers have joined. *)
let registry : int ref list ref = ref []
let registry_lock = Mutex.create ()

let counter_key =
  Domain.DLS.new_key (fun () ->
      let r = ref 0 in
      Mutex.protect registry_lock (fun () -> registry := r :: !registry);
      r)

let next_calls () =
  Mutex.protect registry_lock (fun () ->
      List.fold_left (fun acc r -> acc + !r) 0 !registry)

let count_calls (m : Avp_fsm.Model.t) =
  if not !traced then m
  else
    {
      m with
      next =
        (fun s c ->
          incr (Domain.DLS.get counter_key);
          m.next s c);
      next_into =
        (fun s c dst ->
          incr (Domain.DLS.get counter_key);
          m.next_into s c dst);
    }

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Obs spans summed by name: counts and totals only, never the
   profiler's self times. *)
let span_totals events =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Obs.event) ->
      if e.ph = Obs.Span then
        let n, s = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl e.name) in
        Hashtbl.replace tbl e.name (n + 1, s +. (float e.dur_ns *. 1e-9)))
    events;
  Hashtbl.fold (fun k (n, s) acc -> (k, n, s) :: acc) tbl []
  |> List.sort compare

let call layer name f =
  if not !traced then f ()
  else begin
    let tracer = Obs.create () in
    let calls0 = next_calls () in
    let alloc0 = Gc.minor_words () in
    let cpu0 = cpu_now () in
    let t0 = Obs.Clock.now_s () in
    let r = Obs.with_tracer tracer f in
    let wall_s = Obs.Clock.now_s () -. t0 in
    let cpu_s = cpu_now () -. cpu0 in
    let alloc_w = int_of_float (Gc.minor_words () -. alloc0) in
    recorded :=
      {
        job = !job;
        layer;
        call = name;
        wall_s;
        cpu_s;
        alloc_w;
        next_calls = next_calls () - calls0;
        counters = Obs.counters tracer;
        obs_spans = span_totals (Obs.events tracer);
      }
      :: !recorded;
    r
  end

let counter sp name = Option.value ~default:0 (List.assoc_opt name sp.counters)

let obs_span sp name =
  match List.find_opt (fun (n, _, _) -> n = name) sp.obs_spans with
  | Some (_, n, s) -> (n, s)
  | None -> (0, 0.)

let span_json sp =
  let module J = Avp_obs.Json in
  J.Obj
    [
      ("job", J.Int sp.job);
      ("layer", J.Str sp.layer);
      ("call", J.Str sp.call);
      ("wall_s", J.Float sp.wall_s);
      ("cpu_s", J.Float sp.cpu_s);
      ("alloc_w", J.Int sp.alloc_w);
      ("next_calls", J.Int sp.next_calls);
      ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) sp.counters));
      ( "obs_spans",
        J.Obj
          (List.map
             (fun (k, n, s) -> (k, J.Obj [ ("count", J.Int n); ("total_s", J.Float s) ]))
             sp.obs_spans) );
    ]
