(* One round of a workload: the set-up, the round's jobs, the verdict
   on every job, and the metrics a traced round yields. *)

module L = Layers

let now = Avp_obs.Obs.Clock.now_s

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The program's one-time set-up, timed in batches of at least 10 ms:
   a single set-up of microseconds reads mostly clock resolution and
   collector timing.  The median of [setup_batches] batches. *)
let setup_batches = 9

let timed_setup f =
  let batch k =
    let t0 = now () in
    for _ = 1 to k do
      ignore (Sys.opaque_identity (f ()))
    done;
    (now () -. t0) /. float k
  in
  let rec calibrate k = if k >= 1 lsl 24 || batch k *. float k >= 1e-2 then k else calibrate (2 * k) in
  let k = calibrate 1 in
  let samples = List.init setup_batches (fun _ -> batch k) in
  (f (), median samples, samples)

type job = { key : string; run : unit -> Jobs.check; expect : string option }

type plan = {
  setup_s : float;
  setup_samples : float list;
  available : int;  (** rounds the seeded plan holds *)
  jobs : job list;  (** the requested round's *)
}

let pristine_setup () =
  timed_setup (fun () -> Avp_hdl.Parser.parse Avp_pp.Control_hdl.source)

(* Revisions are drawn from the committed pool; generating them is the
   benchmark's own work, traced as [mutate.generate] but excluded from
   both end-to-end times. *)
let pool_designs pristine reference =
  L.call "mutate" "generate" (fun () -> Inputs.designs pristine reference)

(* Each round runs in a process of its own, so a job never meets a
   design an earlier job of its process has seen. *)
let plan ~workload ~seed ~round (reference : Inputs.reference) =
  let revisions ~salt ~strata ~cost ?first ~job ~expect entries =
    let pristine, setup_s, setup_samples = pristine_setup () in
    let rounds = Inputs.rounds ~seed ~salt ~strata ~cost ?first entries in
    let designs = pool_designs pristine reference in
    let jobs =
      List.map
        (fun (e : Inputs.entry) ->
          { key = e.key; run = job (Hashtbl.find designs e.key); expect = Some (expect e) })
        (Option.value ~default:[] (List.nth_opt rounds round))
    in
    { setup_s; setup_samples; available = List.length rounds; jobs }
  in
  match workload with
  | "design-loop" ->
    revisions ~salt:1 ~strata:4 ~cost:(fun e -> e.Inputs.states) ~first:"pristine"
      ~job:Jobs.design_loop ~expect:(fun e -> e.loop) reference.pool
  | "mutate" ->
    revisions ~salt:2 ~strata:2 ~cost:(fun e -> e.Inputs.cost) ~job:Jobs.mutate
      ~expect:(fun e -> e.mutate) (Inputs.campaigns_like_pristine reference)
  | "fuzz-compare" ->
    let pristine, setup_s, setup_samples = pristine_setup () in
    let seeds = Inputs.fuzz_rounds ~seed reference in
    let job (f : Inputs.fuzz_seed) =
      { key = Printf.sprintf "fuzz%d" f.fuzz_seed; run = Jobs.fuzz_compare ~seed:f.fuzz_seed pristine;
        expect = Some f.digest }
    in
    let jobs = Option.to_list (Option.map job (List.nth_opt seeds round)) in
    { setup_s; setup_samples; available = List.length seeds; jobs }
  | "model-tour" ->
    let model, setup_s, setup_samples =
      timed_setup (fun () -> Avp_pp.Control_model.model Jobs.model_tour_cfg)
    in
    let job = { key = "model"; run = Jobs.model_tour model; expect = Some reference.model_tour } in
    { setup_s; setup_samples; available = max_int; jobs = [ job ] }
  | w -> failwith ("unknown workload " ^ w)

type verdict = {
  v_key : string;
  v_wall : float;
  v_out : Jobs.output option;
  v_errors : string list;  (** empty when the job's output checks out *)
}

(* Why an output fails: broken invariants, or a digest other than the
   reference's when there is one. *)
let judge ~expect (out : Jobs.output) =
  out.problems
  @
  match expect with
  | Some d when d <> out.digest ->
    [ Printf.sprintf "digest %s, reference %s (%s)" out.digest d out.summary ]
  | _ -> []

let run_job ~index job =
  L.job := index;
  let t0 = now () in
  match job.run () with
  | exception e ->
    { v_key = job.key; v_wall = now () -. t0; v_out = None;
      v_errors = [ "raised " ^ Printexc.to_string e ] }
  | check ->
    let wall = now () -. t0 in
    let out = check () in
    { v_key = job.key; v_wall = wall; v_out = Some out;
      v_errors = judge ~expect:job.expect out }

let run_round jobs = List.mapi (fun index j -> run_job ~index j) jobs

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

(* Work facts summed over the jobs (the domain count is a maximum). *)
let facts verdicts =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      Option.iter
        (fun (o : Jobs.output) ->
          List.iter
            (fun (k, x) ->
              let old = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
              Hashtbl.replace tbl k (if k = "enum.domains_used" then max old x else old + x))
            o.facts)
        v.v_out)
    verdicts;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* Per-layer metrics of a traced run, from the benchmark's own spans,
   the work facts, and Obs counters and span counts the program emits. *)
let layer_metrics spans facts verdicts ~gc_minor ~gc_major =
  let sum f pred = List.fold_left (fun a (s : L.span) -> if pred s then a +. f s else a) 0. spans in
  let is l c (s : L.span) = s.layer = l && s.call = c in
  let any _ = true in
  let wall p = sum (fun s -> s.wall_s) p in
  let fact k = float (Option.value ~default:0 (List.assoc_opt k facts)) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let util p = ratio (sum (fun s -> s.cpu_s) p) (wall p *. float Jobs.domains) in
  let calls p = sum (fun s -> float s.next_calls) p in
  let mwords p = sum (fun s -> float s.alloc_w) p /. 1e6 in
  let counter name = sum (fun s -> float (L.counter s name)) any in
  let obs_count p name = sum (fun s -> float (fst (L.obs_span s name))) p in
  let obs_total p name = sum (fun s -> snd (L.obs_span s name)) p in
  let enum = is "enum" "enumerate" and campaign = is "mutate" "campaign" in
  let fuzz s = is "fuzz" "loop" s || is "fuzz" "compare" s in
  let job_walls = List.fold_left (fun a v -> a +. v.v_wall) 0. verdicts in
  [
    ("hdl.elaborate_s", wall (is "hdl" "elaborate"));
    ("sim.steps", counter "sim.steps");
    ("sim.lanes", counter "sim.lanes");
    ("fsm.translate_s", wall (is "fsm" "translate"));
    ("fsm.next_calls", calls any);
    ("enum.enumerate_s", wall enum);
    ("enum.edge_yield", ratio (fact "enum.edges") (calls enum));
    ("enum.domains_used", fact "enum.domains_used");
    ("enum.cpu_util", util enum);
    ("enum.alloc_mwords", mwords enum);
    ("tour.generate_s", wall (is "tour" "generate"));
    ("tour.traversals_per_edge", ratio (fact "tour.traversals") (fact "enum.edges"));
    ("vectors.realize_s", wall (is "vectors" "realize"));
    ("vectors.replay_s", wall (is "vectors" "replay"));
    ("vectors.cycles_per_s", ratio (fact "vectors.cycles") (wall (is "vectors" "replay")));
    ("mutate.generate_s", wall (is "mutate" "generate"));
    ("mutate.campaign_s", wall campaign);
    ("mutate.passes", obs_count campaign "mutate.pass");
    ("mutate.pass_s", obs_total campaign "mutate.pass");
    ("mutate.enum_runs", obs_count campaign "enum.run");
    ("mutate.cpu_util", util campaign);
    ("fuzz.loop_s", wall (is "fuzz" "loop"));
    ("fuzz.keep_ratio", ratio (fact "fuzz.kept") (fact "fuzz.executed"));
    ("fuzz.compare_s", wall (is "fuzz" "compare"));
    ("fuzz.kill_replays", obs_count (is "fuzz" "compare") "replay.trace");
    ("fuzz.compare_alloc_mwords", mwords (is "fuzz" "compare"));
    ("fuzz.cpu_util", util fuzz);
    ("gc.minor_collections", float gc_minor);
    ("gc.major_collections", float gc_major);
    ("other_s", job_walls -. wall (fun s -> s.job >= 0));
  ]

(* Counts that must repeat exactly between two traced runs of the same
   inputs.  Allocation is the calling domain's only: worker domains'
   allocation depends on scheduling and is not counted. *)
let exact_counts spans =
  let tot f = List.fold_left (fun a s -> a + f s) 0 spans in
  let obs name (s : L.span) = fst (L.obs_span s name) in
  let name (s : L.span) = s.layer ^ "." ^ s.call in
  [
    ("fsm.next_calls", tot (fun s -> s.L.next_calls));
    ("sim.steps", tot (fun s -> L.counter s "sim.steps"));
    ("sim.lanes", tot (fun s -> L.counter s "sim.lanes"));
    ("mutate.passes", tot (obs "mutate.pass"));
    ("fuzz.kill_replays", tot (fun s -> if name s = "fuzz.compare" then obs "replay.trace" s else 0));
  ]
  @ List.map
      (fun k -> ("alloc_w." ^ k, tot (fun s -> if name s = k then s.L.alloc_w else 0)))
      (List.sort_uniq compare (List.map name spans))

