(* Inputs made from the seed, and the committed reference they are
   checked against.

   The design pool is the unmodified pp_control plus its single-point
   mutants that translate.  [reference.json] lists every pool member
   with its size, its cost and the digest of each job kind's output;
   the benchmark reads sizes and costs from it so that choosing the
   inputs never runs the program. *)

module J = Avp_obs.Json
module Gen = Avp_mutate.Gen

type entry = {
  key : string;  (** "pristine" or "m<id>", the id in [Gen.all] *)
  descr : string;  (** the mutation, to detect a stale pool *)
  states : int;  (** design-loop cost: enumeration is ~90% of a job *)
  cost : int;  (** mutate cost: simulator steps of the whole campaign *)
  loop : string;  (** design-loop output digest *)
  mutate : string;  (** mutate output digest *)
}

type fuzz_seed = {
  fuzz_seed : int;  (** [Loop.config.seed] and [Compare.run ~seed] *)
  fuzz_cost : int;  (** simulator steps of the fuzz loop and comparison *)
  digest : string;  (** fuzz-compare output digest *)
}

type reference = {
  pool : entry list;  (** pristine first, then mutants in id order *)
  model_tour : string;  (** model-tour output digest (seed-free input) *)
  fuzz : fuzz_seed list;
}

let entry_json e =
  J.Obj
    [
      ("key", J.Str e.key);
      ("descr", J.Str e.descr);
      ("states", J.Int e.states);
      ("cost", J.Int e.cost);
      ("loop", J.Str e.loop);
      ("mutate", J.Str e.mutate);
    ]

let reference_json r =
  J.Obj
    [
      ("pool", J.List (List.map entry_json r.pool));
      ("model_tour", J.Str r.model_tour);
      ( "fuzz",
        J.List
          (List.map
             (fun f ->
               J.Obj
                 [
                   ("seed", J.Int f.fuzz_seed);
                   ("cost", J.Int f.fuzz_cost);
                   ("digest", J.Str f.digest);
                 ])
             r.fuzz) );
    ]

let load_reference file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  let fail what = failwith (Printf.sprintf "%s: bad %s" file what) in
  let v = match J.parse text with Ok v -> v | Error e -> fail e in
  let field k conv o = match Option.bind (J.member k o) conv with Some x -> x | None -> fail k in
  let entry o =
    {
      key = field "key" J.to_str o;
      descr = field "descr" J.to_str o;
      states = field "states" J.to_int o;
      cost = field "cost" J.to_int o;
      loop = field "loop" J.to_str o;
      mutate = field "mutate" J.to_str o;
    }
  in
  let fuzz o =
    {
      fuzz_seed = field "seed" J.to_int o;
      fuzz_cost = field "cost" J.to_int o;
      digest = field "digest" J.to_str o;
    }
  in
  {
    pool = List.map entry (field "pool" J.to_list v);
    model_tour = field "model_tour" J.to_str v;
    fuzz = List.map fuzz (field "fuzz" J.to_list v);
  }

let descr_string (m : Gen.mutant) = Format.asprintf "%a" Avp_mutate.Op.pp_descr m.descr

(* The design of every pool key.  A pool entry whose mutation no
   longer matches the generator's is reported, not silently run. *)
let designs pristine (reference : reference) =
  let tbl = Hashtbl.create 256 in
  Hashtbl.replace tbl "pristine" pristine;
  let by_id = Hashtbl.create 256 in
  List.iter (fun (m : Gen.mutant) -> Hashtbl.replace by_id m.id m) (Gen.all pristine);
  List.iter
    (fun e ->
      if e.key <> "pristine" then
        let id = int_of_string (String.sub e.key 1 (String.length e.key - 1)) in
        match Hashtbl.find_opt by_id id with
        | Some m when descr_string m = e.descr -> Hashtbl.replace tbl e.key m.design
        | _ -> failwith ("stale reference pool: " ^ e.key))
    reference.pool;
  tbl

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Sort by cost, cut into [strata] contiguous groups, shuffle each
   group with the seeded generator, and deal round [r] the [r]-th
   member of every group: every round has the same cost profile, so
   the median round time barely depends on the seed.  [first] is dealt
   to round 0 from its own group and runs first.  No key appears twice in a run. *)
let rounds ~seed ~salt ~strata ~cost ?first entries =
  let sorted =
    List.stable_sort (fun a b -> compare (cost a, a.key) (cost b, b.key)) entries
    |> Array.of_list
  in
  let n = Array.length sorted in
  let rng = Random.State.make [| seed; salt |] in
  let groups =
    Array.init strata (fun g -> Array.sub sorted (g * n / strata) (((g + 1) * n / strata) - (g * n / strata)))
  in
  Array.iter
    (fun grp ->
      shuffle rng grp;
      match first with
      | Some key -> (
        match Array.find_index (fun e -> e.key = key) grp with
        | Some i ->
          let t = grp.(0) in
          grp.(0) <- grp.(i);
          grp.(i) <- t
        | None -> ())
      | None -> ())
    groups;
  let count = Array.fold_left (fun m g -> min m (Array.length g)) max_int groups in
  let round r =
    let l = Array.to_list (Array.map (fun g -> g.(r)) groups) in
    let firsts, rest = List.partition (fun e -> Some e.key = first) l in
    firsts @ rest
  in
  List.init count round

(* The mutate workload's revisions: mutants whose campaign does the
   unmodified design's simulator work to within 5%.  Campaign costs
   range over 30x; restricting the pool keeps every round's work, and
   so the median round time, nearly independent of the seed. *)
let campaigns_like_pristine reference =
  let base = (List.find (fun e -> e.key = "pristine") reference.pool).cost in
  List.filter
    (fun e -> e.key <> "pristine" && abs (e.cost - base) * 20 <= base)
    reference.pool

(* The fuzz-compare rounds: a seeded order of the fuzz seeds whose run
   does the median simulator work to within 2%.  The work of a fuzz
   run varies with its seed by 11%; the band keeps the rounds
   comparable. *)
let fuzz_rounds ~seed reference =
  let costs = List.map (fun f -> f.fuzz_cost) reference.fuzz |> List.sort compare in
  let mid = List.nth costs (List.length costs / 2) in
  let band = List.filter (fun f -> abs (f.fuzz_cost - mid) * 50 <= mid) reference.fuzz in
  let a = Array.of_list band in
  shuffle (Random.State.make [| seed; 3 |]) a;
  Array.to_list a
