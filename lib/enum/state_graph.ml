open Avp_fsm
module Obs = Avp_obs.Obs

type stats = {
  num_states : int;
  num_edges : int;
  state_bits : int;
  elapsed_s : float;
  heap_mb : float;
  domains : int;
  level_times : (int * float) array;
  pruned : int;
}

(* ------------------------------------------------------------------ *)
(* Packed state keys                                                  *)
(* ------------------------------------------------------------------ *)

(* Pack a valuation into a byte buffer; one byte per variable when the
   domain fits, two otherwise.  Returns the key size and an
   allocation-free [pack_into]. *)
let make_packer (model : Model.t) =
  let wide =
    Array.map
      (fun v ->
        let c = Model.card v in
        if c > 65536 then
          invalid_arg
            (Printf.sprintf
               "State_graph: variable %s has cardinality %d, beyond the \
                two-byte packed-key limit of 65536"
               v.Model.name c);
        c > 256)
      model.Model.state_vars
  in
  let key_size =
    Array.fold_left (fun acc w -> acc + if w then 2 else 1) 0 wide
  in
  let pack_into (valuation : int array) (b : Bytes.t) =
    let pos = ref 0 in
    Array.iteri
      (fun i v ->
        if Array.unsafe_get wide i then begin
          Bytes.unsafe_set b !pos (Char.unsafe_chr (v land 0xff));
          Bytes.unsafe_set b (!pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
          pos := !pos + 2
        end
        else begin
          Bytes.unsafe_set b !pos (Char.unsafe_chr (v land 0xff));
          incr pos
        end)
      valuation
  in
  (key_size, pack_into)

(* ------------------------------------------------------------------ *)
(* Sharded intern table                                               *)
(* ------------------------------------------------------------------ *)

(* Packed key -> state id.  Sharded by the top bits of the structural
   hash (the low bits index buckets inside each [Hashtbl], so reusing
   them for shard selection would leave most buckets empty).  The
   table is read-mostly: while a level expands every domain probes it
   freely and nobody writes; all insertions happen in the
   single-threaded merge that follows, so no locking is needed. *)

let shard_bits = 6

type index = {
  key_size : int;
  pack_into : int array -> Bytes.t -> unit;
  shards : (Bytes.t, int) Hashtbl.t array;
}

let index_create model =
  let key_size, pack_into = make_packer model in
  {
    key_size;
    pack_into;
    shards = Array.init (1 lsl shard_bits) (fun _ -> Hashtbl.create 256);
  }

let shard_of idx key =
  (* Hashtbl.hash yields 30 bits; take the top ones. *)
  Array.unsafe_get idx.shards (Hashtbl.hash key lsr (30 - shard_bits))

let index_find idx key = Hashtbl.find_opt (shard_of idx key) key
let index_add idx key id = Hashtbl.replace (shard_of idx key) key id

type t = {
  model : Model.t;
  states : int array array;
  adj : (int * int) array array;
  stats : stats;
  index : index;
}

exception Too_many_states of int

(* Growable array. *)
module Dyn = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 1024 dummy; len = 0; dummy }

  let push t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) t.dummy in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let get t i = t.data.(i)
  let to_array t = Array.sub t.data 0 t.len
end

let default_domains () =
  match Sys.getenv_opt "AVP_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* A successor the frozen intern table did not hold when its level
   began: one private copy per expanded slice, [n] occurrences in it.
   The merge resolves [id] once (-1: [admit] rejected it). *)
type fresh = { v : int array; mutable n : int; mutable id : int }

let unresolved = -2

(* What expanding a contiguous slice of a level's sources leaves for
   the merge: one row per source, in source order, of (destination,
   choice index) pairs.  A destination below [known], the number of
   states when the level began, is a state id; [known + k] names
   [fresh.(k)].  With a [failure], the last row stopped at the choice
   that raised it. *)
type expansion = {
  known : int;
  rows : (int * int) array Dyn.t;
  fresh : fresh Dyn.t;
  failure : (exn * Printexc.raw_backtrace) option;
}

(* ------------------------------------------------------------------ *)
(* Enumeration: level-synchronous BFS                                 *)
(* ------------------------------------------------------------------ *)

(* Each level is expanded against the frozen intern table, inline or
   sharded over a [Pool], then merged in (source, choice) order — the
   order a sequential BFS interns in — so the result is the same for
   any domain count.  See DESIGN.md, "Parallel enumeration". *)
let enumerate ?(all_conditions = false) ?(max_states = 5_000_000) ?domains
    ?progress ?admit (model : Model.t) =
  let t0 = Obs.Clock.now_s () in
  let requested =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  (* Transition functions that are not safe to share (e.g. they step a
     single HDL simulator instance) enumerate on the calling domain. *)
  let domains = if model.Model.parallel_safe then requested else 1 in
  let nvars = Array.length model.Model.reset in
  let index = index_create model in
  let key_size = index.key_size and pack_into = index.pack_into in
  let states = Dyn.create [||] in
  let adj = Dyn.create [||] in
  let num_choices = Model.num_choices model in
  let choices =
    Array.init num_choices (fun i -> Model.choice_of_index model i)
  in
  let edge_count = ref 0 in
  let level_times = ref [] in
  (* Frontier filter: a successor unknown to the intern table is only
     interned when [admit] accepts it.  A sound filter (e.g.
     {!Avp_analysis.Absint.admit}) leaves the graph unchanged and
     [stats.pruned] at 0 — the cross-validation hook.  The reset state
     is always admitted. *)
  let pruned = ref 0 in
  let admits v = match admit with None -> true | Some f -> f v in
  (* Intern the reset state as id 0. *)
  let reset = Array.copy model.Model.reset in
  let reset_key = Bytes.create key_size in
  pack_into reset reset_key;
  index_add index reset_key 0;
  Dyn.push states reset;
  (* Expand sources [lo, hi) with a slot's stamps: every choice
     in ascending order (the translated models' row cache relies on
     that scan), each row deduplicated before the merge sees it.
     Without [all_conditions] a destination keeps only its first choice
     in a row; with it every choice stays.  A fresh valuation is copied
     once per slice, and its occurrences share the copy.  An exception
     from the model ends the slice and is kept for the merge to
     re-raise in order. *)
  let expand seen lo hi =
    let known = states.Dyn.len in
    (* [!seen.(d)]: the last source whose row holds destination [d]. *)
    let cover n =
      if Array.length !seen < n then begin
        let bigger = Array.make (max n (2 * Array.length !seen)) (-1) in
        Array.blit !seen 0 bigger 0 (Array.length !seen);
        seen := bigger
      end
    in
    cover known;
    let rows = Dyn.create [||] in
    let fresh = Dyn.create { v = [||]; n = 0; id = unresolved } in
    let local = Hashtbl.create 64 (* packed key -> index in [fresh] *) in
    let nxt = Array.make nvars 0 and key = Bytes.create key_size in
    (* The last key looked up and its destination, encoded as in a
       row; primed with the reset state, which is always id 0. *)
    let prev = Bytes.copy reset_key and prev_d = ref 0 in
    let out = ref [] in
    let end_row () = Dyn.push rows (Array.of_list (List.rev !out)) in
    let failure =
      try
        for src = lo to hi - 1 do
          let cur = Dyn.get states src in
          out := [];
          for ci = 0 to num_choices - 1 do
            model.Model.next_into cur choices.(ci) nxt;
            pack_into nxt key;
            (* Successive choices often reach the same valuation. *)
            if not (Bytes.equal key prev) then begin
              prev_d :=
                (match index_find index key with
                 | Some d -> d
                 | None ->
                   (match Hashtbl.find_opt local key with
                    | Some k -> known + k
                    | None ->
                      let k = fresh.Dyn.len in
                      let v = Array.copy nxt in
                      Dyn.push fresh { v; n = 0; id = unresolved };
                      Hashtbl.add local (Bytes.copy key) k;
                      cover (known + k + 1);
                      known + k));
              Bytes.blit key 0 prev 0 key_size
            end;
            let d = !prev_d in
            if d >= known then begin
              let f = Dyn.get fresh (d - known) in
              f.n <- f.n + 1
            end;
            if all_conditions || !seen.(d) <> src then begin
              !seen.(d) <- src;
              out := (d, ci) :: !out
            end
          done;
          end_row ()
        done;
        None
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        end_row ();
        Some (e, bt)
    in
    { known; rows; fresh; failure }
  in
  (* Merge-side scratch (single-threaded use). *)
  let merge_key = Bytes.create key_size in
  (* Give a fresh valuation its id: an earlier source of the level may
     have interned it already; otherwise [admit] decides, and a
     rejection counts every occurrence, as a sequential scan would.
     Takes ownership of [f.v]. *)
  let resolve f =
    if f.id = unresolved then begin
      pack_into f.v merge_key;
      f.id <-
        (match index_find index merge_key with
         | Some id -> id
         | None when admits f.v ->
           let id = states.Dyn.len in
           if id >= max_states then raise (Too_many_states max_states);
           index_add index (Bytes.copy merge_key) id;
           Dyn.push states f.v;
           id
         | None ->
           pruned := !pruned + f.n;
           -1)
    end;
    f.id
  in
  (* Append [x]'s rows to [adj], interning in (source, choice) order,
     then re-raise a deferred exception: its row is the last. *)
  let merge x =
    for j = 0 to x.rows.Dyn.len - 1 do
      let row = Dyn.get x.rows j in
      Array.iteri
        (fun i (d, ci) ->
          if d >= x.known then
            row.(i) <- (resolve (Dyn.get x.fresh (d - x.known)), ci))
        row;
      let row =
        if Array.for_all (fun (d, _) -> d >= 0) row then row
        else
          Array.of_list (List.filter (fun (d, _) -> d >= 0) (Array.to_list row))
      in
      edge_count := !edge_count + Array.length row;
      Dyn.push adj row
    done;
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) x.failure
  in
  (* Each slot keeps its stamps from level to level. *)
  let seen = Array.init domains (fun _ -> ref [||]) in
  (* The pool exists from the first level with at least [domains]
     sources on: narrower levels, and so whole small graphs, never pay
     for spawning domains. *)
  let pool = lazy (Pool.create ~domains) in
  (* Batch ids link an [enum.batch] span to its per-domain [enum.shard]
     spans (and, via flow_out/flow_in, draw handoff arrows in the
     Chrome trace viewer). *)
  let batch_no = ref 0 in
  let run_levels () =
    let lo = ref 0 in
    while !lo < states.Dyn.len do
      let lo' = !lo and hi = states.Dyn.len in
      let cnt = hi - lo' in
      let lt0 = Obs.Clock.now_s () in
      let width = if domains > 1 && cnt >= domains then domains else 1 in
      let run =
        if width = 1 then fun job -> job 0 else Pool.run (Lazy.force pool)
      in
      let batch = !batch_no and traced = Obs.enabled () in
      let expanded = Array.make width None in
      run (fun slot ->
          let st0 = Obs.Clock.now_s () in
          let j0 = lo' + (cnt * slot / width) in
          let j1 = lo' + (cnt * (slot + 1) / width) in
          expanded.(slot) <- Some (expand seen.(slot) j0 j1);
          (* One retrospective span per domain per sharded level,
             emitted on the worker so its [dom] is the expanding domain
             — the profiler's busy-timeline unit. *)
          if traced && width > 1 then
            Obs.complete ~cat:"enum" "enum.shard"
              ~dur_s:(Obs.Clock.now_s () -. st0)
              ~args:
                [
                  ("batch", Obs.Int batch);
                  ("slot", Obs.Int slot);
                  ("sources", Obs.Int (j1 - j0));
                  ("flow_in", Obs.Int batch);
                ]);
      Array.iter (fun x -> Option.iter merge x) expanded;
      let dur_s = Obs.Clock.now_s () -. lt0 in
      level_times := (cnt, dur_s) :: !level_times;
      if width > 1 then incr batch_no;
      (* Telemetry is per BFS level, never per state: with spans off
         this adds one Atomic.get per level (the 3%-overhead budget in
         DESIGN.md). *)
      if traced then begin
        let args = [ ("sources", Obs.Int cnt) ] in
        if width = 1 then Obs.complete ~cat:"enum" "enum.level" ~dur_s ~args
        else
          Obs.complete ~cat:"enum" "enum.batch" ~dur_s
            ~args:
              (args @ [ ("batch", Obs.Int batch); ("flow_out", Obs.Int batch) ])
      end;
      Option.iter (fun p -> Avp_obs.Progress.tick ~n:cnt p) progress;
      lo := hi
    done
  in
  Fun.protect
    ~finally:(fun () ->
      if Lazy.is_val pool then Pool.shutdown (Lazy.force pool))
    run_levels;
  let used_domains = if Lazy.is_val pool then domains else 1 in
  let elapsed_s = Obs.Clock.now_s () -. t0 in
  if Obs.enabled () then begin
    Obs.complete ~cat:"enum" "enum.run" ~dur_s:elapsed_s
      ~args:
        [
          ("states", Obs.Int states.Dyn.len);
          ("edges", Obs.Int !edge_count);
          ("domains", Obs.Int used_domains);
        ];
    Obs.incr ~by:states.Dyn.len "enum.states";
    Obs.incr ~by:!edge_count "enum.edges"
  end;
  let heap_mb =
    let st = Gc.quick_stat () in
    float_of_int st.Gc.heap_words *. float_of_int (Sys.word_size / 8)
    /. (1024. *. 1024.)
  in
  {
    model;
    states = Dyn.to_array states;
    adj = Dyn.to_array adj;
    index;
    stats =
      {
        num_states = states.Dyn.len;
        num_edges = !edge_count;
        state_bits = Model.state_bits model;
        elapsed_s;
        heap_mb;
        domains = used_domains;
        level_times = Array.of_list (List.rev !level_times);
        pruned = !pruned;
      };
  }

let reset_id _ = 0
let num_states t = Array.length t.states
let num_edges t = t.stats.num_edges

let find_state t valuation =
  let key = Bytes.create t.index.key_size in
  t.index.pack_into valuation key;
  index_find t.index key

let out_degree t s = Array.length t.adj.(s)

let edge_offsets t =
  let n = num_states t in
  let offsets = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    offsets.(s + 1) <- offsets.(s) + Array.length t.adj.(s)
  done;
  offsets

let pp_stats ppf s =
  Format.fprintf ppf
    "states=%d bits/state=%d edges=%d time=%.2fs heap=%.1fMB domains=%d \
     levels=%d"
    s.num_states s.state_bits s.num_edges s.elapsed_s s.heap_mb s.domains
    (Array.length s.level_times);
  if s.pruned > 0 then Format.fprintf ppf " pruned=%d" s.pruned

let pp_dot ppf t =
  Format.fprintf ppf "@[<v 2>digraph %s {@," t.model.Model.model_name;
  Array.iteri
    (fun id valuation ->
      Format.fprintf ppf "s%d [label=\"%a\"];@," id
        (Model.pp_state t.model) valuation)
    t.states;
  Array.iteri
    (fun src out ->
      Array.iter
        (fun (dst, ci) ->
          Format.fprintf ppf "s%d -> s%d [label=\"%a\"];@," src dst
            (Model.pp_choice t.model)
            (Model.choice_of_index t.model ci))
        out)
    t.adj;
  Format.fprintf ppf "@]}@,"

let value_coverage t =
  let cov =
    Array.map
      (fun v -> Array.make (Model.card v) false)
      t.model.Model.state_vars
  in
  Array.iter
    (fun st -> Array.iteri (fun i v -> cov.(i).(v) <- true) st)
    t.states;
  cov

let absorbing_states t =
  let out = ref [] in
  Array.iteri
    (fun s edges ->
      if Array.length edges > 0
         && Array.for_all (fun (dst, _) -> dst = s) edges
      then out := s :: !out)
    t.adj;
  List.rev !out

let is_deterministic_image t =
  Array.for_all
    (fun out ->
      let seen = Hashtbl.create 8 in
      Array.for_all
        (fun (_, ci) ->
          if Hashtbl.mem seen ci then false
          else begin
            Hashtbl.add seen ci ();
            true
          end)
        out)
    t.adj
