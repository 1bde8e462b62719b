(* Provenance-stamped bench history.

   Every bench/*_snapshot.exe run appends one JSON-lines record per
   measured configuration to BENCH_HISTORY.jsonl (committed at the
   repo root), and bench/regress_check.exe compares the latest record
   of each (bench, preset) group against its baseline with per-metric
   tolerance bands.  Records are hostname-free: the provenance block
   carries only what a regression report needs to interpret a number
   (git rev, core count, compiler). *)

module Json = Avp_obs.Json

type record = {
  bench : string;  (* "enum" | "sim" | "mutation" | "fuzz" *)
  preset : string;  (* configuration key; groups compare within it *)
  baseline : bool;  (* explicit baseline mark; else the group's first *)
  git_rev : string;
  cores : int;
  ocaml : string;
  metrics : (string * float) list;
}

(* ------------------------------------------------------------------ *)
(* Provenance                                                         *)
(* ------------------------------------------------------------------ *)

let read_line_of path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    close_in ic;
    line

(* The current commit, without shelling out: resolve .git/HEAD one
   level (detached HEAD is already a hash), searching upward from the
   cwd so `dune exec bench/...` works from any subdirectory. *)
let git_rev () =
  match Sys.getenv_opt "AVP_GIT_REV" with
  | Some r when r <> "" -> r
  | _ ->
    let rec find dir depth =
      if depth > 6 then None
      else if Sys.file_exists (Filename.concat dir ".git") then Some dir
      else
        let up = Filename.dirname dir in
        if up = dir then None else find up (depth + 1)
    in
    (match find (Sys.getcwd ()) 0 with
     | None -> "unknown"
     | Some root -> (
       let git p = Filename.concat (Filename.concat root ".git") p in
       match read_line_of (git "HEAD") with
       | None -> "unknown"
       | Some head ->
         let full =
           match String.length head with
           | n when n > 5 && String.sub head 0 5 = "ref: " -> (
             let r = String.sub head 5 (n - 5) in
             match read_line_of (git r) with Some h -> h | None -> "unknown")
           | _ -> head
         in
         if String.length full >= 12 then String.sub full 0 12 else full))

let cores () = Domain.recommended_domain_count ()

(* The uniform provenance block all four BENCH_*.json emitters embed
   (replacing their ad-hoc "cores" fields): a single-line JSON object,
   ready to drop after a "provenance": key. *)
let provenance_string () =
  Json.to_string
    (Json.Obj
       [
         ("git_rev", Json.Str (git_rev ()));
         ("cores", Json.Int (cores ()));
         ("ocaml_version", Json.Str Sys.ocaml_version);
         ("os_type", Json.Str Sys.os_type);
       ])

(* ------------------------------------------------------------------ *)
(* Records                                                            *)
(* ------------------------------------------------------------------ *)

let record_json r =
  Json.Obj
    [
      ("bench", Json.Str r.bench);
      ("preset", Json.Str r.preset);
      ("baseline", Json.Bool r.baseline);
      ("git_rev", Json.Str r.git_rev);
      ("cores", Json.Int r.cores);
      ("ocaml_version", Json.Str r.ocaml);
      ( "metrics",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.metrics) );
    ]

let record_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let b k = Option.bind (Json.member k j) Json.to_bool in
  let num = function
    | Json.Int i -> Some (float_of_int i)
    | Json.Float f -> Some f
    | _ -> None
  in
  match (str "bench", str "preset", Json.member "metrics" j) with
  | Some bench, Some preset, Some (Json.Obj ms) ->
    Some
      {
        bench;
        preset;
        baseline = Option.value ~default:false (b "baseline");
        git_rev = Option.value ~default:"unknown" (str "git_rev");
        cores =
          (match Option.bind (Json.member "cores" j) num with
           | Some c -> int_of_float c
           | None -> 0);
        ocaml = Option.value ~default:"" (str "ocaml_version");
        metrics = List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (num v)) ms;
      }
  | _ -> None

let default_file = "BENCH_HISTORY.jsonl"

let history_file () =
  match Sys.getenv_opt "AVP_BENCH_HISTORY" with
  | Some p -> p
  | None -> default_file

(* Append one record for this run.  AVP_BENCH_HISTORY overrides the
   path; "off" disables appending (CI smoke runs with reduced budgets
   must not pollute the committed history). *)
let append ?file ~bench ~preset metrics =
  let path = match file with Some p -> p | None -> history_file () in
  if path <> "off" && path <> "" then begin
    let r =
      {
        bench;
        preset;
        baseline = false;
        git_rev = git_rev ();
        cores = cores ();
        ocaml = Sys.ocaml_version;
        metrics;
      }
    in
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    output_string oc (Json.to_string (record_json r));
    output_char oc '\n';
    close_out oc;
    Printf.printf "history: appended %s/%s to %s\n" bench preset path
  end

let load path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
    let out = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" then
           match Json.parse line with
           | Ok j -> (
             match record_of_json j with
             | Some r -> out := r :: !out
             | None -> ())
           | Error _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    Ok (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Regression comparison                                              *)
(* ------------------------------------------------------------------ *)

type direction = Higher_better | Lower_better | Exact

(* Inferred from the metric name: rates and speedups regress downward,
   wall times regress upward (both inside a tolerance band — timing on
   shared CI runners is noisy), and everything else is a deterministic
   count that must reproduce exactly on any machine. *)
let direction name =
  let has sub =
    let n = String.length name and m = String.length sub in
    let rec go i = i + m <= n && (String.sub name i m = sub || go (i + 1)) in
    go 0
  in
  if has "per_s" || has "speedup" || has "rate" then Higher_better
  else if String.length name > 2 && Filename.check_suffix name "_s" then
    Lower_better
  else Exact

type verdict = {
  v_bench : string;
  v_preset : string;
  v_metric : string;
  v_base : float;
  v_cur : float option;  (* None: the current record no longer has it *)
  v_ok : bool;
  v_note : string;
}

let compare_metric ~tolerance ~name ~base ~cur =
  match direction name with
  | Exact ->
    (cur = base, if cur = base then "exact" else "deterministic metric changed")
  | Higher_better ->
    let floor = base *. (1. -. tolerance) in
    ( cur >= floor,
      Printf.sprintf "floor %.2f (tolerance %.0f%%)" floor (100. *. tolerance)
    )
  | Lower_better ->
    let ceil = base *. (1. +. tolerance) in
    ( cur <= ceil,
      Printf.sprintf "ceiling %.2f (tolerance %.0f%%)" ceil (100. *. tolerance)
    )

(* Group records by (bench, preset); baseline = the first marked
   [baseline:true], else the group's first record; current = the
   group's last.  A single-record group compares against itself and
   trivially passes — committing the first record creates the
   baseline.  A baseline metric the current record no longer reports
   yields a passing [dropped] verdict, so removals stay visible
   without failing the gate. *)
let check ~tolerance records =
  let groups = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun r ->
      let key = (r.bench, r.preset) in
      match Hashtbl.find_opt groups key with
      | Some rs -> rs := r :: !rs
      | None ->
        order := key :: !order;
        Hashtbl.add groups key (ref [ r ]))
    records;
  List.concat_map
    (fun key ->
      let rs = List.rev !(Hashtbl.find groups key) in
      let baseline =
        match List.find_opt (fun r -> r.baseline) rs with
        | Some b -> b
        | None -> List.hd rs
      in
      let current = List.nth rs (List.length rs - 1) in
      List.map
        (fun (name, base) ->
          let cur = List.assoc_opt name current.metrics in
          let ok, note =
            match cur with
            | None -> (true, "dropped: not in the latest record")
            | Some cur -> compare_metric ~tolerance ~name ~base ~cur
          in
          {
            v_bench = fst key;
            v_preset = snd key;
            v_metric = name;
            v_base = base;
            v_cur = cur;
            v_ok = ok;
            v_note = note;
          })
        baseline.metrics)
    (List.rev !order)
