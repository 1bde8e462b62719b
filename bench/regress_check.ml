(* Bench-history regression gate.

     dune exec bench/regress_check.exe [-- FILE] [--tolerance F]

   Loads a BENCH_HISTORY.jsonl (default: the committed one, or
   AVP_BENCH_HISTORY), compares the latest record of every (bench,
   preset) group against its baseline — the first record, or the
   first marked "baseline": true — and exits 1 on any regression:
   rates/speedups below (1 - tolerance) of baseline, wall times above
   (1 + tolerance), deterministic counts not exactly equal.  A
   baseline metric the latest record no longer reports is listed as
   dropped and does not fail the gate.  The
   default tolerance is wide (50%) because the gate's job is to catch
   step-change regressions on shared, noisy runners, not percent-level
   drift; tighten it for quiet local machines. *)

let () =
  let file = ref (History.history_file ()) in
  let tolerance = ref 0.5 in
  let rec parse = function
    | [] -> ()
    | "--tolerance" :: v :: rest ->
      (match float_of_string_opt v with
       | Some t when t >= 0. -> tolerance := t
       | _ ->
         prerr_endline "regress_check: --tolerance needs a non-negative float";
         exit 2);
      parse rest
    | path :: rest when String.length path > 0 && path.[0] <> '-' ->
      file := path;
      parse rest
    | arg :: _ ->
      Printf.eprintf
        "usage: regress_check.exe [FILE] [--tolerance F]  (got %S)\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  match History.load !file with
  | Error m ->
    Printf.eprintf "regress_check: %s\n" m;
    exit 2
  | Ok [] ->
    Printf.eprintf "regress_check: %s holds no records\n" !file;
    exit 2
  | Ok records ->
    let verdicts = History.check ~tolerance:!tolerance records in
    let failed =
      List.filter (fun v -> not v.History.v_ok) verdicts
    in
    let dropped =
      List.filter (fun v -> v.History.v_cur = None) verdicts
    in
    List.iter
      (fun (v : History.verdict) ->
        Printf.printf "%-7s %-10s %-28s %-28s base %12.2f  cur %12s  %s\n"
          (match v.History.v_cur with
           | None -> "dropped"
           | Some _ -> if v.History.v_ok then "ok" else "FAIL")
          v.History.v_bench v.History.v_preset v.History.v_metric
          v.History.v_base
          (match v.History.v_cur with
           | None -> "-"
           | Some c -> Printf.sprintf "%.2f" c)
          v.History.v_note)
      verdicts;
    Printf.printf "regress_check: %d metrics, %d regressions, %d dropped \
                   (%s, tolerance %.0f%%)\n"
      (List.length verdicts) (List.length failed) (List.length dropped) !file
      (100. *. !tolerance);
    if failed <> [] then exit 1
