(* Bad input to the avp command line: one diagnostic line on stderr,
   positioned when the error has a position, and exit code 2. *)

let avp = "../bin/avp.exe"

let run_avp args source =
  let file = Filename.temp_file "avp_cli" ".v" in
  let err = Filename.temp_file "avp_cli" ".err" in
  Out_channel.with_open_bin file (fun oc -> output_string oc source);
  let code =
    Sys.command
      (Printf.sprintf "%s %s %s >/dev/null 2>%s" avp args
         (Filename.quote file) (Filename.quote err))
  in
  let stderr = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove file;
  Sys.remove err;
  (file, code, stderr)

let check_diagnostic ~args ~source ~expected () =
  let file, code, stderr = run_avp args source in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check string) "stderr" (file ^ expected ^ "\n") stderr

(* The absint summary line: pp_control has invariants but no constant
   nets, so nothing is folded or reported as constant. *)
let test_invariants_summary () =
  let out = Filename.temp_file "avp_cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s invariants pp >%s 2>&1" avp (Filename.quote out))
  in
  let first = In_channel.with_open_bin out In_channel.input_line in
  Sys.remove out;
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check (option string)) "summary line"
    (Some "pp_control.v: 27 nets, 6 with proven invariants, 0 constant")
    first

let syntax_error = "module m(a;\nendmodule\n"

let ansi_ports = "module m(input a, output b);\n  assign b = a;\nendmodule\n"

let unknown_identifier =
  "module m(clk);\n  input clk;\n  wire w;\n  assign w = nosuch;\nendmodule\n"

let no_clock =
  "module m(clk, rst, q);\n  input clk, rst;\n  output q;\n\
  \  reg q; // avp state\n  // avp reset rst\n\
  \  always @(posedge clk) q <= rst;\nendmodule\n"

let case name ~args ~source ~expected =
  Alcotest.test_case name `Quick (check_diagnostic ~args ~source ~expected)

let suite =
  [
    case "syntax error" ~args:"enumerate" ~source:syntax_error
      ~expected:":1:11: error: expected ) but found ;";
    case "ANSI port list" ~args:"lint" ~source:ansi_ports
      ~expected:
        ":1:10: error: ANSI-style port declarations are not supported; \
         declare port directions in the module body";
    case "empty file" ~args:"lint" ~source:"" ~expected:": error: empty design";
    case "unknown identifier" ~args:"invariants" ~source:unknown_identifier
      ~expected:": error: unknown identifier nosuch in scope";
    case "no clock directive" ~args:"tour" ~source:no_clock
      ~expected:": error: no clock: pass ~clock or add '// avp clock <net>'";
    Alcotest.test_case "invariants pp summary" `Quick test_invariants_summary;
  ]
