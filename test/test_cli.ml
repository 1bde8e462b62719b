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

let syntax_error = "module m(a;\nendmodule\n"

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
    case "empty file" ~args:"lint" ~source:"" ~expected:": error: empty design";
    case "unknown identifier" ~args:"invariants" ~source:unknown_identifier
      ~expected:": error: unknown identifier nosuch in scope";
    case "no clock directive" ~args:"tour" ~source:no_clock
      ~expected:": error: no clock: pass ~clock or add '// avp clock <net>'";
  ]
