type severity = Warning | Error

type t = {
  severity : severity;
  rule : string;
  net : string option;  (* net or FSM variable name *)
  net_id : int;  (* elaborated net id, or -1 when not net-anchored *)
  loc : Ast.loc option;
  message : string;
  path : string list;  (* taint / cycle path, source first *)
}

let make ?(net_id = -1) ?net ?loc ?(path = []) severity rule message =
  { severity; rule; net; net_id; loc; message; path }

let severity_rank = function Error -> 0 | Warning -> 1

let severity_string = function Warning -> "warning" | Error -> "error"

(* Deterministic total order: (severity, rule, net id, net name,
   position, message).  Byte-stable across runs, so golden tests and
   --json output never depend on pass or hash-table iteration order. *)
let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.rule b.rule in
    if c <> 0 then c
    else
      let c = Int.compare a.net_id b.net_id in
      if c <> 0 then c
      else
        let c =
          Option.compare String.compare a.net b.net
        in
        if c <> 0 then c
        else
          let line = function
            | None -> 0
            | Some l -> l.Ast.line
          in
          let c = Int.compare (line a.loc) (line b.loc) in
          if c <> 0 then c else String.compare a.message b.message

let sort findings = List.sort compare findings

let pp ?file ppf f =
  (match f.loc, file with
   | Some l, Some file when l.Ast.line > 0 ->
     Format.fprintf ppf "%s:%d: " file l.Ast.line
   | Some l, None when l.Ast.line > 0 -> Format.fprintf ppf "%d: " l.Ast.line
   | _, _ -> ());
  Format.fprintf ppf "%s: [%s]%s %s"
    (severity_string f.severity)
    f.rule
    (match f.net with Some n -> " " ^ n | None -> "")
    f.message;
  match f.path with
  | [] -> ()
  | p ->
    Format.fprintf ppf " (path: %s)" (String.concat " -> " p)

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json_object ?file f =
  let b = Buffer.create 128 in
  let field ?(sep = true) name value =
    if sep then Buffer.add_string b ", ";
    Buffer.add_string b (Printf.sprintf "\"%s\": %s" name value)
  in
  let str s = "\"" ^ json_escape s ^ "\"" in
  Buffer.add_char b '{';
  field ~sep:false "severity" (str (severity_string f.severity));
  field "rule" (str f.rule);
  (match f.net with Some n -> field "net" (str n) | None -> ());
  (match file with Some fl -> field "file" (str fl) | None -> ());
  (match f.loc with
   | Some l when l.Ast.line > 0 ->
     field "line" (string_of_int l.Ast.line);
     field "col" (string_of_int l.Ast.col)
   | _ -> ());
  field "message" (str f.message);
  (if f.path <> [] then
     field "path"
       ("[" ^ String.concat ", " (List.map str f.path) ^ "]"));
  Buffer.add_char b '}';
  Buffer.contents b

let to_json ?file findings =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n  \"findings\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    ";
      Buffer.add_string b (to_json_object ?file f))
    findings;
  Buffer.add_string b "\n  ],\n";
  let count sev =
    List.length (List.filter (fun f -> f.severity = sev) findings)
  in
  Buffer.add_string b
    (Printf.sprintf "  \"errors\": %d,\n  \"warnings\": %d\n}\n" (count Error)
       (count Warning));
  Buffer.contents b
