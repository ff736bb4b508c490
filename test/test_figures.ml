(* The experiment registry: every entry is reachable under a unique CLI name
   and a unique bench/JSON key, the OLTP sweeps are byte-deterministic at
   their quick defaults, and the parameter parser rejects values that would
   crash a runner or label a row "0 clients". *)

module Figures = Deut_workload.Figures

let entry name = List.find (fun (e : Figures.entry) -> e.name = name) Figures.registry

let unique xs = List.length (List.sort_uniq compare xs) = List.length xs

let test_names_unique () =
  let names = List.map (fun (e : Figures.entry) -> e.name) Figures.registry in
  let keys = List.map (fun (e : Figures.entry) -> e.key) Figures.registry in
  Alcotest.(check int) "nine experiments" 9 (List.length Figures.registry);
  Alcotest.(check bool) "subcommand names unique" true (unique names);
  Alcotest.(check bool) "bench/JSON keys unique" true (unique keys)

(* Same entry, same quick parameters, same scale: byte-identical tables and
   JSON, run after run. *)
let test_deterministic name () =
  let ctx = { Figures.scale = 512; progress = ignore } in
  let render () =
    let out = Figures.run ~quick:true ctx (entry name) in
    (out.sections, Option.map Figures.json_to_string out.json)
  in
  let sections1, json1 = render () in
  let sections2, json2 = render () in
  Alcotest.(check (list (pair string string))) "text" sections1 sections2;
  Alcotest.(check (option string)) "json" json1 json2;
  Alcotest.(check bool) "has a table" true (sections1 <> [])

let test_rejects_below_one () =
  let rejected e name v = Result.is_error (Figures.parse_arg (entry e) name v) in
  Alcotest.(check bool) "clients --counts 0" true (rejected "clients" "counts" "0");
  Alcotest.(check bool) "shards --counts 1,0" true (rejected "shards" "counts" "1,0");
  Alcotest.(check bool) "archive --rounds 0" true (rejected "archive" "rounds" "0");
  Alcotest.(check bool) "fig3 --multipliers 0" true (rejected "fig3" "multipliers" "0");
  Alcotest.(check bool) "optional count 0" true
    (Result.is_error (Figures.parse Figures.Int_opt "0"));
  Alcotest.(check bool) "workers --counts ''" true (rejected "workers" "counts" "");
  Alcotest.(check bool) "archive --rounds 1" false (rejected "archive" "rounds" "1");
  Alcotest.(check bool) "scale 0" true
    (Result.is_error (Figures.parse Figures.scale_param.Figures.kind "0"))

let suite =
  [
    Alcotest.test_case "registry names and keys unique" `Quick test_names_unique;
    Alcotest.test_case "clients deterministic" `Quick (test_deterministic "clients");
    Alcotest.test_case "shards deterministic" `Quick (test_deterministic "shards");
    Alcotest.test_case "archive deterministic" `Quick (test_deterministic "archive");
    Alcotest.test_case "parameters below 1 rejected" `Quick test_rejects_below_one;
  ]
