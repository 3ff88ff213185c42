(* Tests for rendering: tables, Gantt charts, dot output. *)

open Crs_core

let has needle s = Helpers.contains ~needle s

let test_table_alignment () =
  let s =
    Crs_render.Table.render ~header:[ "name"; "value" ]
      [ [ "a"; "1" ]; [ "bb"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  (* header, rule, 2 rows, trailing empty *)
  Alcotest.(check int) "line count" 5 (List.length lines);
  Alcotest.(check bool) "numbers right-aligned" true
    (let row = List.nth lines 2 in
     String.length row > 0 && row.[String.length row - 1] = '1');
  Alcotest.(check bool) "ragged rows padded" true
    (String.length (Crs_render.Table.render ~header:[ "a"; "b"; "c" ] [ [ "x" ] ]) > 0)

let test_table_floats () =
  let s =
    Crs_render.Table.render_floats ~decimals:2 ~header:[ "series"; "v1"; "v2" ]
      [ ("x", [ 1.0; 1.5 ]) ]
  in
  Alcotest.(check bool) "formats decimals" true (has "1.50" s)

let fig1_trace () =
  let inst = Crs_generators.Adversarial.figure1 in
  Execution.run_exn inst (Crs_kernels.Greedy_balance.schedule inst)

let test_gantt_outputs () =
  let trace = fig1_trace () in
  let full = Crs_render.Gantt.render trace in
  List.iter
    (fun p -> Alcotest.(check bool) ("mentions " ^ p) true (has p full))
    [ "p1"; "p2"; "p3" ];
  let compact = Crs_render.Gantt.render_compact trace in
  Alcotest.(check int) "compact has m lines" 3
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' compact)));
  let summary = Crs_render.Gantt.summary trace in
  Alcotest.(check bool) "summary mentions makespan" true (has "makespan: 6" summary)

let test_dot_output () =
  let graph = Crs_hypergraph.Sched_graph.of_trace (fig1_trace ()) in
  let dot = Crs_render.Dot.of_graph graph in
  Alcotest.(check bool) "digraph document" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (has needle dot))
    [ "cluster_0"; "cluster_2"; "job_0_0"; "edge_6"; "}" ]

let test_svg_output () =
  let trace = fig1_trace () in
  let svg = Crs_render.Svg.of_trace trace in
  Alcotest.(check bool) "svg document" true (has "<svg" svg && has "</svg>" svg);
  Alcotest.(check bool) "step labels" true (has ">t6<" svg);
  Alcotest.(check bool) "processor labels" true (has ">p3<" svg);
  Alcotest.(check bool) "job labels" true (has ">j1<" svg);
  Alcotest.(check bool) "completion stars" true (has ">*<" svg)

let test_csv_export () =
  let trace = fig1_trace () in
  let csv = Crs_render.Export.trace_to_csv trace in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  (* Header + one row per (step, active processor). *)
  let active_cells =
    Array.fold_left
      (fun acc (s : Crs_core.Execution.step) ->
        acc + Array.fold_left (fun a o -> if o <> None then a + 1 else a) 0 s.active)
      0 trace.steps
  in
  Alcotest.(check int) "row count" (active_cells + 1) (List.length lines);
  Alcotest.(check bool) "header" true (has "share_exact" (List.hd lines));
  let comp = Crs_render.Export.completions_to_csv trace in
  let comp_lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' comp) in
  Alcotest.(check int) "one row per job + header" 13 (List.length comp_lines)

let test_csv_quoting () =
  let s = Crs_render.Export.series_to_csv ~header:[ "a"; "b" ] [ [ "x,y"; "q\"q" ] ] in
  Alcotest.(check bool) "comma quoted" true (has "\"x,y\"" s);
  Alcotest.(check bool) "quote doubled" true (has "\"q\"\"q\"" s)

let test_render_shares () =
  let sched = Helpers.schedule_of_strings [ [ "1/2"; "1/2" ] ] in
  let s = Crs_render.Gantt.render_shares sched in
  Alcotest.(check int) "one line per step" 1
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' s)))

let suite =
  [
    Alcotest.test_case "table: alignment and padding" `Quick test_table_alignment;
    Alcotest.test_case "table: float rows" `Quick test_table_floats;
    Alcotest.test_case "gantt: full/compact/summary" `Quick test_gantt_outputs;
    Alcotest.test_case "dot: structure" `Quick test_dot_output;
    Alcotest.test_case "svg: structure" `Quick test_svg_output;
    Alcotest.test_case "csv: trace export" `Quick test_csv_export;
    Alcotest.test_case "csv: quoting" `Quick test_csv_quoting;
    Alcotest.test_case "share matrix rendering" `Quick test_render_shares;
  ]
