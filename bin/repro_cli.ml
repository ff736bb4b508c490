(* Command-line driver: run individual experiments from the paper's
   evaluation, or a single detailed crash/recovery cell. *)

open Cmdliner
module Figures = Deut_workload.Figures
module Experiment = Deut_workload.Experiment
module Recovery = Deut_core.Recovery
module Recovery_stats = Deut_core.Recovery_stats
module Config = Deut_core.Config
module Db = Deut_core.Db
module Engine = Deut_core.Engine
module Report = Deut_workload.Report
module Trace = Deut_obs.Trace
module Metrics = Deut_obs.Metrics
module Analysis = Deut_obs.Analysis

let progress msg = Printf.eprintf "[repro] %s\n%!" msg

let write_file p s =
  let oc = open_out p in
  output_string oc s;
  close_out oc

let read_file p =
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* A dropped event means the profile would describe a truncated run; tell
   the operator exactly what capacity to ask for. *)
let fail_on_overflow tr =
  match Trace.overflow_advice tr with
  | None -> ()
  | Some advice ->
      Printf.eprintf "FAIL: %s\n" advice;
      exit 1

(* One Cmdliner argument per registry parameter: every value goes through
   [Figures.parse], so a bad one (a 0 count, an empty list, a scale below 1)
   is a usage error, exit 124. *)
let arg_of_param : type a. a Figures.param -> a Term.t =
 fun p ->
  let conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Figures.parse p.kind s)),
        fun fmt v -> Format.pp_print_string fmt (Figures.show p.kind v) )
  in
  let absent = if Figures.show p.kind p.full = "" then Some "unset" else None in
  let info = Arg.info p.names ?absent ~docv:p.docv ~doc:p.doc in
  match p.kind with
  | Figures.Flag -> Arg.value (Arg.flag info)
  | _ when p.names = [] -> Arg.value (Arg.pos 0 conv p.full info)
  | _ -> Arg.value (Arg.opt conv p.full info)

let rec term_of : type a. a Figures.term -> a Term.t = function
  | Figures.Const x -> Term.const x
  | Figures.App (f, p) -> Term.(term_of f $ arg_of_param p)

let scale_arg = arg_of_param Figures.scale_param

(* One subcommand per registry entry: its tables, then its gate. *)
let experiment_cmd (e : Figures.entry) =
  let run body scale =
    let out = body { Figures.scale; progress } in
    print_string (String.concat "\n" (List.map snd out.Figures.sections));
    match out.Figures.gate with
    | None -> ()
    | Some (Ok msg) ->
        print_newline ();
        print_endline msg
    | Some (Error msg) ->
        Printf.eprintf "FAIL: %s\n" msg;
        exit 1
  in
  Cmd.v (Cmd.info e.name ~doc:e.doc) Term.(const run $ term_of e.term $ scale_arg)

let param names ~docv ~doc kind default =
  arg_of_param { Figures.names; docv; doc; kind; full = default; quick = default }

let cache_arg =
  param [ "c"; "cache" ] ~docv:"MB" ~doc:"Paper-equivalent cache size in MB (64..2048)."
    Figures.Int 512

let workers_arg =
  param [ "w"; "workers" ] ~docv:"N"
    ~doc:"Simulated parallel redo workers (overrides Config.redo_workers)." Figures.Int_opt None

let method_conv =
  let parse s =
    match Figures.parse Figures.Methods s with
    | Ok [ m ] -> Ok m
    | Ok _ -> Error (`Msg (Printf.sprintf "expected one recovery method, got %S" s))
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Recovery.method_to_string m))

let crash_cmd =
  let methods_arg =
    param [ "m"; "methods" ] ~docv:"METHODS"
      ~doc:"Recovery methods to run (log0, log1, log2, sql1, sql2, aries)." Figures.Methods
      Recovery.all_methods
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "r"; "repeat" ] ~docv:"N"
          ~doc:
            "Recover N times per method (fresh copies of the same image) and report redo time              mean ± stddev — the paper notes the high run-to-run variance of the prefetching              methods.")
  in
  let run scale cache methods repeat workers =
    progress (Printf.sprintf "building crash at cache %d MB, scale 1/%d" cache scale);
    let checkpoint_mode =
      if List.mem Recovery.Aries_ckpt methods then Deut_core.Config.Aries_fuzzy
      else Deut_core.Config.Penultimate
    in
    let setup = Experiment.paper_setup ~scale ~cache_mb:cache ~checkpoint_mode () in
    let crash = Experiment.build setup in
    Printf.printf
      "crash image: %d db pages, %d dirty of %d cached (%.1f%% of cache), %d Δ / %d BW \
       records, %d updates run\n\n"
      crash.Experiment.db_pages crash.Experiment.dirty_at_crash crash.Experiment.cached_at_crash
      (100.0 *. crash.Experiment.dirty_fraction)
      crash.Experiment.deltas_total crash.Experiment.bws_total crash.Experiment.updates_run;
    List.iter
      (fun m ->
        let stats = Experiment.run_method ?workers crash m in
        Printf.printf "--- %s (verified against the oracle) ---\n%s\n"
          (Recovery.method_to_string m)
          (Recovery_stats.to_string stats);
        if repeat > 1 then begin
          let acc = Deut_sim.Stats.create () in
          Deut_sim.Stats.add acc (Recovery_stats.redo_ms stats);
          for _ = 2 to repeat do
            Deut_sim.Stats.add acc
              (Recovery_stats.redo_ms (Experiment.run_method ?workers crash m))
          done;
          Printf.printf "redo over %d runs: %s ms\n" repeat (Deut_sim.Stats.summary acc)
        end;
        print_newline ())
      methods
  in
  Cmd.v
    (Cmd.info "crash" ~doc:"One crash, recovered side-by-side with full per-method statistics")
    Term.(const run $ scale_arg $ cache_arg $ methods_arg $ repeat_arg $ workers_arg)

let trace_cmd =
  let method_arg =
    Arg.(
      value
      & pos 0 method_conv Recovery.Log2
      & info [] ~docv:"METHOD"
          ~doc:"Recovery method to trace (log0, log1, log2, sql1, sql2, aries).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Chrome trace_event JSON output path (default trace_<method>_<cache>.json).")
  in
  let csv_arg =
    Arg.(
      value & flag
      & info [ "csv" ] ~doc:"Also write the flat event list as CSV next to the JSON file.")
  in
  let run scale cache method_ out emit_csv workers =
    progress (Printf.sprintf "building crash at cache %d MB, scale 1/%d" cache scale);
    let checkpoint_mode =
      if method_ = Recovery.Aries_ckpt then Config.Aries_fuzzy else Config.Penultimate
    in
    let setup = Experiment.paper_setup ~scale ~cache_mb:cache ~checkpoint_mode () in
    let crash = Experiment.build setup in
    let config =
      Config.of_env
        { setup.Experiment.config with Config.tracing = true; trace_capacity = 1 lsl 20 }
    in
    let config =
      match workers with None -> config | Some w -> { config with Config.redo_workers = w }
    in
    progress (Printf.sprintf "recovering with %s, tracing on" (Recovery.method_to_string method_));
    let db, stats = Db.recover ~config crash.Experiment.image method_ in
    Experiment.verify crash method_ db;
    let tr =
      match Engine.trace (Db.engine db) with
      | Some tr -> tr
      | None -> failwith "tracing was not enabled on the recovery engine"
    in
    let path =
      match out with
      | Some p -> p
      | None ->
          Printf.sprintf "trace_%s_%d.json" (Recovery.method_to_string method_) cache
    in
    write_file path (Trace.to_chrome_json ~metrics:(Engine.metrics (Db.engine db)) tr);
    Printf.printf "wrote %s (%d events, %d dropped)\n" path (Trace.length tr) (Trace.dropped tr);
    if emit_csv then begin
      let csv_path = Filename.remove_extension path ^ ".csv" in
      write_file csv_path (Report.csv ~header:Trace.csv_header ~rows:(Trace.csv_rows tr));
      Printf.printf "wrote %s\n" csv_path
    end;
    print_newline ();
    print_string
      (Report.table ~title:"Per-phase breakdown (simulated ms)"
         ~header:[ "phase"; "ms" ]
         ~rows:
           [
             [ "analysis"; Report.ms (Recovery_stats.analysis_ms stats) ];
             [ "redo"; Report.ms (Recovery_stats.redo_ms stats) ];
             [ "undo"; Report.ms (Recovery_stats.undo_ms stats) ];
             [ "total"; Report.ms (Recovery_stats.total_ms stats) ];
           ]
         ());
    print_newline ();
    (* Cross-check the trace against the counters: every page fetch and every
       redo candidate must have produced exactly one span. *)
    let fetch_spans = Trace.count tr ~kind:Trace.Span ~name:"page_fetch" () in
    let redo_spans = Trace.count tr ~kind:Trace.Span ~name:"redo_op" () in
    let fetches =
      stats.Recovery_stats.data_page_fetches + stats.Recovery_stats.index_page_fetches
    in
    let candidates = stats.Recovery_stats.redo_candidates in
    Printf.printf "page_fetch spans: %d (stats: %d)\nredo_op spans:    %d (stats: %d)\n"
      fetch_spans fetches redo_spans candidates;
    fail_on_overflow tr;
    if fetch_spans <> fetches || redo_spans <> candidates then begin
      Printf.eprintf "FAIL: trace spans disagree with Recovery_stats counters\n";
      exit 1
    end;
    print_endline "trace/counter cross-check OK"
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Recover once with virtual-clock tracing on and export a Chrome trace_event JSON \
          (load it in chrome://tracing or Perfetto); validates span counts against \
          Recovery_stats.")
    Term.(const run $ scale_arg $ cache_arg $ method_arg $ out_arg $ csv_arg $ workers_arg)

(* Shared by analyze/metrics: one traced (or not), oracle-verified recovery
   of the standard Figure-2 crash.  Profiling pins redo_workers/clients to
   1 so the emitted profile is byte-identical regardless of the
   DEUT_REDO_WORKERS / DEUT_CLIENTS environment — a committed baseline must
   not depend on the CI matrix leg that produced it.  DEUT_TRACE_CAP (via
   [Config.of_env]) still applies. *)
let recover_standard ~scale ~cache ~tracing method_ =
  progress (Printf.sprintf "building crash at cache %d MB, scale 1/%d" cache scale);
  let checkpoint_mode =
    if method_ = Recovery.Aries_ckpt then Config.Aries_fuzzy else Config.Penultimate
  in
  let setup = Experiment.paper_setup ~scale ~cache_mb:cache ~checkpoint_mode () in
  let crash = Experiment.build setup in
  let config =
    Config.of_env
      { setup.Experiment.config with Config.tracing; trace_capacity = 1 lsl 20 }
  in
  let config = { config with Config.redo_workers = 1; clients = 1 } in
  progress (Printf.sprintf "recovering with %s%s" (Recovery.method_to_string method_)
       (if tracing then ", tracing on" else ""));
  let db, stats = Db.recover ~config crash.Experiment.image method_ in
  Experiment.verify crash method_ db;
  (db, stats)

let method_pos_arg =
  Arg.(
    value
    & pos 0 method_conv Recovery.Log2
    & info [] ~docv:"METHOD" ~doc:"Recovery method (log0, log1, log2, sql1, sql2, aries).")

let analyze_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the profile JSON here.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Also export the Chrome trace_event JSON (with the metrics snapshot embedded).")
  in
  let csv_arg =
    Arg.(
      value & flag
      & info [ "csv" ] ~doc:"Also write the profile as CSV next to the $(b,--out) file.")
  in
  let check_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"BASELINE"
          ~doc:
            "Compare against a committed baseline profile JSON and exit non-zero when \
             stall-attributed time or fetch counts regress beyond the tolerance.")
  in
  let tolerance_arg =
    Arg.(
      value & opt float 10.0
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:"Allowed regression, in percent over the baseline (default 10).")
  in
  let run scale cache method_ out trace_out emit_csv check tolerance =
    let db, stats = recover_standard ~scale ~cache ~tracing:true method_ in
    let tr =
      match Engine.trace (Db.engine db) with
      | Some tr -> tr
      | None -> failwith "tracing was not enabled on the recovery engine"
    in
    fail_on_overflow tr;
    let meta =
      [
        ("method", Recovery.method_to_string method_);
        ("cache_mb", string_of_int cache);
        ("scale", string_of_int scale);
      ]
    in
    let profile = Analysis.of_trace ~meta tr in
    print_string (Analysis.render profile);
    print_newline ();
    (* The profile is mined from the trace alone; the counters are kept by
       the engine.  They must agree exactly — same invariant as
       test_analysis.ml, enforced on every CLI run. *)
    let fetches =
      stats.Recovery_stats.data_page_fetches + stats.Recovery_stats.index_page_fetches
    in
    let stall_us =
      stats.Recovery_stats.data_stall_us +. stats.Recovery_stats.index_stall_us
    in
    let mismatches =
      List.filter_map
        (fun (name, got, want) -> if got = want then None else Some (name, got, want))
        [
          ("page fetches", profile.Analysis.fetch_total, fetches);
          ("index fetches", profile.Analysis.fetch_index, stats.Recovery_stats.index_page_fetches);
          ("stalls", profile.Analysis.stall_count, stats.Recovery_stats.stalls);
          ( "prefetch claims",
            profile.Analysis.pf_hit + profile.Analysis.pf_late,
            stats.Recovery_stats.prefetch_hits );
          ("prefetch issued", profile.Analysis.pf_issued, stats.Recovery_stats.prefetch_issued);
          ("redo ops", profile.Analysis.redo_ops, stats.Recovery_stats.redo_candidates);
        ]
    in
    let stall_drift = Float.abs (profile.Analysis.stall_total_us -. stall_us) in
    if mismatches <> [] || stall_drift > 0.01 then begin
      List.iter
        (fun (name, got, want) ->
          Printf.eprintf "FAIL: profile %s = %d, counters say %d\n" name got want)
        mismatches;
      if stall_drift > 0.01 then
        Printf.eprintf "FAIL: profile stall mass %.3f µs, counters say %.3f µs\n"
          profile.Analysis.stall_total_us stall_us;
      exit 1
    end;
    print_endline "profile/counter cross-check OK";
    let json = Analysis.to_json profile in
    (match out with
    | Some path ->
        write_file path json;
        Printf.printf "wrote %s\n" path;
        if emit_csv then begin
          let csv_path = Filename.remove_extension path ^ ".csv" in
          write_file csv_path
            (Report.csv ~header:Analysis.csv_header ~rows:(Analysis.csv_rows profile));
          Printf.printf "wrote %s\n" csv_path
        end
    | None -> ());
    (match trace_out with
    | Some path ->
        write_file path (Trace.to_chrome_json ~metrics:(Engine.metrics (Db.engine db)) tr);
        Printf.printf "wrote %s\n" path
    | None -> ());
    match check with
    | None -> ()
    | Some baseline_path ->
        let baseline =
          match Analysis.of_json (read_file baseline_path) with
          | Ok b -> b
          | Error msg ->
              Printf.eprintf "FAIL: cannot parse baseline %s: %s\n" baseline_path msg;
              exit 1
        in
        let checks = Analysis.check ~baseline ~current:profile ~tolerance_pct:tolerance in
        print_newline ();
        Printf.printf "regression gate vs %s (tolerance +%g%%):\n" baseline_path tolerance;
        print_string (Analysis.check_table checks);
        if not (Analysis.check_ok checks) then begin
          Printf.eprintf "FAIL: profile regressed beyond tolerance\n";
          exit 1
        end;
        print_endline "profile gate OK"
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Recover once with tracing on and mine the trace into a profile: per-phase \
          compute/IO/stall budget, every stall attributed to the device span it waited on, \
          prefetched pages classified hit/late/wasted.  Cross-checks the profile against the \
          engine counters; with $(b,--check), gates against a committed baseline profile.")
    Term.(
      const run $ scale_arg $ cache_arg $ method_pos_arg $ out_arg $ trace_out_arg $ csv_arg
      $ check_arg $ tolerance_arg)

let metrics_cmd =
  let run scale cache method_ =
    let db, _stats = recover_standard ~scale ~cache ~tracing:false method_ in
    print_string (Metrics.render (Engine.metrics (Db.engine db)))
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Recover once and dump the engine's metrics registry — the same snapshot \
          $(b,trace)/$(b,analyze) embed as metadata events in the exported JSON.")
    Term.(const run $ scale_arg $ cache_arg $ method_pos_arg)

let forensics_cmd =
  let seed_arg =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"SEED" ~doc:"Fuzz seed whose crash image to rebuild.")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:"Shard count the failing run used (the fuzz suite's DEUT_SHARDS).")
  in
  let run seed shards =
    (* Same generator the fuzz suite uses: the image — flight snapshot
       included — is a pure function of (seed, shards), so this prints
       exactly the black box the failing run crashed with. *)
    let image = Deut_workload.Fuzz.build_image ~shards seed in
    match Deut_core.Crash_image.flight image with
    | Some snap -> print_string (Deut_obs.Flight.render snap)
    | None ->
        Printf.eprintf
          "FAIL: no flight recorder in the image — was it built with DEUT_FLIGHT=0?\n";
        exit 1
  in
  Cmd.v
    (Cmd.info "forensics"
       ~doc:
         "Post-crash forensics for a crash-recovery fuzz seed: rebuild the seed's sampled \
          crash image and dump the flight recorder that rode through the crash — the last \
          N protocol sends/receives, log forces, checkpoints and recovery-phase \
          transitions per component, plus causal chains grouped by message id.  \
          Deterministic: same seed, byte-identical dump.")
    Term.(const run $ seed_arg $ shards_arg)

let () =
  let doc =
    "reproduction of 'Implementing Performance Competitive Logical Recovery' (VLDB 2011)"
  in
  let info = Cmd.info "repro_cli" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          (List.map experiment_cmd Figures.registry
          @ [ crash_cmd; trace_cmd; analyze_cmd; metrics_cmd; forensics_cmd ])))
