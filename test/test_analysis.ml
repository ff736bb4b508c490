(* Trace-mining profiler: stall-attribution invariants against the engine
   counters and the stall histogram, prefetch hit/late/wasted
   reconciliation, byte-identical same-seed profiles, JSON round-trip, the
   regression gate and empty-input guards. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Engine = Deut_core.Engine
module Recovery = Deut_core.Recovery
module Recovery_stats = Deut_core.Recovery_stats
module Workload = Deut_workload.Workload
module Driver = Deut_workload.Driver
module Trace = Deut_obs.Trace
module Metrics = Deut_obs.Metrics
module Analysis = Deut_obs.Analysis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let close msg a b = check (Printf.sprintf "%s (%.6f vs %.6f)" msg a b) true (Float.abs (a -. b) < 1e-6)

(* Same small traced setup as test_trace.ml. *)
let traced_config =
  {
    Config.default with
    Config.page_size = 1024;
    pool_pages = 48;
    delta_period = 40;
    delta_capacity = 64;
    shards = 1;
    tracing = true;
    trace_capacity = 1 lsl 18;
    (* Pin the timing overlays so the single-cursor invariants below
       (phase stall <= phase duration) hold regardless of the
       DEUT_REDO_WORKERS / DEUT_CLIENTS environment the CI matrix sets. *)
    redo_workers = 1;
    clients = 1;
  }

let small_spec = { Workload.default with Workload.rows = 1200; value_size = 16; seed = 5 }

let make_crash () =
  let driver = Driver.create ~config:traced_config small_spec in
  Driver.run_crash_protocol driver ~checkpoints:3 ~interval:300 ~tail:15;
  Driver.start_loser driver ~ops:8;
  (driver, Driver.crash driver)

let recover_profiled image method_ =
  let db, stats = Db.recover ~config:traced_config image method_ in
  let tr =
    match Engine.trace (Db.engine db) with
    | Some tr -> tr
    | None -> Alcotest.fail "tracing enabled in config but engine has no trace"
  in
  check "ring did not overflow" true (Trace.dropped tr = 0);
  (db, stats, tr, Analysis.of_trace tr)

(* ---------- attribution invariants ---------- *)

let test_stall_attribution_matches_counters () =
  let _, image = make_crash () in
  List.iter
    (fun m ->
      let name fmt = Printf.sprintf "%s: %s" (Recovery.method_to_string m) fmt in
      let db, stats, _, p = recover_profiled image m in
      check_int (name "stall span count = counter") stats.Recovery_stats.stalls p.Analysis.stall_count;
      close (name "stall mass = counter stall time")
        (stats.Recovery_stats.data_stall_us +. stats.Recovery_stats.index_stall_us)
        p.Analysis.stall_total_us;
      (* The histogram records exactly the waits the spans describe: total
         stall time attributed by the profiler equals the histogram mass. *)
      (match Metrics.find_histogram (Engine.metrics (Db.engine db)) "cache.stall_wait_us" with
      | None -> Alcotest.fail "cache.stall_wait_us not registered"
      | Some h ->
          close (name "stall mass = histogram mass") (Metrics.sum h) p.Analysis.stall_total_us;
          check_int (name "stall spans = histogram n") (Metrics.observations h)
            p.Analysis.stall_count);
      (* Every stall waits on a request the deterministic disk model had
         already scheduled, so its span must find its device span. *)
      close (name "every stall attributed") p.Analysis.stall_total_us
        p.Analysis.stall_attributed_us;
      let bucket_sum =
        List.fold_left (fun acc s -> acc +. s.Analysis.src_stall_us) 0.0 p.Analysis.sources
      in
      close (name "attribution buckets partition the mass") p.Analysis.stall_attributed_us
        bucket_sum;
      check_int (name "bucket counts partition the spans") p.Analysis.stall_count
        (List.fold_left (fun acc s -> acc + s.Analysis.src_count) 0 p.Analysis.sources))
    [ Recovery.Log2; Recovery.Sql2; Recovery.Log1 ]

let test_prefetch_classes_reconcile () =
  let _, image = make_crash () in
  List.iter
    (fun m ->
      let name fmt = Printf.sprintf "%s: %s" (Recovery.method_to_string m) fmt in
      let _, stats, _, p = recover_profiled image m in
      check_int (name "hit + late = prefetch_hits counter")
        stats.Recovery_stats.prefetch_hits
        (p.Analysis.pf_hit + p.Analysis.pf_late);
      check_int (name "issued = prefetch_issued counter") stats.Recovery_stats.prefetch_issued
        p.Analysis.pf_issued;
      check_int (name "hit + late + wasted = issued") p.Analysis.pf_issued
        (p.Analysis.pf_hit + p.Analysis.pf_late + p.Analysis.pf_wasted);
      check_int (name "fetch total = counters")
        (stats.Recovery_stats.data_page_fetches + stats.Recovery_stats.index_page_fetches)
        p.Analysis.fetch_total;
      check_int (name "index fetches = counter") stats.Recovery_stats.index_page_fetches
        p.Analysis.fetch_index;
      check_int (name "prefetched fetches = claims") stats.Recovery_stats.prefetch_hits
        p.Analysis.fetch_prefetched)
    [ Recovery.Log2; Recovery.Sql2 ]

let test_phase_budget_consistent () =
  let _, image = make_crash () in
  let _, stats, _, p = recover_profiled image Recovery.Log2 in
  close "profile total = analysis + redo + undo"
    (stats.Recovery_stats.analysis_us +. stats.Recovery_stats.redo_us
    +. stats.Recovery_stats.undo_us)
    p.Analysis.total_us;
  List.iter
    (fun ph ->
      check
        (Printf.sprintf "phase %s: overlap <= io busy" ph.Analysis.ph_name)
        true
        (ph.Analysis.ph_overlap_us <= ph.Analysis.ph_io_us +. 1e-9);
      check
        (Printf.sprintf "phase %s: budget components non-negative" ph.Analysis.ph_name)
        true
        (ph.Analysis.ph_stall_us >= 0.0 && ph.Analysis.ph_io_us >= 0.0
        && ph.Analysis.ph_compute_us >= 0.0))
    p.Analysis.phases;
  (* Single-cursor recovery: a phase cannot wait longer than it lasted. *)
  List.iter
    (fun ph ->
      check
        (Printf.sprintf "phase %s: stall <= duration" ph.Analysis.ph_name)
        true
        (ph.Analysis.ph_stall_us <= ph.Analysis.ph_dur_us +. 1e-9))
    p.Analysis.phases

(* ---------- determinism and round-trip ---------- *)

let test_profiles_byte_identical () =
  let _, image = make_crash () in
  List.iter
    (fun m ->
      let _, _, _, p1 = recover_profiled image m in
      let _, _, _, p2 = recover_profiled image m in
      check
        (Printf.sprintf "%s: same-seed profile JSON byte-identical" (Recovery.method_to_string m))
        true
        (String.equal (Analysis.to_json p1) (Analysis.to_json p2));
      check
        (Printf.sprintf "%s: same-seed render byte-identical" (Recovery.method_to_string m))
        true
        (String.equal (Analysis.render p1) (Analysis.render p2)))
    [ Recovery.Log2; Recovery.Sql2 ]

let test_json_roundtrip () =
  let _, image = make_crash () in
  let _, _, _, p = recover_profiled image Recovery.Log2 in
  let json = Analysis.to_json p in
  (match Analysis.of_json json with
  | Error msg -> Alcotest.failf "of_json failed on own output: %s" msg
  | Ok p' ->
      Alcotest.(check string) "parse-print fixed point" json (Analysis.to_json p');
      check_int "fetch counts survive" p.Analysis.fetch_total p'.Analysis.fetch_total;
      check_int "sources survive" (List.length p.Analysis.sources)
        (List.length p'.Analysis.sources));
  check "garbage rejected" true (Result.is_error (Analysis.of_json "{nope"));
  check "wrong shape rejected" true (Result.is_error (Analysis.of_json "{\"schema\":1}"))

(* ---------- regression gate ---------- *)

let test_regression_gate () =
  let _, image = make_crash () in
  let _, _, _, p = recover_profiled image Recovery.Log2 in
  check "profile passes against itself" true
    (Analysis.check_ok (Analysis.check ~baseline:p ~current:p ~tolerance_pct:10.0));
  let slower =
    {
      p with
      Analysis.stall_total_us = (p.Analysis.stall_total_us *. 1.5) +. 10_000.0;
      stall_attributed_us = (p.Analysis.stall_attributed_us *. 1.5) +. 10_000.0;
    }
  in
  check "50% more stall time fails the gate" false
    (Analysis.check_ok (Analysis.check ~baseline:p ~current:slower ~tolerance_pct:10.0));
  let more_fetches = { p with Analysis.fetch_total = p.Analysis.fetch_total + 100 } in
  check "fetch-count regression fails the gate" false
    (Analysis.check_ok (Analysis.check ~baseline:p ~current:more_fetches ~tolerance_pct:10.0));
  let faster = { p with Analysis.stall_total_us = p.Analysis.stall_total_us /. 2.0 } in
  check "improvement passes the gate" true
    (Analysis.check_ok (Analysis.check ~baseline:p ~current:faster ~tolerance_pct:10.0));
  (* Near-zero baselines get absolute slack instead of percentage noise. *)
  let zero = { p with Analysis.fetch_total = 0 } in
  check "tiny count drift tolerated" true
    (Analysis.check_ok
       (Analysis.check ~baseline:zero
          ~current:{ zero with Analysis.fetch_total = 2 }
          ~tolerance_pct:0.0))

(* ---------- empty inputs must yield zeros, not NaN ---------- *)

let no_nan p =
  List.iter
    (fun (name, v) -> check (name ^ " is finite") true (Float.is_finite v))
    [
      ("total_us", p.Analysis.total_us);
      ("stall_total_us", p.Analysis.stall_total_us);
      ("stall_attributed_us", p.Analysis.stall_attributed_us);
      ("late_fraction", Analysis.late_fraction p);
      ("wasted_fraction", Analysis.wasted_fraction p);
      ("attributed_fraction", Analysis.attributed_fraction p);
    ]

let test_empty_trace_guards () =
  let p = Analysis.of_events [] in
  check_int "no events, no fetches" 0 p.Analysis.fetch_total;
  check_int "no events, no stalls" 0 p.Analysis.stall_count;
  close "no events, zero stall mass" 0.0 p.Analysis.stall_total_us;
  close "late fraction of nothing is 0" 0.0 (Analysis.late_fraction p);
  close "wasted fraction of nothing is 0" 0.0 (Analysis.wasted_fraction p);
  close "attribution of no stalls is vacuously complete" 1.0 (Analysis.attributed_fraction p);
  no_nan p;
  check "render total on empty input" true (String.length (Analysis.render p) > 0);
  (match Analysis.of_json (Analysis.to_json p) with
  | Ok p' -> Alcotest.(check string) "empty profile round-trips" (Analysis.to_json p) (Analysis.to_json p')
  | Error msg -> Alcotest.failf "empty profile does not round-trip: %s" msg);
  check "empty histogram percentile is 0" true
    (let m = Metrics.create () in
     Metrics.percentile (Metrics.histogram m "h") 95.0 = 0.0)

(* A warm, hit-everything run: phases exist but nothing stalled and nothing
   was fetched. *)
let test_warm_run_all_zero () =
  let clock = ref 0.0 in
  let tr = Trace.create ~now:(fun () -> !clock) ~capacity:64 () in
  Trace.span tr ~name:"analysis" ~cat:"phase" ~ts:0.0 ~dur:10.0 ();
  Trace.span tr ~name:"redo" ~cat:"phase" ~ts:10.0 ~dur:20.0 ();
  Trace.span tr ~name:"undo" ~cat:"phase" ~ts:30.0 ~dur:5.0 ();
  let p = Analysis.of_trace tr in
  close "warm total is the phase time" 35.0 p.Analysis.total_us;
  check_int "warm run fetched nothing" 0 p.Analysis.fetch_total;
  close "warm run stalled for nothing" 0.0 p.Analysis.stall_total_us;
  no_nan p;
  List.iter
    (fun ph -> close ("warm " ^ ph.Analysis.ph_name ^ " is pure compute") ph.Analysis.ph_dur_us
        ph.Analysis.ph_compute_us)
    p.Analysis.phases

(* ---------- synthetic classification ---------- *)

let test_synthetic_classification () =
  let clock = ref 0.0 in
  let tr = Trace.create ~now:(fun () -> !clock) ~capacity:64 () in
  let data = Trace.track_data_disk in
  (* One batch of three pages on the data disk, busy 0–100. *)
  List.iter
    (fun pid ->
      Trace.instant tr ~name:"prefetch_page" ~cat:"cache" ~args:[ ("pid", pid); ("lane", 0) ] ())
    [ 1; 2; 3 ];
  Trace.span tr ~name:"io_batch" ~cat:"io" ~track:data ~ts:0.0 ~dur:100.0
    ~args:[ ("first_pid", 1); ("count", 3) ]
    ();
  (* Page 1 claimed after completion: a hit (zero-duration fetch). *)
  Trace.span tr ~name:"page_fetch" ~cat:"cache" ~ts:110.0 ~dur:0.0
    ~args:[ ("pid", 1); ("prefetched", 1); ("index", 0) ]
    ();
  (* Page 2 claimed at 60, waits until the batch lands at 100: late. *)
  Trace.span tr ~name:"stall" ~cat:"cache" ~ts:60.0 ~dur:40.0 ~args:[ ("pid", 2) ] ();
  Trace.span tr ~name:"page_fetch" ~cat:"cache" ~ts:60.0 ~dur:40.0
    ~args:[ ("pid", 2); ("prefetched", 1); ("index", 1) ]
    ();
  (* Page 3 never claimed: wasted.  A demand read stalls 120–150. *)
  Trace.span tr ~name:"io_read" ~cat:"io" ~track:data ~ts:120.0 ~dur:30.0 ~args:[ ("pid", 9) ] ();
  Trace.span tr ~name:"stall" ~cat:"cache" ~ts:120.0 ~dur:30.0 ~args:[ ("pid", 9) ] ();
  Trace.span tr ~name:"page_fetch" ~cat:"cache" ~ts:120.0 ~dur:30.0
    ~args:[ ("pid", 9); ("prefetched", 0); ("index", 0) ]
    ();
  let p = Analysis.of_trace tr in
  check_int "issued" 3 p.Analysis.pf_issued;
  check_int "hit" 1 p.Analysis.pf_hit;
  check_int "late" 1 p.Analysis.pf_late;
  check_int "wasted" 1 p.Analysis.pf_wasted;
  check_int "fetches" 3 p.Analysis.fetch_total;
  check_int "index fetches" 1 p.Analysis.fetch_index;
  check_int "demand fetches" 1 p.Analysis.fetch_demand;
  close "stall mass" 70.0 p.Analysis.stall_total_us;
  close "fully attributed" 70.0 p.Analysis.stall_attributed_us;
  let find kind =
    List.find_opt (fun s -> s.Analysis.src_kind = kind) p.Analysis.sources
  in
  (match find "io_batch" with
  | Some s ->
      close "late wait charged to the batch" 40.0 s.Analysis.src_stall_us;
      Alcotest.(check string) "batch on the data disk" "data-disk" s.Analysis.src_device
  | None -> Alcotest.fail "no io_batch attribution bucket");
  (match find "io_read" with
  | Some s -> close "demand wait charged to the read" 30.0 s.Analysis.src_stall_us
  | None -> Alcotest.fail "no io_read attribution bucket")

let suite =
  [
    Alcotest.test_case "stall attribution matches counters" `Quick
      test_stall_attribution_matches_counters;
    Alcotest.test_case "prefetch classes reconcile" `Quick test_prefetch_classes_reconcile;
    Alcotest.test_case "phase budget consistent" `Quick test_phase_budget_consistent;
    Alcotest.test_case "same-seed profiles byte-identical" `Quick test_profiles_byte_identical;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "regression gate" `Quick test_regression_gate;
    Alcotest.test_case "empty-input guards" `Quick test_empty_trace_guards;
    Alcotest.test_case "warm run reports zeros" `Quick test_warm_run_all_zero;
    Alcotest.test_case "synthetic classification" `Quick test_synthetic_classification;
  ]
