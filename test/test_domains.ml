(* Real OS-level parallelism is used by domain-parallel redo alone, and the
   domain count must never change recovered state.  The gate here recovers
   the same crash image with domain-parallel redo at 1/2/4/8 partitions and
   checks store digest, logical digest, and apply counts byte-identical to
   the single-domain reference (simulated redo time may differ: each
   partition repeats the analysis on its own engine); and instantiates one
   crash image from several domains at once, as [redo_pass_domains] does,
   to prove images are immutable shareable inputs.  The obs structures'
   single-domain ownership guards are exercised last. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Recovery = Deut_core.Recovery
module Rs = Deut_core.Recovery_stats
module Workload = Deut_workload.Workload
module Driver = Deut_workload.Driver
module Experiment = Deut_workload.Experiment
module Client_sched = Deut_workload.Client_sched
module Domain_pool = Deut_sim.Domain_pool
module Metrics = Deut_obs.Metrics
module Trace = Deut_obs.Trace

let check = Alcotest.(check bool)
let domain_counts = [ 1; 2; 4; 8 ]

let small_config ?(domains = 1) () =
  {
    Config.default with
    Config.page_size = 1024;
    pool_pages = 48;
    delta_period = 40;
    delta_capacity = 64;
    shards = 1;
    redo_workers = 1;
    domains;
  }

let make_crash ?(op_mix = Workload.Update_only) ?(rows = 1200) () =
  let spec = { Workload.default with Workload.rows; value_size = 16; op_mix; seed = 11 } in
  let driver = Driver.create ~config:(small_config ()) spec in
  Driver.run_crash_protocol driver ~checkpoints:3 ~interval:300 ~tail:15;
  Driver.start_loser driver ~ops:8;
  (driver, Driver.crash driver)

(* The redo decisions and undo work — everything that determines state.
   IO/prefetch/stall counters legitimately vary with the domain count
   (each partition repeats the analysis on its own engine). *)
let apply_counts (s : Rs.t) =
  [
    s.Rs.records_scanned;
    s.Rs.redo_candidates;
    s.Rs.redo_applied;
    s.Rs.skipped_dpt;
    s.Rs.skipped_rlsn;
    s.Rs.skipped_plsn;
    s.Rs.tail_records;
    s.Rs.dpt_size;
    s.Rs.smos_replayed;
    s.Rs.losers;
    s.Rs.clrs_written;
  ]

let recover_with driver image method_ domains =
  let db, stats = Db.recover ~config:(small_config ~domains ()) image method_ in
  (match Driver.verify_recovered driver db with
  | Ok () -> ()
  | Error msg ->
      Alcotest.failf "%s at %d domains: wrong state: %s" (Recovery.method_to_string method_)
        domains msg);
  let logical = Client_sched.logical_digest db in
  (Experiment.store_digest db, logical, apply_counts stats)

(* The tier-1 determinism gate: every partition count yields the same
   bytes as the single-domain reference scheduler. *)
let test_redo_deterministic () =
  let driver, image = make_crash () in
  List.iter
    (fun m ->
      let results = List.map (recover_with driver image m) domain_counts in
      match results with
      | [] -> ()
      | (store1, logical1, counts1) :: rest ->
          List.iteri
            (fun i (store, logical, counts) ->
              let d = List.nth domain_counts (i + 1) in
              check
                (Printf.sprintf "%s: %d domains, byte-identical store"
                   (Recovery.method_to_string m) d)
                true
                (String.equal store store1);
              check
                (Printf.sprintf "%s: %d domains, byte-identical logical state"
                   (Recovery.method_to_string m) d)
                true
                (String.equal logical logical1);
              Alcotest.(check (list int))
                (Printf.sprintf "%s: %d domains, identical apply counts"
                   (Recovery.method_to_string m) d)
                counts1 counts)
            rest)
    [ Recovery.Log0; Recovery.Log1; Recovery.Log2 ]

(* Methods outside the logical family fall back to their existing paths at
   any domain setting; the state contract is the same. *)
let test_non_logical_fallback () =
  let driver, image = make_crash () in
  List.iter
    (fun m ->
      let ref1 = recover_with driver image m 1 in
      let par4 = recover_with driver image m 4 in
      check
        (Printf.sprintf "%s: domains=4 falls back byte-identically"
           (Recovery.method_to_string m))
        true (ref1 = par4))
    [ Recovery.Sql1; Recovery.Sql2 ]

(* An SMO-heavy image stresses partition ownership: leaves that split
   during the run are located in the final (post-DC-recovery) tree, so
   every domain must assign each record to the same partition. *)
let test_redo_smo_heavy () =
  let driver, image =
    make_crash
      ~op_mix:(Workload.Mixed { update = 0.3; insert = 0.6; delete = 0.1; read = 0.0 })
      ~rows:800 ()
  in
  List.iter
    (fun m ->
      let results = List.map (recover_with driver image m) [ 1; 4 ] in
      match results with
      | [ r1; r4 ] ->
          check
            (Printf.sprintf "%s: SMO-heavy image, domains=4 identical"
               (Recovery.method_to_string m))
            true (r1 = r4)
      | _ -> assert false)
    [ Recovery.Log1; Recovery.Log2 ]

(* A crash image is an immutable input: several domains instantiating and
   recovering from the same image concurrently must neither perturb each
   other nor the image (a later sequential recovery still matches). *)
let test_crash_image_isolation () =
  let driver, image = make_crash () in
  let reference = recover_with driver image Recovery.Log1 1 in
  let pool = Domain_pool.create ~domains:4 in
  let results =
    Domain_pool.map pool
      (fun _ -> recover_with driver image Recovery.Log1 1)
      [ 0; 1; 2; 3 ]
  in
  List.iteri
    (fun i r ->
      check (Printf.sprintf "concurrent recovery %d matches reference" i) true (r = reference))
    results;
  check "image unperturbed after concurrent use" true
    (recover_with driver image Recovery.Log1 1 = reference)

let test_domain_pool () =
  let pool = Domain_pool.create ~domains:4 in
  let items = List.init 37 Fun.id in
  Alcotest.(check (list int))
    "results in input order" (List.map (fun i -> i * i) items)
    (Domain_pool.map pool (fun i -> i * i) items);
  check "exception propagates" true
    (match Domain_pool.map pool (fun i -> if i = 13 then failwith "boom" else i) items with
    | _ -> false
    | exception Failure msg -> msg = "boom")

(* The loud ownership guards: instrumentation structures refuse writes
   from domains that do not own them instead of tearing their rings. *)
let test_obs_owner_guards () =
  let metrics = Metrics.create () in
  let trace = Trace.create ~now:(fun () -> 0.0) () in
  let refused f =
    Domain.join
      (Domain.spawn (fun () ->
           match f () with () -> false | exception Invalid_argument _ -> true))
  in
  check "metrics registration refused cross-domain" true
    (refused (fun () -> ignore (Metrics.counter metrics "guard.test")));
  check "trace push refused cross-domain" true
    (refused (fun () -> Trace.instant trace ~name:"guard" ~cat:"test" ()));
  (* The owner itself is unaffected. *)
  Metrics.incr (Metrics.counter metrics "guard.test");
  Trace.instant trace ~name:"guard" ~cat:"test" ();
  check "owner writes fine" true
    (Metrics.read_int metrics "guard.test" = 1 && Trace.emitted trace = 1)

let suite =
  [
    Alcotest.test_case "domain redo is timing-only" `Quick test_redo_deterministic;
    Alcotest.test_case "non-logical methods fall back" `Quick test_non_logical_fallback;
    Alcotest.test_case "SMO-heavy partition ownership" `Quick test_redo_smo_heavy;
    Alcotest.test_case "crash-image isolation" `Quick test_crash_image_isolation;
    Alcotest.test_case "domain pool order and errors" `Quick test_domain_pool;
    Alcotest.test_case "obs ownership guards" `Quick test_obs_owner_guards;
  ]
