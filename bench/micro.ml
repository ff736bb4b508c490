(* Bechamel micro-benchmarks: one Test.make per hot path of the engine.
   These measure real wall-clock costs (OLS estimate of ns/op), in contrast
   to the figure tables, which report simulated recovery time. *)

open Bechamel
open Toolkit
module Page = Deut_storage.Page
module Page_store = Deut_storage.Page_store
module Pool = Deut_buffer.Buffer_pool
module Btree = Deut_btree.Btree
module Node = Deut_btree.Node
module Lr = Deut_wal.Log_record
module Log = Deut_wal.Log_manager
module Lsn = Deut_wal.Lsn
module Dpt = Deut_core.Dpt
module Rng = Deut_sim.Rng

let sample_update =
  Lr.Update_rec
    {
      txn = 42;
      table = 1;
      key = 123456;
      op = Lr.Update;
      before = Some "previous-value-of-the-rec";
      after = Some "updated-value-of-the-recx";
      pid_hint = 9876;
      prev_lsn = 1_000_000;
    }

let encoded_update = Lr.encode sample_update

(* Shared read-mostly fixture: a 20k-row tree in a pool large enough to hold
   it, so lookups and updates measure CPU cost, not the simulated disk. *)
let fixture =
  lazy
    (let clock = Deut_sim.Clock.create () in
     let disk = Deut_sim.Disk.create clock in
     let store = Page_store.create ~page_size:4096 in
     let pool = Pool.create ~capacity:2048 ~store ~disk ~clock () in
     let log = Log.create ~page_size:4096 in
     let log_smo smo = Log.append log (Lr.Smo smo) in
     Btree.format_store ~pool ~log_smo;
     let tree = Btree.create ~pool ~table:1 ~log_smo () in
     let lsn = ref 0 in
     for k = 0 to 19_999 do
       match Btree.prepare_write tree ~key:k ~op:Lr.Insert ~value_len:20 with
       | Btree.Leaf { pid; _ } ->
           incr lsn;
           Btree.apply_insert tree ~pid ~key:k ~value:(Printf.sprintf "%020d" k) ~lsn:!lsn
       | _ -> assert false
     done;
     (pool, tree, lsn))

let tests =
  let rng = Rng.create ~seed:99 in
  [
    Test.make ~name:"log-record-encode" (Staged.stage (fun () -> Lr.encode sample_update));
    Test.make ~name:"log-record-decode" (Staged.stage (fun () -> Lr.decode encoded_update));
    Test.make ~name:"btree-lookup"
      (Staged.stage (fun () ->
           let _, tree, _ = Lazy.force fixture in
           ignore (Btree.lookup tree ~key:(Rng.int rng 20_000))));
    Test.make ~name:"btree-update-in-place"
      (Staged.stage (fun () ->
           let _, tree, lsn = Lazy.force fixture in
           let key = Rng.int rng 20_000 in
           match Btree.prepare_write tree ~key ~op:Lr.Update ~value_len:20 with
           | Btree.Leaf { pid; _ } ->
               incr lsn;
               Btree.apply_update tree ~pid ~key ~value:(Printf.sprintf "%020d" key) ~lsn:!lsn
           | _ -> assert false));
    Test.make ~name:"buffer-pool-hit"
      (Staged.stage (fun () ->
           let pool, tree, _ = Lazy.force fixture in
           ignore (Pool.get pool (Btree.root_pid tree))));
    Test.make ~name:"dpt-add-find"
      (let dpt = Dpt.create () in
       Staged.stage (fun () ->
           let pid = Rng.int rng 4096 in
           ignore (Dpt.add dpt ~pid ~lsn:pid);
           ignore (Dpt.find dpt pid)));
  ]

let run () =
  (* Build the shared tree before any timing starts: forced lazily by the
     first test that needs it, the 20k-row load would land inside one of
     that test's samples and wreck its OLS fit. *)
  ignore (Lazy.force fixture);
  (* DEUT_QUICK is a smoke test: a tenth of the sampling budget still gives
     a stable OLS slope for these tight loops, and keeps the whole harness
     inside the CI time budget. *)
  let quick = Sys.getenv_opt "DEUT_QUICK" <> None in
  let cfg =
    if quick then Benchmark.cfg ~limit:400 ~quota:(Time.second 0.08) ~kde:None ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-24s %14s %10s\n%s\n" "benchmark" "ns/op (OLS)" "r²"
       (String.make 50 '-'));
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let measurement = Benchmark.run cfg [ instance ] elt in
          let result = Analyze.one ols instance measurement in
          let estimate =
            match Analyze.OLS.estimates result with Some [ e ] -> e | _ -> nan
          in
          let r2 = match Analyze.OLS.r_square result with Some r -> r | None -> nan in
          Buffer.add_string buf
            (Printf.sprintf "%-24s %14.1f %10.4f\n" (Test.Elt.name elt) estimate r2))
        (Test.elements test))
    tests;
  Buffer.contents buf
