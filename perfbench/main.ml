(* The repository benchmark: one named workload per process.

   Each invocation builds its inputs from [--seed] through the public
   [Driver]/[Db]/[Client_sched] calls, times those calls from outside, and
   verifies every recovery against the committed-state oracle.  It prints
   one "name value unit" line per metric and ends with a JSON object that
   [run.py] turns into the benchmark's result line.

   Three kinds of number come out:
   - simulated (deterministic disk/clock model): identical for identical
     seeds, byte for byte — [test_determinism.py] checks it;
   - wall-clock: the host's own, summarised as medians over repetitions;
   - memory: the process's peak RSS and OCaml heap figures.

   Usage (from the repository root):
     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--scale K] [--setups R] [--out DIR] [--commit SHA] *)

module Config = Deut_core.Config
module Db = Deut_core.Db
module Engine = Deut_core.Engine
module Engine_stats = Deut_core.Engine_stats
module Recovery = Deut_core.Recovery
module Rs = Deut_core.Recovery_stats
module Crash_image = Deut_core.Crash_image
module Driver = Deut_workload.Driver
module Experiment = Deut_workload.Experiment
module Workload = Deut_workload.Workload
module Client_sched = Deut_workload.Client_sched
module Oracle = Deut_workload.Oracle
module Analysis = Deut_obs.Analysis
module Trace = Deut_obs.Trace
module Metrics = Deut_obs.Metrics

(* ---------- pinned process environment ---------- *)

(* [Config.default] and the OCaml runtime read these at start-up; any of
   them would silently change a number, so the benchmark refuses them
   rather than guess which ones matter. *)
let refuse_environment () =
  let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let offending =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           starts_with "DEUT_" kv || starts_with "OCAMLRUNPARAM=" kv || starts_with "CAMLRUNPARAM=" kv)
    |> List.map (fun kv -> match String.index_opt kv '=' with Some i -> String.sub kv 0 i | None -> kv)
  in
  if offending <> [] then begin
    Printf.eprintf "perfbench: refusing to run with %s set (they change the measured numbers)\n"
      (String.concat ", " offending);
    exit 2
  end

(* OCaml 5's own defaults, stated so the runtime settings are part of the
   benchmark rather than of whoever launched it. *)
let pin_gc () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 }

(* Every field set here, none inherited: a new [Config] field must be
   pinned before the benchmark compiles again. *)
let pinned_config ~pool_pages ~delta_period ~locking ~group_commit ~clients ~seed : Config.t =
  let seq_device =
    { Deut_sim.Disk.seek_us = 4000.0; transfer_us = 50.0; sequential_gap = 4; batch_seek_factor = 0.75 }
  in
  {
    Config.page_size = 8192;
    pool_pages;
    block_pages = 8;
    data_disk =
      { Deut_sim.Disk.seek_us = 4000.0; transfer_us = 50.0; sequential_gap = 1; batch_seek_factor = 0.75 };
    log_disk = seq_device;
    delta_period;
    delta_capacity = 256;
    lazy_writer_every = 1;
    dpt_mode = Config.Standard;
    checkpoint_mode = Config.Penultimate;
    cpu_op_us = 2.0;
    cpu_index_level_us = 1.0;
    prefetch_window = 32;
    prefetch_chunk = 16;
    prefetch_lookahead = 512;
    prefetch_source = Config.Pf_list;
    redo_workers = 1;
    log_layout = Config.Integrated;
    locking;
    group_commit;
    clients;
    think_us = 300.0;
    retry_backoff_us = 150.0;
    flight = true;
    flight_capacity = 128;
    tracing = false;
    trace_capacity = 65536;
    archive = false;
    archive_min_bytes = 0;
    archive_disk = seq_device;
    shards = 1;
    domains = 1;
    net = false;
    net_latency_us = 50.0;
    net_jitter_us = 0.0;
    net_loss = 0.0;
    net_reorder = 0.0;
    net_timeout_us = 1000.0;
    seed;
  }

(* ---------- workloads ---------- *)

type workload = Small_cache | Large_cache_long_log | Oltp_in_cache

let workloads =
  [
    ("paper-small-cache", Small_cache);
    ("paper-large-cache-long-log", Large_cache_long_log);
    ("oltp-in-cache", Oltp_in_cache);
  ]

type run_shape =
  | Paper of Experiment.protocol
  | Clients of { batches : int; txns_per_batch : int; tail_txns : int; inflight_steps : int }

(* [setups]: set-ups per run.  [setup_s] and [exec_wall_tps] are medians
   over them, so a cheap set-up is repeated more often. *)
type shape = { config : Config.t; spec : Workload.spec; run : run_shape; setups : int }

(* Sizes come from [Experiment.paper_setup] (the paper's §5.2 ratios at
   1/[scale]); contents come from [seed]. *)
let shape_of workload ~scale ~seed =
  match workload with
  | Small_cache | Large_cache_long_log ->
      let cache_mb, ckpt_multiplier = if workload = Small_cache then (64, 1) else (2048, 10) in
      let s = Experiment.paper_setup ~scale ~cache_mb ~ckpt_multiplier () in
      {
        config =
          pinned_config ~pool_pages:s.Experiment.config.Config.pool_pages
            ~delta_period:s.Experiment.config.Config.delta_period ~locking:false ~group_commit:1
            ~clients:1 ~seed:(seed + 1);
        spec =
          {
            Workload.tables = 1;
            rows = s.Experiment.spec.Workload.rows;
            value_size = 24;
            ops_per_txn = 10;
            key_dist = Workload.Uniform;
            op_mix = Workload.Update_only;
            seed;
          };
        run = Paper s.Experiment.protocol;
        setups = 5;
      }
  | Oltp_in_cache ->
      let s = Experiment.paper_setup ~scale ~cache_mb:256 () in
      let rows = Stdlib.max 2_000 (s.Experiment.spec.Workload.rows / 16) in
      let batch = Stdlib.max 50 (rows / 20) in
      {
        config =
          pinned_config ~pool_pages:s.Experiment.config.Config.pool_pages
            ~delta_period:s.Experiment.config.Config.delta_period ~locking:true ~group_commit:4
            ~clients:4 ~seed:(seed + 1);
        spec =
          {
            Workload.tables = 1;
            rows;
            value_size = 24;
            ops_per_txn = 10;
            key_dist = Workload.Zipf 0.9;
            op_mix = Workload.Mixed { update = 0.6; insert = 0.05; delete = 0.05; read = 0.3 };
            seed;
          };
        run =
          Clients
            {
              batches = 16;
              txns_per_batch = batch;
              tail_txns = 2 * batch;
              inflight_steps = 200;
            };
        setups = 15;
      }

(* ---------- spans and timing ---------- *)

(* The benchmark's own spans around each public call it makes, kept in
   memory and written out at the end of a traced run.  Untraced runs time
   the same calls without recording anything. *)
type span = { sp_id : int; sp_name : string; sp_parent : int; sp_start : float; sp_end : float }

let record_spans = ref false
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let span_ids = ref 0

let timed name f =
  let id =
    if !record_spans then begin
      incr span_ids;
      !span_ids
    end
    else 0
  in
  let parent = match !open_spans with p :: _ -> p | [] -> 0 in
  if id > 0 then open_spans := id :: !open_spans;
  let t0 = Unix.gettimeofday () in
  let r = Fun.protect ~finally:(fun () -> if id > 0 then open_spans := List.tl !open_spans) f in
  let t1 = Unix.gettimeofday () in
  if id > 0 then
    spans := { sp_id = id; sp_name = name; sp_parent = parent; sp_start = t0; sp_end = t1 } :: !spans;
  (r, t1 -. t0)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---------- correctness accounting ---------- *)

let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

(* [ops] operations of one kind were attempted; [result] says whether
   they all passed or how many failed and why. *)
let count_ops ?(ops = 1) what result =
  attempted := !attempted + ops;
  match result with
  | Ok () -> ()
  | Error (n, msg) ->
      failed := !failed + n;
      failures := Printf.sprintf "%s: %s" what msg :: !failures;
      Printf.eprintf "perfbench: FAILED %s: %s\n%!" what msg

let check_op what = function Ok () -> count_ops what (Ok ()) | Error msg -> count_ops what (Error (1, msg))

(* ---------- normal-execution counters ---------- *)

(* Read straight from the engine's registry: [Engine_stats.capture] lists
   the catalog through the cache, which would perturb the run it measures. *)
type counters = {
  now_us : float;
  hits : int;
  lookups : int;
  evictions : int;
  forces : int;
  log_bytes : int;
  delta_bytes : int;
  bw_bytes : int;
  commits : int;
  log_io : int array;  (* disk.log.io_us bucket counts *)
}

let log_io_hist db = Option.get (Metrics.find_histogram (Engine.metrics (Db.engine db)) "disk.log.io_us")

let counters db =
  let m = Engine.metrics (Db.engine db) in
  let gi = Metrics.read_int m in
  let hits = gi "cache.hits" in
  {
    now_us = Metrics.read m "clock.now_us";
    hits;
    lookups = hits + gi "cache.misses" + gi "cache.prefetch_hits";
    evictions = gi "cache.evictions";
    forces = gi "log.tc.forces";
    log_bytes = gi "log.tc.end_lsn";
    delta_bytes = gi "monitor.delta_bytes";
    bw_bytes = gi "monitor.bw_bytes";
    commits = gi "tc.commits";
    log_io = Array.copy (Metrics.bucket_counts (log_io_hist db));
  }

(* [Metrics.percentile] over the observations made between two snapshots
   of one histogram: the upper bound of the first bucket reaching [p]%. *)
let delta_percentile hist ~before ~after p =
  let bounds = Metrics.bucket_bounds hist in
  let d = Array.mapi (fun i c -> c - before.(i)) after in
  let total = Array.fold_left ( + ) 0 d in
  if total = 0 then 0.0
  else begin
    let target = p /. 100.0 *. float_of_int total in
    let acc = ref 0 and found = ref None in
    Array.iteri
      (fun i c ->
        acc := !acc + c;
        if !found = None && float_of_int !acc >= target then
          found := Some (bounds.(Stdlib.min i (Array.length bounds - 1))))
      d;
    Option.value !found ~default:bounds.(Array.length bounds - 1)
  end

(* ---------- one set-up: load, warm, protocol, crash ---------- *)

type exec = {
  committed_txns : int;  (* in the measured run *)
  attempted_txns : int;  (* handed to the clients to commit, crash tail included *)
  finished_txns : int;  (* of those, committed *)
  committed_ops : int;
  sim_s : float;
  before : counters;
  after : counters;
  log_io_p99_us : float;
  clients : Client_sched.stats option;
}

(* What is kept of every set-up: wall seconds around each call, and the
   simulated identity of the crash it reached. *)
type times = {
  load_s : float;
  warm_s : float;
  protocol_s : float;
  crash_s : float;
  exec_wall_s : float;  (* the normal-execution run *)
  exec_txns : int;
  fingerprint : string;
}

type built = {
  driver : Driver.t;
  image : Crash_image.t;
  times : times;
  exec : exec;
  dirty_at_crash : int;
}

let exec_of db ~before ~committed_txns ~committed_ops ~clients =
  let after = counters db in
  {
    committed_txns;
    attempted_txns = committed_txns;
    finished_txns = committed_txns;
    committed_ops;
    sim_s = (after.now_us -. before.now_us) /. 1e6;
    before;
    after;
    log_io_p99_us = delta_percentile (log_io_hist db) ~before:before.log_io ~after:after.log_io 99.0;
    clients;
  }

let build shape =
  let driver, load_s = timed "driver.load" (fun () -> Driver.create ~config:shape.config shape.spec) in
  let db = Driver.db driver in
  let exec, warm_s, protocol_s, exec_wall_s =
    match shape.run with
    | Paper p ->
        let (), warm_s = timed "driver.warm" (fun () -> Driver.warm_to_equilibrium driver) in
        let before = counters db in
        let updates0 = Driver.updates_done driver in
        let (), protocol_s =
          timed "driver.protocol" (fun () ->
              Driver.run_crash_protocol driver ~checkpoints:p.Experiment.checkpoints
                ~interval:p.Experiment.interval ~tail:p.Experiment.tail;
              Driver.start_loser driver ~ops:p.Experiment.loser_ops)
        in
        let after = counters db in
        let txns = after.commits - before.commits in
        ( exec_of db ~before ~committed_txns:txns
            ~committed_ops:(Driver.updates_done driver - updates0)
            ~clients:None,
          warm_s,
          protocol_s,
          protocol_s )
    | Clients c ->
        (* Warm: one pass of latch-free reads pulls the whole table into
           the cache it fits in. *)
        let (), warm_s =
          timed "driver.warm" (fun () ->
              for key = 0 to shape.spec.Workload.rows - 1 do
                ignore (Db.read db ~table:1 ~key)
              done)
        in
        let before = counters db in
        let sched = Client_sched.create ~oracle:(Driver.oracle driver) db shape.spec in
        let (exec, exec_wall_s), protocol_s =
          timed "driver.protocol" (fun () ->
              let (), wall_s =
                timed "client_sched.run" (fun () ->
                    for _ = 1 to c.batches do
                      Client_sched.run sched ~txns:c.txns_per_batch;
                      Client_sched.flush sched;
                      (* Bounds the live log over a long run. *)
                      Driver.checkpoint driver
                    done)
              in
              let stats = Client_sched.stats sched in
              let exec =
                exec_of db ~before ~committed_txns:stats.Client_sched.committed_txns
                  ~committed_ops:stats.Client_sched.committed_ops ~clients:(Some stats)
              in
              (* Crash mid-run: a fixed number of transactions past the
                 last checkpoint, then some in flight and group commits
                 queued. *)
              Client_sched.run sched ~txns:c.tail_txns;
              let exec =
                {
                  exec with
                  attempted_txns = (c.batches * c.txns_per_batch) + c.tail_txns;
                  finished_txns = Client_sched.commits_done sched;
                }
              in
              Client_sched.run_steps sched ~steps:c.inflight_steps;
              (exec, wall_s))
        in
        (exec, warm_s, protocol_s, exec_wall_s)
  in
  let dirty_at_crash = Db.dirty_page_count db in
  let fingerprint =
    Printf.sprintf "%.17g/%d/%d/%d" (Db.now_ms db) (Db.log_end db) dirty_at_crash (Db.log_record_count db)
  in
  let image, crash_s = timed "db.crash" (fun () -> Driver.crash driver) in
  let times =
    { load_s; warm_s; protocol_s; crash_s; exec_wall_s; exec_txns = exec.committed_txns; fingerprint }
  in
  { driver; image; times; exec; dirty_at_crash }

(* ---------- recoveries ---------- *)

type recovered = {
  stats : Rs.t;
  engine : Engine_stats.t;  (* captured before verification *)
  wall_s : float;
  minor_mb : float;  (* allocated by [Db.recover] *)
  major_collections : int;  (* completed during [Db.recover] *)
  verify_s : float;
  store_digest : string;
  logical_digest : string;
}

let verify what built db =
  let res, verify_s = timed "oracle.verify" (fun () -> Driver.verify_recovered built.driver db) in
  check_op what res;
  verify_s

(* One offline recovery: timed, verified, and (when asked) digested.  It
   starts from a finished major GC cycle, so it pays for its own garbage
   and not for a share of its predecessors'. *)
let recover ?config ?(digest = false) built method_ =
  let name = Recovery.method_to_string method_ in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let (db, stats), wall_s = timed ("db.recover." ^ name) (fun () -> Db.recover ?config built.image method_) in
  let g1 = Gc.quick_stat () in
  let engine = Engine_stats.capture (Db.engine db) in
  let verify_s = verify ("recover " ^ name) built db in
  let store_digest, logical_digest =
    if digest then (Experiment.store_digest db, Client_sched.logical_digest db) else ("", "")
  in
  ( {
      stats;
      engine;
      wall_s;
      minor_mb = (g1.Gc.minor_words -. g0.Gc.minor_words) *. 8.0 /. 1e6;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      verify_s;
      store_digest;
      logical_digest;
    },
    db )

type instant = { i_stats : Rs.t; open_wall_s : float; drain_wall_s : float; i_digest : string }

(* InstantLog2, staged: open, then drain with no client work. *)
let recover_instant built =
  let inst, open_wall_s = timed "db.recover_instant" (fun () -> Db.recover_instant built.image) in
  let i_stats, drain_wall_s = timed "db.instant_finish" (fun () -> Db.instant_finish inst) in
  let db = Db.instant_db inst in
  ignore (verify "recover InstantLog2" built db);
  { i_stats; open_wall_s; drain_wall_s; i_digest = Client_sched.logical_digest db }

(* Time to first transaction: a fresh InstantLog2 engine answers one
   read-only transaction of [keys] (their pages replay on demand); the
   simulated clock at the answer.  Every value read must be the committed
   one. *)
let first_txn_ms built keys =
  let inst, _ = timed "db.recover_instant" (fun () -> Db.recover_instant built.image) in
  let db = Db.instant_db inst in
  let oracle = Driver.oracle built.driver in
  let wrong =
    fst
      (timed "db.read" (fun () ->
           List.filter (fun key -> Db.read db ~table:1 ~key <> Oracle.committed_value oracle ~table:1 ~key) keys))
  in
  check_op "InstantLog2 first transaction"
    (if wrong = [] then Ok ()
     else Error (Printf.sprintf "wrong value for key(s) %s" (String.concat " " (List.map string_of_int wrong))));
  Db.now_ms db

(* ---------- metrics ---------- *)

type metric = { name : string; value : float; unit_ : string; simulated : bool }

let metrics : metric list ref = ref []
let emit ?(simulated = false) name unit_ value = metrics := { name; value; unit_; simulated } :: !metrics
let sim = emit ~simulated:true

(* A "<field>: <n> kB" line of a /proc file, in MB; 0 when absent. *)
let proc_mb path field =
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line -> (
            match Scanf.sscanf line "%s@: %f kB" (fun k v -> (k, v)) with
            | k, v when k = field -> v /. 1024.0
            | _ | (exception Scanf.Scan_failure _) | (exception Failure _) | (exception End_of_file) -> go ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* ---------- the run ---------- *)

let phase_names = [ "analysis"; "log_scan"; "redo"; "undo" ]
let ttft_probes = 9

(* What the simulated metrics come from: one set-up's crash, recovered
   once by each method, every recovery verified. *)
type reference = {
  log2 : recovered;
  sql2 : recovered;
  inst : instant;
  ttft_ms : float;
  traced : (Analysis.t * Config.t) option;
      (* traced run: the Log2 phase budget, and the config of the timed
         traced recoveries *)
  exec : exec;
  dirty_at_crash : int;
}

let reference b ~shape ~seed ~trace =
  (* Log2 and SQL2 replay the same log into byte-identical stores.
     InstantLog2 is held to the same contents but not the same bytes: its
     CLRs can land at other LSNs than Log2's (Log2's redo may log DC
     records first), which changes the pLSN headers of the pages they
     touch and nothing else. *)
  let log2, _ = recover ~digest:true b Recovery.Log2 in
  let sql2, _ = recover ~digest:true b Recovery.Sql2 in
  let inst = recover_instant b in
  let same what ~got ~want =
    check_op what (if got = want then Ok () else Error (Printf.sprintf "%s differs from Log2's %s" got want))
  in
  same "SQL2 store digest" ~got:sql2.store_digest ~want:log2.store_digest;
  same "SQL2 logical digest" ~got:sql2.logical_digest ~want:log2.logical_digest;
  same "InstantLog2 logical digest" ~got:inst.i_digest ~want:log2.logical_digest;
  (* Which pages one transaction touches varies a lot; the median over
     independent probes does not. *)
  let ttft_ms =
    let rng = Deut_sim.Rng.create ~seed:(seed + 2) in
    median
      (List.init ttft_probes (fun _ ->
           first_txn_ms b
             (List.init shape.spec.Workload.ops_per_txn (fun _ -> Deut_sim.Rng.int rng shape.spec.Workload.rows))))
  in
  (* Traced: one Log2 recovery with the program's own tracing on, for the
     Analysis phase budget.  Tracing must not move a simulated number. *)
  let traced =
    if not trace then None
    else begin
      let traced_config capacity =
        { b.image.Crash_image.config with Config.tracing = true; trace_capacity = capacity }
      in
      let r, db = recover ~config:(traced_config (1 lsl 22)) b Recovery.Log2 in
      check_op "tracing is observer-free"
        (if r.stats = log2.stats then Ok () else Error "traced Log2 stats differ from untraced");
      let tr = Option.get (Engine.trace (Db.engine db)) in
      check_op "trace ring"
        (if Trace.dropped tr = 0 then Ok () else Error (Printf.sprintf "%d events dropped" (Trace.dropped tr)));
      (* The timed traced recoveries get a ring just big enough. *)
      Some (Analysis.of_trace tr, traced_config (Stdlib.max 1024 (Trace.emitted tr)))
    end
  in
  { log2; sql2; inst; ttft_ms; traced; exec = b.exec; dirty_at_crash = b.dirty_at_crash }

let run ~workload_name ~workload ~seed ~seconds ~trace ~scale ~setups ~out_dir ~commit =
  record_spans := trace;
  let shape = shape_of workload ~scale ~seed in
  let rounds = if setups > 0 then setups else shape.setups in
  Printf.printf "perfbench: workload %s, seed %d, scale 1/%d, %d set-ups, %.0f s measured, trace %b\n%!"
    workload_name seed scale rounds seconds trace;
  (* Each round sets up from scratch, then repeats Log2 on that crash for
     its share of [seconds]; spreading both kinds of wall-clock sample over
     the whole run evens out the host's drift.  Set-ups are deterministic,
     so every round must reach the same crash and the same Log2 numbers.
     In a traced run the repeats alternate untraced and traced recoveries,
     so the overhead is measured on the same heap at the same moment. *)
  let reps = ref [] and untraced = ref [] and traced_walls = ref [] in
  let first = ref None and live_mb_after_setup = ref 0.0 in
  for i = 1 to rounds do
    (* Only this round's database is live. *)
    Gc.compact ();
    let b, setup_s = timed "setup" (fun () -> build shape) in
    let never = b.exec.attempted_txns - b.exec.finished_txns in
    (* Retried aborts are not failures; a transaction that never commits is. *)
    count_ops ~ops:b.exec.attempted_txns "normal execution"
      (if never = 0 then Ok ()
       else Error (never, Printf.sprintf "%d of %d transactions never committed" never b.exec.attempted_txns));
    (match List.rev !reps with
    | (_, t) :: _ ->
        check_op "set-up determinism"
          (if t.fingerprint = b.times.fingerprint then Ok ()
           else Error (Printf.sprintf "set-up %d reached %s, set-up 1 reached %s" i b.times.fingerprint t.fingerprint))
    | [] ->
        Gc.compact ();
        live_mb_after_setup := float_of_int (Gc.stat ()).Gc.live_words *. 8.0 /. 1e6;
        first := Some (reference b ~shape ~seed ~trace));
    reps := (setup_s, b.times) :: !reps;
    let r0 = Option.get !first in
    let until = Unix.gettimeofday () +. (seconds /. float_of_int rounds) in
    let at_least = ((5 * i) + rounds - 1) / rounds in
    while Unix.gettimeofday () < until || List.length !untraced < at_least do
      let r, _ = recover b Recovery.Log2 in
      check_op "Log2 repeats its simulated numbers"
        (if r.stats = r0.log2.stats then Ok () else Error "a repeated Log2 recovery diverged");
      untraced := r :: !untraced;
      Option.iter
        (fun (_, config) ->
          let r, _ = recover ~config b Recovery.Log2 in
          traced_walls := r.wall_s :: !traced_walls)
        r0.traced
    done
  done;
  let reps = List.rev !reps and untraced = List.rev !untraced in
  let { log2; sql2; inst; ttft_ms; traced; exec = ex; dirty_at_crash } = Option.get !first in
  let live_mb_after_setup = !live_mb_after_setup in
  let walls = List.map (fun r -> r.wall_s) untraced in
  let verifies = log2.verify_s :: sql2.verify_s :: List.map (fun r -> r.verify_s) untraced in
  let pick f = median (List.map f reps) in
  let s = log2.stats in
  (* ---- end to end ---- *)
  emit "setup_s" "s" (pick fst);
  sim "recovery_ms" "ms" (Rs.total_ms s);
  sim "sql2_recovery_ms" "ms" (Rs.total_ms sql2.stats);
  sim "ttft_ms" "ms" ttft_ms;
  sim "drain_ms" "ms" (Rs.drained_ms inst.i_stats);
  emit "recover_wall_ms" "ms" (1000.0 *. median walls);
  sim "tput_tps" "txn/s" (ratio (float_of_int ex.committed_txns) ex.sim_s);
  emit "exec_wall_tps" "txn/s"
    (pick (fun (_, t) -> ratio (float_of_int t.exec_txns) t.exec_wall_s));
  sim "log_bytes_per_op" "B"
    (ratio (float_of_int (ex.after.log_bytes - ex.before.log_bytes)) (float_of_int ex.committed_ops));
  (* ---- per layer ---- *)
  emit "driver.load_s" "s" (pick (fun (_, t) -> t.load_s));
  emit "driver.warm_s" "s" (pick (fun (_, t) -> t.warm_s));
  emit "driver.protocol_s" "s" (pick (fun (_, t) -> t.protocol_s));
  emit "db.crash_s" "s" (pick (fun (_, t) -> t.crash_s));
  sim "recovery.analysis_ms" "ms" (Rs.analysis_ms s);
  sim "recovery.redo_ms" "ms" (Rs.redo_ms s);
  sim "recovery.undo_ms" "ms" (Rs.undo_ms s);
  sim "recovery.records_scanned" "count" (float_of_int s.Rs.records_scanned);
  sim "recovery.redo_applied" "count" (float_of_int s.Rs.redo_applied);
  sim "recovery.apply_ratio" "ratio"
    (ratio (float_of_int s.Rs.redo_applied) (float_of_int s.Rs.redo_candidates));
  sim "recovery.smos_replayed" "count" (float_of_int s.Rs.smos_replayed);
  sim "recovery.clrs_written" "count" (float_of_int s.Rs.clrs_written);
  sim "dpt.size" "pages" (float_of_int s.Rs.dpt_size);
  sim "dpt.size_over_dirty" "ratio" (ratio (float_of_int s.Rs.dpt_size) (float_of_int dirty_at_crash));
  sim "buffer_pool.data_fetches" "pages" (float_of_int s.Rs.data_page_fetches);
  sim "buffer_pool.index_fetches" "pages" (float_of_int s.Rs.index_page_fetches);
  sim "buffer_pool.stall_ms" "ms" ((s.Rs.data_stall_us +. s.Rs.index_stall_us) /. 1000.0);
  sim "buffer_pool.plsn_wasted_ratio" "ratio"
    (ratio (float_of_int s.Rs.skipped_plsn) (float_of_int s.Rs.data_page_fetches));
  sim "buffer_pool.prefetch_issued" "pages" (float_of_int s.Rs.prefetch_issued);
  sim "buffer_pool.prefetch_hit_ratio" "ratio"
    (ratio (float_of_int s.Rs.prefetch_hits) (float_of_int s.Rs.prefetch_issued));
  sim "buffer_pool.hit_rate" "ratio"
    (ratio (float_of_int (ex.after.hits - ex.before.hits)) (float_of_int (ex.after.lookups - ex.before.lookups)));
  sim "buffer_pool.evictions" "count" (float_of_int (ex.after.evictions - ex.before.evictions));
  sim "disk.data_pages_read" "pages" (float_of_int log2.engine.Engine_stats.data_pages_read);
  sim "disk.data_seeks" "count" (float_of_int log2.engine.Engine_stats.data_seeks);
  sim "disk.data_io_p99_us" "us" log2.engine.Engine_stats.data_io.Engine_stats.p99_us;
  sim "log_manager.pages_read" "pages" (float_of_int s.Rs.log_pages_read);
  sim "log_manager.forces" "count" (float_of_int (ex.after.forces - ex.before.forces));
  sim "log_manager.io_p99_us" "us" ex.log_io_p99_us;
  let log_bytes = float_of_int (ex.after.log_bytes - ex.before.log_bytes) in
  sim "dc.delta_bytes_per_log_byte" "ratio"
    (ratio (float_of_int (ex.after.delta_bytes - ex.before.delta_bytes)) log_bytes);
  sim "dc.bw_bytes_per_log_byte" "ratio" (ratio (float_of_int (ex.after.bw_bytes - ex.before.bw_bytes)) log_bytes);
  sim "instant.open_ms" "ms" (Rs.ttft_ms inst.i_stats);
  emit "instant.open_wall_ms" "ms" (1000.0 *. inst.open_wall_s);
  emit "instant.drain_wall_ms" "ms" (1000.0 *. inst.drain_wall_s);
  sim "instant.pages_ondemand" "pages" (float_of_int inst.i_stats.Rs.pages_ondemand);
  sim "instant.pages_background" "pages" (float_of_int inst.i_stats.Rs.pages_background);
  let cs f = match ex.clients with Some c -> f c | None -> 0.0 in
  sim "client_sched.abort_rate" "ratio" (cs (fun c -> c.Client_sched.abort_rate));
  sim "lock_table.conflicts" "count" (cs (fun c -> float_of_int c.Client_sched.conflicts));
  sim "client_sched.commit_p50_us" "us" (cs (fun c -> c.Client_sched.commit_p50_us));
  sim "client_sched.commit_p95_us" "us" (cs (fun c -> c.Client_sched.commit_p95_us));
  emit "gc.minor_mb" "MB" (median (List.map (fun r -> r.minor_mb) untraced));
  emit "gc.major_collections" "count" (median (List.map (fun r -> float_of_int r.major_collections) untraced));
  emit "gc.live_mb_after_setup" "MB" live_mb_after_setup;
  emit "oracle.verify_s" "s" (median verifies);
  (match traced with
  | None -> ()
  | Some (p, _) ->
      List.iter
        (fun phase ->
          let ph = List.find_opt (fun ph -> ph.Analysis.ph_name = phase) p.Analysis.phases in
          let v f = match ph with Some ph -> f ph | None -> 0.0 in
          sim ("analysis." ^ phase ^ ".compute_us") "us" (v (fun ph -> ph.Analysis.ph_compute_us));
          sim ("analysis." ^ phase ^ ".stall_us") "us" (v (fun ph -> ph.Analysis.ph_stall_us));
          sim ("analysis." ^ phase ^ ".overlap_us") "us" (v (fun ph -> ph.Analysis.ph_overlap_us)))
        phase_names;
      let plain_ms = 1000.0 *. median walls and traced_ms = 1000.0 *. median !traced_walls in
      emit "trace.untraced_wall_ms" "ms" plain_ms;
      emit "trace.traced_wall_ms" "ms" traced_ms;
      emit "trace.overhead_pct" "%" (100.0 *. ratio (traced_ms -. plain_ms) plain_ms));
  (* Last, so it covers every step above. *)
  emit "peak_rss_mb" "MB" (proc_mb "/proc/self/status" "VmHWM");
  let metrics = List.rev !metrics in
  List.iter (fun m -> Printf.printf "%-34s %s %s\n" m.name (json_number m.value) m.unit_) metrics;
  Printf.printf "ops_attempted %d\nops_failed %d\n%!" !attempted !failed;
  (* ---- machine-readable result ---- *)
  let obj fields = "{" ^ String.concat ", " fields ^ "}" in
  let field k v = json_string k ^ ": " ^ v in
  let floats xs = "[" ^ String.concat ", " (List.map json_number xs) ^ "]" in
  let machine =
    obj
      [
        field "nproc" (string_of_int (Domain.recommended_domain_count ()));
        field "mem_total_mb" (json_number (proc_mb "/proc/meminfo" "MemTotal"));
        field "ocaml" (json_string Sys.ocaml_version);
        field "commit" (json_string commit);
        field "seed" (string_of_int seed);
      ]
  in
  let result =
    obj
      [
        field "workload" (json_string workload_name);
        field "seed" (string_of_int seed);
        field "scale" (string_of_int scale);
        field "trace" (if trace then "1" else "0");
        field "setups" (string_of_int setups);
        field "wall_reps" (string_of_int (List.length walls));
        field "samples"
          (obj
             [
               field "setup_s" (floats (List.map fst reps));
               field "exec_wall_s" (floats (List.map (fun (_, t) -> t.exec_wall_s) reps));
               field "recover_wall_s" (floats walls);
             ]);
        field "machine" machine;
        field "ops_attempted" (string_of_int !attempted);
        field "ops_failed" (string_of_int !failed);
        field "failures" ("[" ^ String.concat ", " (List.rev_map json_string !failures) ^ "]");
        field "metrics"
          (obj
             (List.map
                (fun m -> field m.name (obj [ field "value" (json_number m.value); field "unit" (json_string m.unit_) ]))
                metrics));
        field "simulated"
          (obj
             (List.filter_map
                (fun m -> if m.simulated then Some (field m.name (json_string (json_number m.value))) else None)
                metrics));
      ]
  in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let stem = Printf.sprintf "%s/%s-seed%d-trace%d" out_dir workload_name seed (if trace then 1 else 0) in
  let write path s =
    let oc = open_out path in
    output_string oc s;
    output_char oc '\n';
    close_out oc
  in
  write (stem ^ ".json") result;
  if trace then begin
    (* Chrome trace_event format: one complete event per span. *)
    let t0 = List.fold_left (fun acc sp -> Float.min acc sp.sp_start) infinity !spans in
    let events =
      List.rev_map
        (fun sp ->
          obj
            [
              field "name" (json_string sp.sp_name);
              field "ph" (json_string "X");
              field "pid" "1";
              field "tid" "1";
              field "ts" (Printf.sprintf "%.3f" ((sp.sp_start -. t0) *. 1e6));
              field "dur" (Printf.sprintf "%.3f" ((sp.sp_end -. sp.sp_start) *. 1e6));
              field "args" (obj [ field "id" (string_of_int sp.sp_id); field "parent" (string_of_int sp.sp_parent) ]);
            ])
        !spans
    in
    write (stem ^ ".spans.json") (obj [ field "traceEvents" ("[" ^ String.concat ",\n" events ^ "]") ]);
    Option.iter (fun (p, _) -> write (stem ^ ".analysis.json") (Analysis.to_json p)) traced
  end;
  print_endline result;
  if !failed > 0 then exit 1

let () =
  refuse_environment ();
  pin_gc ();
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  let scale = ref 128 and setups = ref 0 and out_dir = ref "perfbench/out" and commit = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S wall seconds of repeated recoveries to measure");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics, spans, phase budget)");
      ("--scale", Arg.Set_int scale, "K divide the paper's sizes by K (default 128)");
      ("--setups", Arg.Set_int setups, "R set-ups per run; setup_s is their median (default: per workload)");
      ("--out", Arg.Set_string out_dir, "DIR where result and span files go (default perfbench/out)");
      ("--commit", Arg.Set_string commit, "SHA commit recorded with the result");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let bad msg =
    prerr_endline ("perfbench: " ^ msg);
    Arg.usage spec usage;
    exit 2
  in
  let workload_kind =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> bad (Printf.sprintf "unknown workload %S (one of %s)" !workload (String.concat ", " (List.map fst workloads)))
  in
  if !seed < 0 then bad "--seed must be given and >= 0";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  if !scale < 1 || !setups < 0 || !seconds < 0.0 then bad "--scale must be >= 1, --setups and --seconds >= 0";
  run ~workload_name:!workload ~workload:workload_kind ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    ~scale:!scale ~setups:!setups ~out_dir:!out_dir ~commit:!commit
