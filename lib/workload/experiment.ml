module Config = Deut_core.Config
module Db = Deut_core.Db
module Recovery = Deut_core.Recovery
module Recovery_stats = Deut_core.Recovery_stats
module Pool = Deut_buffer.Buffer_pool

type protocol = { checkpoints : int; interval : int; tail : int; loser_ops : int }

type scaled = {
  label : string;
  config : Config.t;
  spec : Workload.spec;
  protocol : protocol;
  cache_mb_equiv : int;
}

(* Paper constants (§5.2). *)
let paper_db_pages = 436_000
let paper_ckpt_interval = 40_000
let paper_tail = 100
let paper_checkpoints = 10

(* Sequentially loaded leaves are half full (split at midpoint), giving
   ~113 24-byte rows per 8 KiB page. *)
let rows_per_page = 113

let paper_setup ?(scale = 32) ?(ckpt_multiplier = 1) ?(dpt_mode = Config.Standard)
    ?(checkpoint_mode = Config.Penultimate) ?(key_dist = Workload.Uniform) ~cache_mb () =
  let pool_pages = Stdlib.max 64 (cache_mb * 128 / scale) in
  let interval = Stdlib.max 200 (paper_ckpt_interval / scale * ckpt_multiplier) in
  let delta_period = Stdlib.max 20 (interval / 20) in
  let config =
    {
      Config.default with
      Config.pool_pages;
      delta_period;
      dpt_mode;
      checkpoint_mode;
      (* The paper's experiment is a single data component; callers that
         want a sharded cell (the sharding sweep in Figures) override this. *)
      shards = 1;
      seed = 42 + cache_mb;
    }
  in
  let rows = paper_db_pages / scale * rows_per_page in
  let spec =
    {
      Workload.default with
      Workload.rows;
      key_dist;
      seed = 7 + cache_mb + (1000 * ckpt_multiplier);
    }
  in
  let protocol =
    {
      checkpoints = paper_checkpoints;
      interval;
      tail = Stdlib.max 5 (paper_tail * 2 / scale);
      loser_ops = 10;
    }
  in
  {
    label =
      Printf.sprintf "cache=%dMB ci=%dx dpt=%s ckpt=%s" cache_mb ckpt_multiplier
        (Config.dpt_mode_to_string dpt_mode)
        (Config.checkpoint_mode_to_string checkpoint_mode);
    config;
    spec;
    protocol;
    cache_mb_equiv = cache_mb;
  }

type crash_run = {
  image : Deut_core.Crash_image.t;
  oracle : Oracle.t;
  tables : int list;
  dirty_at_crash : int;
  cached_at_crash : int;
  dirty_fraction : float;
  db_pages : int;
  deltas_total : int;
  bws_total : int;
  delta_bytes : int;
  bw_bytes : int;
  updates_run : int;
}

(* The driver, and with it the dead pre-crash engine, pool and store, is
   dropped on return: a run keeps only what recovery reads (the image) and
   what verification reads (the oracle and the table list). *)
let build scaled =
  let driver = Driver.create ~config:scaled.config scaled.spec in
  Driver.warm_to_equilibrium driver;
  Driver.run_crash_protocol driver ~checkpoints:scaled.protocol.checkpoints
    ~interval:scaled.protocol.interval ~tail:scaled.protocol.tail;
  Driver.start_loser driver ~ops:scaled.protocol.loser_ops;
  let database = Driver.db driver in
  let dirty = Db.dirty_page_count database in
  let pool = (Db.engine database).Deut_core.Engine.pool in
  (* Read every statistic before the crash: [Db.crash] poisons the handle. *)
  let cached_at_crash = Db.cached_page_count database in
  let db_pages = Db.allocated_pages database in
  let deltas_total = Db.deltas_written database in
  let bws_total = Db.bws_written database in
  let delta_bytes = Db.delta_bytes database in
  let bw_bytes = Db.bw_bytes database in
  {
    image = Driver.crash driver;
    oracle = Driver.oracle driver;
    tables = List.init scaled.spec.Workload.tables (fun i -> i + 1);
    dirty_at_crash = dirty;
    cached_at_crash;
    dirty_fraction = float_of_int dirty /. float_of_int (Pool.capacity pool);
    db_pages;
    deltas_total;
    bws_total;
    delta_bytes;
    bw_bytes;
    updates_run = Driver.updates_done driver;
  }

let verify run method_ db =
  match Oracle.verify run.oracle db ~tables:run.tables with
  | Ok () -> ()
  | Error msg ->
      failwith
        (Printf.sprintf "recovery with %s produced wrong state: %s"
           (Recovery.method_to_string method_) msg)

let recover_verified ?workers run method_ =
  let config =
    Option.map
      (fun w -> { run.image.Deut_core.Crash_image.config with Config.redo_workers = w })
      workers
  in
  let recovered, stats = Db.recover ?config run.image method_ in
  (* Snapshot the engine before verification: the oracle scan below does
     thousands of its own page fetches, which would swamp the recovery-time
     IO and stall histograms. *)
  let engine = Deut_core.Engine_stats.capture (Db.engine recovered) in
  verify run method_ recovered;
  (recovered, engine, stats)

let run_method ?workers run method_ =
  let _, _, stats = recover_verified ?workers run method_ in
  stats
let run_all run methods = List.map (fun m -> (m, run_method run m)) methods

(* Digest of the stable page store after forcing every dirty frame out:
   the complete post-recovery database image, byte for byte.  Paired with
   [Client_sched.logical_digest], this is what the determinism gates
   compare across recoveries of one image. *)
let store_digest db =
  let engine = Db.engine db in
  Pool.flush_all_dirty engine.Deut_core.Engine.pool;
  let pages = ref [] in
  Deut_storage.Page_store.iter_stable engine.Deut_core.Engine.store (fun p ->
      pages := (p.Deut_storage.Page.pid, Bytes.to_string p.Deut_storage.Page.buf) :: !pages);
  let buf = Buffer.create 4096 in
  List.iter
    (fun (pid, bytes) ->
      Buffer.add_string buf (string_of_int pid);
      Buffer.add_char buf ':';
      Buffer.add_string buf bytes)
    (List.sort compare !pages);
  Digest.to_hex (Digest.string (Buffer.contents buf))
