(** Scaled reproduction of the paper's experimental setup (§5.2) and the
    harness that runs crash + side-by-side recovery.

    The paper's table is 3.5 GB — 436,000 pages, 10^8 rows — with caches of
    64 MB … 2048 MB (2–60 % of the database), a checkpoint interval of
    40,000 updates, 10 checkpoints before the crash, and a ~100-update log
    tail after the last Δ/BW record.  [paper_setup ~scale] divides every
    size by [scale], preserving the ratios that drive the results
    (cache:database, DPT:cache, tail:interval); see DESIGN.md §1. *)

type protocol = { checkpoints : int; interval : int; tail : int; loser_ops : int }

type scaled = {
  label : string;
  config : Deut_core.Config.t;
  spec : Workload.spec;
  protocol : protocol;
  cache_mb_equiv : int;  (** paper-equivalent cache size in MB *)
}

val paper_setup :
  ?scale:int ->
  ?ckpt_multiplier:int ->
  ?dpt_mode:Deut_core.Config.dpt_mode ->
  ?checkpoint_mode:Deut_core.Config.checkpoint_mode ->
  ?key_dist:Workload.key_dist ->
  cache_mb:int ->
  unit ->
  scaled
(** [cache_mb] is the paper-equivalent cache size (64 … 2048).
    [ckpt_multiplier] scales the checkpoint interval (Appendix C's ci1,
    5×ci1, 10×ci1).  Default [scale] is 32. *)

(** A crashed system ready for side-by-side recovery: the shared crash
    image, the oracle, and normal-execution measurements.  Nothing of the
    pre-crash database (engine, pool, store) is kept: recovery reads only
    [image], and verification only [oracle] and [tables]. *)
type crash_run = {
  image : Deut_core.Crash_image.t;
  oracle : Oracle.t;  (** the committed state at the crash *)
  tables : int list;  (** the tables [oracle] is checked against *)
  dirty_at_crash : int;
  cached_at_crash : int;
  dirty_fraction : float;  (** dirty pages / cache capacity — Figure 2(b) *)
  db_pages : int;
  deltas_total : int;
  bws_total : int;
  delta_bytes : int;  (** total Δ-record payload logged — the DC's overhead *)
  bw_bytes : int;
  updates_run : int;
}

val build : scaled -> crash_run
(** Load, warm to cache equilibrium, run the crash protocol, leave one
    uncommitted transaction, crash.  Deterministic in [scaled]: an equal
    setup always yields the same image and statistics, so callers build
    each cell when they need it and let it go after its recoveries. *)

val verify : crash_run -> Deut_core.Recovery.method_ -> Deut_core.Db.t -> unit
(** Check a database recovered from [run.image] with the given method
    against the oracle ({!Oracle.verify}); raises [Failure] on divergence. *)

val run_method :
  ?workers:int -> crash_run -> Deut_core.Recovery.method_ -> Deut_core.Recovery_stats.t
(** Recover with the given method from (a copy of) the shared image and
    verify the result against the oracle; raises [Failure] on divergence —
    a benchmark must never report timings for an incorrect recovery.
    [workers] overrides [Config.redo_workers] for this recovery. *)

val recover_verified :
  ?workers:int ->
  crash_run ->
  Deut_core.Recovery.method_ ->
  Deut_core.Db.t * Deut_core.Engine_stats.t * Deut_core.Recovery_stats.t
(** [run_method] that also returns the recovered database and an engine
    snapshot taken {e before} oracle verification, so the IO and stall
    latency histograms reflect recovery alone (verification's own page
    fetches would otherwise dominate them). *)

val run_all :
  crash_run ->
  Deut_core.Recovery.method_ list ->
  (Deut_core.Recovery.method_ * Deut_core.Recovery_stats.t) list

val store_digest : Deut_core.Db.t -> string
(** Digest of the stable page store after flushing every dirty frame — the
    complete database image, byte for byte.  Together with
    [Client_sched.logical_digest] this is the determinism gates' currency:
    recovering one image twice must hash identically. *)
