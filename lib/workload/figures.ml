module Config = Deut_core.Config
module Recovery = Deut_core.Recovery
module Rs = Deut_core.Recovery_stats

let paper_cache_sizes = [ 64; 128; 256; 512; 1024; 2048 ]

type ctx = { scale : int; progress : string -> unit }

type fig2_cell = {
  cache_mb : int;
  pool_pages : int;
  db_pages : int;
  dirty_pct : float;
  deltas_seen : int;
  bws_seen : int;
  methods : (Recovery.method_ * Rs.t) list;
  build_wall_s : float;  (* real seconds to build workload + crash image *)
  method_walls : (Recovery.method_ * float) list;  (* real seconds per recover+verify *)
}

let stats_of cell m = List.assoc m cell.methods
let redo_ms_of cell m = Rs.redo_ms (stats_of cell m)

let run_fig2 { scale; progress } ~cache_sizes =
  List.map
    (fun cache_mb ->
      progress (Printf.sprintf "fig2: cache %d MB (scale 1/%d)" cache_mb scale);
      let setup = Experiment.paper_setup ~scale ~cache_mb () in
      let t0 = Unix.gettimeofday () in
      let run = Experiment.build setup in
      let build_wall_s = Unix.gettimeofday () -. t0 in
      let timed =
        List.map
          (fun m ->
            let t0 = Unix.gettimeofday () in
            let stats = Experiment.run_method run m in
            (m, stats, Unix.gettimeofday () -. t0))
          Recovery.all_methods
      in
      let results = List.map (fun (m, s, _) -> (m, s)) timed in
      (* Δ/BW analysis counts come from any DPT-building method's stats. *)
      let counting =
        match List.find_opt (fun (m, _) -> m = Recovery.Log1) results with
        | Some (_, s) -> s
        | None -> snd (List.hd results)
      in
      {
        cache_mb;
        pool_pages = setup.Experiment.config.Config.pool_pages;
        db_pages = run.Experiment.db_pages;
        dirty_pct = 100.0 *. run.Experiment.dirty_fraction;
        deltas_seen = counting.Rs.deltas_seen;
        bws_seen = counting.Rs.bws_seen;
        methods = results;
        build_wall_s;
        method_walls = List.map (fun (m, _, w) -> (m, w)) timed;
      })
    cache_sizes

let method_columns cells =
  match cells with [] -> [] | cell :: _ -> List.map fst cell.methods

let fig2a cells =
  let methods = method_columns cells in
  let header = "Cache (MB)" :: List.map Recovery.method_to_string methods in
  let rows =
    List.map
      (fun cell ->
        string_of_int cell.cache_mb
        :: List.map (fun m -> Report.ms (redo_ms_of cell m)) methods)
      cells
  in
  Report.table
    ~title:
      "Figure 2(a) — redo recovery time (simulated ms) vs cache size\n\
       (paper: Log1~SQL1; prefetch helps more at larger caches; only Log0 is\n\
       insensitive to cache growth)"
    ~header ~rows ()

let phase_table cells =
  let methods = method_columns cells in
  let header =
    [ "Cache (MB)"; "Method"; "analysis"; "redo"; "undo"; "total (ms)" ]
  in
  let rows =
    List.concat_map
      (fun cell ->
        List.map
          (fun m ->
            let s = stats_of cell m in
            [
              string_of_int cell.cache_mb;
              Recovery.method_to_string m;
              Report.ms (Rs.analysis_ms s);
              Report.ms (Rs.redo_ms s);
              Report.ms (Rs.undo_ms s);
              Report.ms (Rs.total_ms s);
            ])
          methods)
      cells
  in
  Report.table
    ~title:
      "Per-phase breakdown — simulated ms spent in analysis / redo / undo\n\
       (redo dominates everywhere; analysis differences separate the DPT\n\
       construction costs of §3 vs §4)"
    ~header ~rows ()

let fig2b cells =
  let header = [ "Cache (MB)"; "dirty % of cache"; "DPT size"; "cache pages"; "db pages" ] in
  let rows =
    List.map
      (fun cell ->
        let dpt =
          match List.find_opt (fun (m, _) -> m = Recovery.Log1) cell.methods with
          | Some (_, s) -> s.Rs.dpt_size
          | None -> 0
        in
        [
          string_of_int cell.cache_mb;
          Report.pct cell.dirty_pct;
          string_of_int dpt;
          string_of_int cell.pool_pages;
          string_of_int cell.db_pages;
        ])
      cells
  in
  Report.table
    ~title:
      "Figure 2(b) — dirty part of the cache at crash (%)\n\
       (paper: ~30% at 64MB falling to ~10% at 2048MB)"
    ~header ~rows ()

let fig2c cells =
  let header = [ "Cache (MB)"; "Δ records"; "BW records"; "Δ/BW" ] in
  let rows =
    List.map
      (fun cell ->
        [
          string_of_int cell.cache_mb;
          string_of_int cell.deltas_seen;
          string_of_int cell.bws_seen;
          (if cell.bws_seen = 0 then "-"
           else Printf.sprintf "%.2f" (float_of_int cell.deltas_seen /. float_of_int cell.bws_seen));
        ])
      cells
  in
  Report.table
    ~title:
      "Figure 2(c) — Δ- and BW-log records seen by the analysis pass\n\
       (paper: Δ ≤ 1.5 × BW up to 1024MB; some Δ records carry only dirty pages)"
    ~header ~rows ()

let pct_drop a b = 100.0 *. (a -. b) /. a

let sec53 cells =
  let find mb = List.find_opt (fun c -> c.cache_mb = mb) cells in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Section 5.3 headline claims — paper vs this reproduction\n";
  let claim name paper measured =
    Buffer.add_string buf (Printf.sprintf "  %-52s paper: %-14s measured: %s\n" name paper measured)
  in
  (match find 512 with
  | Some c ->
      claim "DPT drops logical redo time (Log0→Log1, 512MB)" "65%"
        (Printf.sprintf "%.0f%%" (pct_drop (redo_ms_of c Recovery.Log0) (redo_ms_of c Recovery.Log1)));
      claim "prefetch drops a further (Log1→Log2, 512MB)" "20%"
        (Printf.sprintf "%.0f%%" (pct_drop (redo_ms_of c Recovery.Log1) (redo_ms_of c Recovery.Log2)))
  | None -> ());
  let ratios m1 m2 =
    List.map
      (fun c -> Printf.sprintf "%d:%.2f" c.cache_mb (redo_ms_of c m1 /. redo_ms_of c m2))
      cells
    |> String.concat " "
  in
  claim "Log1 / SQL1 redo time" "~1.0 everywhere" (ratios Recovery.Log1 Recovery.Sql1);
  claim "Log2 / SQL2 redo time" "<=1.15" (ratios Recovery.Log2 Recovery.Sql2);
  let io_cut =
    List.map
      (fun c ->
        let l0 = (stats_of c Recovery.Log0).Rs.data_page_fetches in
        let l1 = (stats_of c Recovery.Log1).Rs.data_page_fetches in
        Printf.sprintf "%d:%.0f%%" c.cache_mb (pct_drop (float_of_int l0) (float_of_int l1)))
      cells
    |> String.concat " "
  in
  claim "DPT cuts data-page IOs" "93% @64MB … 8% @2048MB" io_cut;
  let index_wait =
    List.map
      (fun c ->
        let s = stats_of c Recovery.Log1 in
        Printf.sprintf "%d:%.0f%%" c.cache_mb (100.0 *. s.Rs.index_stall_us /. s.Rs.redo_us))
      cells
    |> String.concat " "
  in
  claim "index-page waits, share of Log1 redo" "16% @64MB … 2% @2048MB" index_wait;
  Buffer.contents buf

let costmodel cells =
  let header =
    [
      "Cache (MB)";
      "Log0 pred";
      "Log0 meas";
      "SQL1 pred";
      "SQL1 meas";
      "Log1 pred";
      "Log1 meas";
    ]
  in
  let rows =
    List.map
      (fun c ->
        let log0 = stats_of c Recovery.Log0 in
        let sql1 = stats_of c Recovery.Sql1 in
        let log1 = stats_of c Recovery.Log1 in
        [
          string_of_int c.cache_mb;
          (* Eq (1): every redo log record costs a page fetch. *)
          string_of_int log0.Rs.redo_candidates;
          string_of_int log0.Rs.data_page_fetches;
          (* Eq (2): the DPT size. *)
          string_of_int sql1.Rs.dpt_size;
          string_of_int sql1.Rs.data_page_fetches;
          (* Eq (3): DPT size plus the log tail. *)
          string_of_int (log1.Rs.dpt_size + log1.Rs.tail_records);
          string_of_int log1.Rs.data_page_fetches;
        ])
      cells
  in
  Report.table
    ~title:
      "Appendix B — cost model, predicted vs measured data-page fetches\n\
       Eq(1) COST(Log0) ~ #log records;  Eq(2) COST(SQL1) ~ DPT;  Eq(3)\n\
       COST(Log1) ~ DPT + tail.  (Predictions ignore cache hits on repeated\n\
       pages, so measured <= predicted except under page swaps, as in the\n\
       paper.)"
    ~header ~rows ()

type fig3_cell = { multiplier : int; methods3 : (Recovery.method_ * Rs.t) list }

let run_fig3 { scale; progress } ~cache_mb ~multipliers =
  List.map
    (fun multiplier ->
      progress
        (Printf.sprintf "fig3: checkpoint interval %dx (scale 1/%d)" multiplier scale);
      let setup = Experiment.paper_setup ~scale ~cache_mb ~ckpt_multiplier:multiplier () in
      let run = Experiment.build setup in
      { multiplier; methods3 = Experiment.run_all run Recovery.all_methods })
    multipliers

let fig3 cells =
  let methods = match cells with [] -> [] | c :: _ -> List.map fst c.methods3 in
  let header = "ckpt interval" :: List.map Recovery.method_to_string methods in
  let rows =
    List.map
      (fun c ->
        Printf.sprintf "%dx" c.multiplier
        :: List.map (fun m -> Report.ms (Rs.redo_ms (List.assoc m c.methods3))) methods)
      cells
  in
  Report.table
    ~title:
      "Figure 3 (Appendix C) — redo time (simulated ms) vs checkpoint interval\n\
       (paper: Log0 grows linearly; Log1/SQL1 roughly double at 5x; Log2/SQL2\n\
       grow only ~1.2x per step)"
    ~header ~rows ()

type appd_row = {
  label : string;
  dpt_size : int;
  redo_ms : float;
  data_fetches : int;
  delta_records : int;
  delta_kb : float;
}

let run_appd { scale; progress } ~cache_mb =
  let row label ?dpt_mode ?checkpoint_mode method_ =
    progress (Printf.sprintf "appd: %s (scale 1/%d)" label scale);
    let setup = Experiment.paper_setup ~scale ~cache_mb ?dpt_mode ?checkpoint_mode () in
    let run = Experiment.build setup in
    let stats = Experiment.run_method run method_ in
    {
      label;
      dpt_size = stats.Rs.dpt_size;
      redo_ms = Rs.redo_ms stats;
      data_fetches = stats.Rs.data_page_fetches;
      delta_records = run.Experiment.deltas_total;
      delta_kb = float_of_int run.Experiment.delta_bytes /. 1024.0;
    }
  in
  [
    row "standard Δ (§4.1)" ~dpt_mode:Config.Standard Recovery.Log1;
    row "perfect DPT (D.1: +DirtyLSNs)" ~dpt_mode:Config.Perfect Recovery.Log1;
    row "reduced logging (D.2: -FW/-FirstDirty)" ~dpt_mode:Config.Reduced Recovery.Log1;
    row "ARIES-ckpt (physiological, §3.1)" ~checkpoint_mode:Config.Aries_fuzzy Recovery.Aries_ckpt;
  ]

type split_row = {
  layout : string;
  smethod : Recovery.method_;
  s_analysis_ms : float;
  s_redo_ms : float;
  s_log_pages : int;
  tc_log_kb : float;
  dc_log_kb : float;
}

let run_split { scale; progress } ~cache_mb =
  let module Ci = Deut_core.Crash_image in
  let module Log = Deut_wal.Log_manager in
  List.concat_map
    (fun layout ->
      progress
        (Printf.sprintf "split: %s layout (scale 1/%d)" (Config.log_layout_to_string layout)
           scale);
      let setup = Experiment.paper_setup ~scale ~cache_mb () in
      let setup =
        { setup with Experiment.config = { setup.Experiment.config with Config.log_layout = layout } }
      in
      let run = Experiment.build setup in
      let image = run.Experiment.image in
      let retained log = float_of_int (Log.end_lsn log - Log.base_lsn log) /. 1024.0 in
      let tc_kb = retained image.Ci.log in
      let dc_kb =
        match image.Ci.dc_log with Some l -> retained l | None -> tc_kb
      in
      List.map
        (fun m ->
          let stats = Experiment.run_method run m in
          {
            layout = Config.log_layout_to_string layout;
            smethod = m;
            s_analysis_ms = Rs.analysis_ms stats;
            s_redo_ms = Rs.redo_ms stats;
            s_log_pages = stats.Rs.log_pages_read;
            tc_log_kb = tc_kb;
            dc_log_kb = dc_kb;
          })
        [ Recovery.Log1; Recovery.Log2 ])
    [ Config.Integrated; Config.Split ]

let split_table rows =
  let header =
    [
      "layout";
      "method";
      "analysis (ms)";
      "redo (ms)";
      "log pages read";
      "TC log KiB";
      "DC log KiB";
    ]
  in
  let body =
    List.map
      (fun r ->
        [
          r.layout;
          Recovery.method_to_string r.smethod;
          Report.ms r.s_analysis_ms;
          Report.ms r.s_redo_ms;
          string_of_int r.s_log_pages;
          Report.f1 r.tc_log_kb;
          Report.f1 r.dc_log_kb;
        ])
      rows
  in
  Report.table
    ~title:
      "Split-log layout (§4.2) vs the paper's integrated prototype (§5.1)\n\
       With its own log, the DC redo/analysis pass scans only SMO and Δ\n\
       records — \"a much smaller log than that needed for the analysis pass\n\
       with integrated recovery\"."
    ~header ~rows:body ()

let appd rows =
  let header =
    [ "variant"; "DPT size"; "Log1 redo (ms)"; "data fetches"; "Δ records"; "Δ bytes (KiB)" ]
  in
  let body =
    List.map
      (fun r ->
        [
          r.label;
          string_of_int r.dpt_size;
          Report.ms r.redo_ms;
          string_of_int r.data_fetches;
          string_of_int r.delta_records;
          Report.f1 r.delta_kb;
        ])
      rows
  in
  Report.table
    ~title:
      "Appendix D — the DC-logging spectrum (512MB-equivalent cache)\n\
       More DC logging → more accurate DPT → faster redo; Reduced logs least\n\
       but keeps the most pages; Perfect matches SQL Server's DPT exactly."
    ~header ~rows:body ()

(* ---------- parallel redo sweep ---------- *)

module Es = Deut_core.Engine_stats

type workers_cell = {
  w_cache_mb : int;
  w_method : Recovery.method_;
  w_count : int;
  w_stats : Rs.t;
  w_engine : Es.t;
}

let run_workers { scale; progress } ~cache_sizes ~workers =
  List.concat_map
    (fun cache_mb ->
      progress (Printf.sprintf "workers: cache %d MB (scale 1/%d)" cache_mb scale);
      let run = Experiment.build (Experiment.paper_setup ~scale ~cache_mb ()) in
      List.concat_map
        (fun m ->
          List.map
            (fun w ->
              let _db, w_engine, w_stats = Experiment.recover_verified ~workers:w run m in
              { w_cache_mb = cache_mb; w_method = m; w_count = w; w_stats; w_engine })
            workers)
        Recovery.all_methods)
    cache_sizes

let workers_table cells =
  let base cell =
    (* The workers=1 row of the same (cache, method) anchors the speedup. *)
    match
      List.find_opt
        (fun c -> c.w_cache_mb = cell.w_cache_mb && c.w_method = cell.w_method && c.w_count = 1)
        cells
    with
    | Some c -> Rs.redo_ms c.w_stats
    | None -> Rs.redo_ms cell.w_stats
  in
  let header =
    [
      "Cache (MB)";
      "Method";
      "workers";
      "redo (ms)";
      "speedup";
      "stalls";
      "stall p50/p95 (µs)";
      "io p50/p95 (µs)";
    ]
  in
  let rows =
    List.map
      (fun cell ->
        let e = cell.w_engine in
        [
          string_of_int cell.w_cache_mb;
          Recovery.method_to_string cell.w_method;
          string_of_int cell.w_count;
          Report.ms (Rs.redo_ms cell.w_stats);
          Printf.sprintf "%.2fx" (base cell /. Rs.redo_ms cell.w_stats);
          string_of_int cell.w_stats.Rs.stalls;
          Printf.sprintf "%.0f / %.0f" e.Es.stall_wait.Es.p50_us e.Es.stall_wait.Es.p95_us;
          Printf.sprintf "%.0f / %.0f" e.Es.data_io.Es.p50_us e.Es.data_io.Es.p95_us;
        ])
      cells
  in
  Report.table
    ~title:
      "Parallel redo — simulated workers replaying the partitioned redo range\n\
       (application stays in log order, so recovered state and apply counts are\n\
       identical at every worker count; workers overlap CPU and fetch stalls on\n\
       the shared disk, so the speedup ceiling is set by how IO-bound redo is;\n\
       percentiles are histogram bucket upper bounds)"
    ~header ~rows ()

type concurrency_cell = {
  c_clients : int;
  c_group_commit : int;
  c_stats : Client_sched.stats;
  c_digest : string;
}

(* One driver per cell of an OLTP sweep (concurrency, sharding, archiving):
   key locking on, a smaller table than the crash experiments (the load
   dominates otherwise) and a seed shared by every cell — the committed
   stream, hence the final digest, must not depend on the sweep
   coordinates.  [tweak] sets the cell's own [Config] fields. *)
let oltp_driver ~scale ~cache_mb tweak =
  let setup = Experiment.paper_setup ~scale ~cache_mb () in
  let spec =
    {
      setup.Experiment.spec with
      Workload.rows = Stdlib.max 2_000 (setup.Experiment.spec.Workload.rows / 16);
      seed = 1903;
    }
  in
  let config = tweak { setup.Experiment.config with Config.locking = true } in
  (Driver.create ~config spec, spec)

(* The determinism contract of every OLTP sweep: same seed ⇒ identical
   committed state in every cell.  Raises naming the first divergent cell. *)
let check_same_digest what ~digest ~label = function
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun c ->
          if digest c <> digest first then
            failwith
              (Printf.sprintf "%s sweep: digest diverged — %s gave %s, %s gave %s" what
                 (label first) (digest first) (label c) (digest c)))
        rest

let run_concurrency { scale; progress; _ } ~cache_mb ~clients ~group_commits ~txns =
  let coords = List.concat_map (fun gc -> List.map (fun n -> (gc, n)) clients) group_commits in
  let cells =
    List.map
      (fun (gc, n) ->
            progress
              (Printf.sprintf "concurrency: %d client%s, group_commit %d (scale 1/%d)" n
                 (if n = 1 then "" else "s")
                 gc scale);
            let driver, _ =
              oltp_driver ~scale ~cache_mb (fun c ->
                  { c with Config.group_commit = gc; clients = n })
            in
            let sched = Driver.run_concurrent driver ~txns in
            Client_sched.flush sched;
            (match Driver.verify_recovered driver (Driver.db driver) with
            | Ok () -> ()
            | Error msg -> failwith ("concurrency sweep: oracle mismatch: " ^ msg));
            {
              c_clients = n;
              c_group_commit = gc;
              c_stats = Client_sched.stats sched;
              c_digest = Client_sched.logical_digest (Driver.db driver);
            })
      coords
  in
  check_same_digest "concurrency" cells
    ~digest:(fun c -> c.c_digest)
    ~label:(fun c -> Printf.sprintf "%d clients/gc=%d" c.c_clients c.c_group_commit);
  cells

let concurrency_table cells =
  let header =
    [
      "clients";
      "group_commit";
      "txns";
      "makespan (ms)";
      "tput (txn/s)";
      "aborts";
      "abort %";
      "wounds";
      "conflicts";
      "commit p50/p95 (µs)";
      "digest";
    ]
  in
  let rows =
    List.map
      (fun cell ->
        let s = cell.c_stats in
        [
          string_of_int cell.c_clients;
          string_of_int cell.c_group_commit;
          string_of_int s.Client_sched.committed_txns;
          Report.ms s.Client_sched.makespan_ms;
          Printf.sprintf "%.0f" s.Client_sched.throughput_tps;
          string_of_int s.Client_sched.aborts;
          Printf.sprintf "%.1f" (100.0 *. s.Client_sched.abort_rate);
          string_of_int s.Client_sched.wounds;
          string_of_int s.Client_sched.conflicts;
          Printf.sprintf "%.0f / %.0f" s.Client_sched.commit_p50_us s.Client_sched.commit_p95_us;
          String.sub cell.c_digest 0 12;
        ])
      cells
  in
  Report.table
    ~title:
      "Concurrency — simulated clients interleaving transactions on the virtual clock\n\
       (descriptors are drawn in ticket order and commits gated to ticket order, so\n\
       the final digest is identical in every row; group commit batches across\n\
       clients, trading commit latency for fewer log forces; percentiles are\n\
       histogram bucket upper bounds)"
    ~header ~rows ()

(* ---------- sharded data components ---------- *)

type sharding_crash = {
  sc_shard : int;  (* which shard was crashed *)
  sc_sibling_reads : int;  (* reads served by siblings while it was down *)
  sc_recover_ms : float;  (* virtual time for Db.recover_shard *)
}

type sharding_cell = {
  sh_shards : int;
  sh_clients : int;
  sh_stats : Client_sched.stats;
  sh_digest : string;
  sh_net_msgs : int;
  sh_crash : sharding_crash option;
}

let run_sharding { scale; progress; _ } ~cache_mb ~shards ~clients ~txns ~net =
  let coords =
    List.concat_map (fun s -> List.map (fun c -> (s, c)) clients) shards
  in
  let cells =
    List.map
      (fun (n_shards, n_clients) ->
            progress
              (Printf.sprintf "sharding: %d shard%s, %d client%s%s (scale 1/%d)" n_shards
                 (if n_shards = 1 then "" else "s")
                 n_clients
                 (if n_clients = 1 then "" else "s")
                 (if net then ", networked" else "")
                 scale);
            let driver, spec =
              oltp_driver ~scale ~cache_mb (fun c ->
                  { c with Config.clients = n_clients; shards = n_shards; net })
            in
            let sched = Driver.run_concurrent driver ~txns in
            Client_sched.flush sched;
            let db = Driver.db driver in
            (* Snapshot before the availability scenario below: verify
               reads and the per-shard crash/recovery advance the virtual
               clock, and the makespan must cover the workload alone. *)
            let stats = Client_sched.stats sched in
            (match Driver.verify_recovered driver db with
            | Ok () -> ()
            | Error msg -> failwith ("sharding sweep: oracle mismatch: " ^ msg));
            let digest = Client_sched.logical_digest db in
            (* Availability scenario: crash the last shard on the live,
               quiesced engine, serve sibling reads while it is down,
               recover it alone, and require the state unperturbed. *)
            let crash =
              if n_shards <= 1 then None
              else begin
                let down = n_shards - 1 in
                let t0 = Deut_core.Db.now_ms db in
                Deut_core.Db.crash_shard db ~shard:down;
                let served = ref 0 in
                let rows = spec.Workload.rows in
                for i = 0 to 49 do
                  let key = (i * n_shards) mod rows in
                  (* [key mod shards = 0], never the crashed stripe. *)
                  if Option.is_some (Deut_core.Db.read db ~table:1 ~key) then incr served
                done;
                Deut_core.Db.recover_shard db ~shard:down;
                let recover_ms = Deut_core.Db.now_ms db -. t0 in
                let digest' = Client_sched.logical_digest db in
                if digest' <> digest then
                  failwith
                    (Printf.sprintf
                       "sharding sweep: per-shard recovery perturbed state at %d shards — %s vs %s"
                       n_shards digest digest');
                Some { sc_shard = down; sc_sibling_reads = !served; sc_recover_ms = recover_ms }
              end
            in
            let net_msgs =
              Deut_obs.Metrics.read_int
                (Deut_core.Engine.metrics (Deut_core.Db.engine db))
                "net.messages"
            in
            {
              sh_shards = n_shards;
              sh_clients = n_clients;
              sh_stats = stats;
              sh_digest = digest;
              sh_net_msgs = net_msgs;
              sh_crash = crash;
            })
      coords
  in
  (* Shard transparency: identical committed state at any shard count, any
     client count, any transport. *)
  check_same_digest "sharding" cells
    ~digest:(fun c -> c.sh_digest)
    ~label:(fun c -> Printf.sprintf "%d shards/%d clients" c.sh_shards c.sh_clients);
  cells

let sharding_table cells =
  let header =
    [
      "shards";
      "clients";
      "txns";
      "makespan (ms)";
      "tput (txn/s)";
      "aborts";
      "net msgs";
      "crash: reads while down";
      "recover shard (ms)";
      "digest";
    ]
  in
  let rows =
    List.map
      (fun cell ->
        let s = cell.sh_stats in
        [
          string_of_int cell.sh_shards;
          string_of_int cell.sh_clients;
          string_of_int s.Client_sched.committed_txns;
          Report.ms s.Client_sched.makespan_ms;
          Printf.sprintf "%.0f" s.Client_sched.throughput_tps;
          string_of_int s.Client_sched.aborts;
          string_of_int cell.sh_net_msgs;
          (match cell.sh_crash with
          | Some c -> string_of_int c.sc_sibling_reads
          | None -> "-");
          (match cell.sh_crash with
          | Some c -> Printf.sprintf "%.2f" c.sc_recover_ms
          | None -> "-");
          String.sub cell.sh_digest 0 12;
        ])
      cells
  in
  Report.table
    ~title:
      "Sharded data components — one TC driving N DCs through the Dc_access\n\
       protocol (§4.1), key space striped [key mod shards], each shard with its\n\
       own store, cache and DC log (split layout); the digest is identical in\n\
       every row (shard transparency), and each multi-shard cell crashes one\n\
       shard on the live engine, serves sibling reads while it is down, and\n\
       recovers it alone from its DC log plus its stripe of the TC log"
    ~header ~rows ()

(* ---------- log archiving ---------- *)

module Logm = Deut_wal.Log_manager
module Arch = Deut_wal.Archive

type archiving_round = {
  ar_round : int;
  ar_logged_kb : float;
  ar_live_kb : float;
  ar_archive_kb : float;
  ar_segments : int;
}

type archiving_cell = {
  a_archive : bool;
  a_rounds : archiving_round list;
  a_digest : string;
  a_methods : (Recovery.method_ * Rs.t) list;
}

let last_round cell = List.nth cell.a_rounds (List.length cell.a_rounds - 1)

let run_archiving { scale; progress; _ } ~cache_mb ~clients ~rounds ~txns_per_round =
  let module Db = Deut_core.Db in
  let module Engine = Deut_core.Engine in
  let cells =
    List.map
      (fun archive ->
        progress
          (Printf.sprintf "archiving: %s, %d rounds x %d txns, %d clients (scale 1/%d)"
             (if archive then "on" else "off")
             rounds txns_per_round clients scale);
        let driver, _ =
          oltp_driver ~scale ~cache_mb (fun c ->
              { c with Config.clients; archive; archive_min_bytes = 0 })
        in
        let db = Driver.db driver in
        let log = (Db.engine db).Engine.log in
        let round_row i =
          let archive_bytes, segments =
            match Logm.archive log with
            | Some a -> (Arch.sealed_bytes a, Arch.segment_count a)
            | None -> (0, 0)
          in
          (* The durability contract, checked on every round of the long
             run: sealed coverage meets the live base exactly — no gap, no
             unarchived drop. *)
          (match Logm.archive log with
          | Some a when Arch.segment_count a > 0 ->
              if Arch.covered_upto a <> Logm.base_lsn log then
                failwith
                  (Printf.sprintf
                     "archiving sweep: coverage gap at round %d — sealed to %d, live base %d" i
                     (Arch.covered_upto a) (Logm.base_lsn log))
          | _ -> ());
          {
            ar_round = i;
            ar_logged_kb = float_of_int (Logm.end_lsn log) /. 1024.0;
            ar_live_kb = float_of_int (Logm.end_lsn log - Logm.base_lsn log) /. 1024.0;
            ar_archive_kb = float_of_int archive_bytes /. 1024.0;
            ar_segments = segments;
          }
        in
        let rows = ref [] in
        for i = 1 to rounds do
          let sched = Driver.run_concurrent driver ~txns:txns_per_round in
          Client_sched.flush sched;
          Driver.checkpoint driver;
          rows := round_row i :: !rows
        done;
        (match Driver.verify_recovered driver db with
        | Ok () -> ()
        | Error msg -> failwith ("archiving sweep: oracle mismatch before crash: " ^ msg));
        let digest = Client_sched.logical_digest db in
        let image = Driver.crash driver in
        let methods =
          List.map
            (fun m ->
              let recovered, stats = Db.recover image m in
              (match Driver.verify_recovered driver recovered with
              | Ok () -> ()
              | Error msg ->
                  failwith
                    (Printf.sprintf
                       "archiving sweep: %s recovered wrong state from the %s log: %s"
                       (Recovery.method_to_string m)
                       (if archive then "archived+truncated" else "compacted")
                       msg));
              (m, stats))
            Recovery.all_methods
        in
        { a_archive = archive; a_rounds = List.rev !rows; a_digest = digest; a_methods = methods })
      [ false; true ]
  in
  check_same_digest "archiving" cells
    ~digest:(fun c -> c.a_digest)
    ~label:(fun c -> if c.a_archive then "archive on" else "archive off");
  let fin = last_round (List.find (fun c -> c.a_archive) cells) in
  if fin.ar_segments = 0 then failwith "archiving sweep: no segment was ever sealed";
  if fin.ar_live_kb >= fin.ar_logged_kb then
    failwith
      (Printf.sprintf "archiving sweep: live log not bounded — %.1f KiB live of %.1f logged"
         fin.ar_live_kb fin.ar_logged_kb);
  cells

let archiving_table cells =
  let header =
    [ "archive"; "round"; "logged KiB"; "live KiB"; "archived KiB"; "segments" ]
  in
  let rows =
    List.concat_map
      (fun cell ->
        List.map
          (fun r ->
            [
              (if cell.a_archive then "on" else "off");
              string_of_int r.ar_round;
              Report.f1 r.ar_logged_kb;
              Report.f1 r.ar_live_kb;
              Report.f1 r.ar_archive_kb;
              string_of_int r.ar_segments;
            ])
          cell.a_rounds)
      cells
  in
  let growth = Report.table
    ~title:
      "Log archiving — the live log stays bounded as logged bytes grow\n\
       (each round: concurrent transactions, then checkpoint + archive cut;\n\
       sealed-segment coverage meets the live base on every round — the\n\
       durability contract of DESIGN.md §8; final digests match with\n\
       archiving on and off)"
    ~header ~rows ()
  in
  let methods = match cells with c :: _ -> List.map fst c.a_methods | [] -> [] in
  let rheader =
    "method"
    :: List.concat_map
         (fun cell ->
           let tag = if cell.a_archive then "on" else "off" in
           [ "total ms (" ^ tag ^ ")"; "log pages (" ^ tag ^ ")" ])
         cells
  in
  let rrows =
    List.map
      (fun m ->
        Recovery.method_to_string m
        :: List.concat_map
             (fun cell ->
               let s = List.assoc m cell.a_methods in
               [ Report.ms (Rs.total_ms s); string_of_int s.Rs.log_pages_read ])
             cells)
      methods
  in
  growth
  ^ "\n"
  ^ Report.table
      ~title:
        "Restart from the truncated log + archive vs the compacted log\n\
         (every recovery oracle-verified; archived pages are charged to the\n\
         archive device and counted as log pages read)"
      ~header:rheader ~rows:rrows ()

module Db = Deut_core.Db
module Engine = Deut_core.Engine

(* ---------- instant recovery: availability vs cache size ---------- *)

type availability_cell = {
  v_cache_mb : int;
  v_ttft_ms : float;
  v_drained_ms : float;
  v_log2_total_ms : float;
  v_speedup : float;
  v_speedup_vs_log2 : float;
  v_pages_ondemand : int;
  v_pages_background : int;
  v_probe_reads : int;
}

let run_availability { scale; progress } ~cache_sizes ~probes =
  List.map
    (fun cache_mb ->
      progress (Printf.sprintf "availability: cache %d MB (scale 1/%d)" cache_mb scale);
      let setup = Experiment.paper_setup ~scale ~cache_mb () in
      let run = Experiment.build setup in
      let image = run.Experiment.image in
      let verify what db =
        match Oracle.verify run.Experiment.oracle db ~tables:run.Experiment.tables with
        | Ok () -> ()
        | Error msg ->
            failwith (Printf.sprintf "availability %d MB: %s: %s" cache_mb what msg)
      in
      (* Offline Log2 anchors both the time-to-full-recovery baseline and
         the determinism gate's reference digest. *)
      let db2, s2 = Db.recover image Recovery.Log2 in
      verify "Log2 baseline" db2;
      let digest2 = Client_sched.logical_digest db2 in
      (* Determinism gate: with the background redo forced to drain before
         the first client step — the [Db.recover] form — InstantLog2 must
         be byte-identical to Log2 at every cache size. *)
      let dbi, _ = Db.recover image Recovery.InstantLog2 in
      verify "drained InstantLog2" dbi;
      let digesti = Client_sched.logical_digest dbi in
      if digesti <> digest2 then
        failwith
          (Printf.sprintf
             "availability: InstantLog2 digest diverged from Log2 at %d MB — %s vs %s"
             cache_mb digesti digest2);
      (* Staged run: the engine serves probe reads from the moment it
         opens, interleaved with background drain steps on the virtual
         clock.  TTFT and drain time both come from this run's stats. *)
      let inst = Db.recover_instant image in
      let rdb = Db.instant_db inst in
      let spec = setup.Experiment.spec in
      let rng = Deut_sim.Rng.create ~seed:(spec.Workload.seed + 17) in
      let served = ref 0 in
      let draining = ref true in
      while !draining || !served < probes do
        if !served < probes then begin
          let table = 1 + Deut_sim.Rng.int rng spec.Workload.tables in
          ignore (Db.read rdb ~table ~key:(Deut_sim.Rng.int rng spec.Workload.rows));
          incr served
        end;
        if !draining then draining := Db.instant_step inst
      done;
      let si = Db.instant_finish inst in
      verify "staged InstantLog2" rdb;
      if Client_sched.logical_digest rdb <> digest2 then
        failwith
          (Printf.sprintf "availability: staged InstantLog2 digest diverged from Log2 at %d MB"
             cache_mb);
      let ttft = Rs.ttft_ms si in
      let drained = Rs.drained_ms si in
      let log2 = Rs.total_ms s2 in
      {
        v_cache_mb = cache_mb;
        v_ttft_ms = ttft;
        v_drained_ms = drained;
        v_log2_total_ms = log2;
        v_speedup = (if ttft > 0.0 then drained /. ttft else 0.0);
        v_speedup_vs_log2 = (if ttft > 0.0 then log2 /. ttft else 0.0);
        v_pages_ondemand = si.Rs.pages_ondemand;
        v_pages_background = si.Rs.pages_background;
        v_probe_reads = !served;
      })
    cache_sizes

let availability_table cells =
  let header =
    [
      "Cache (MB)";
      "open at (ms)";
      "drained (ms)";
      "Log2 total (ms)";
      "speedup";
      "vs Log2";
      "pages on-demand";
      "pages background";
      "probe reads";
    ]
  in
  let rows =
    List.map
      (fun c ->
        [
          string_of_int c.v_cache_mb;
          Report.ms c.v_ttft_ms;
          Report.ms c.v_drained_ms;
          Report.ms c.v_log2_total_ms;
          Printf.sprintf "%.1fx" c.v_speedup;
          Printf.sprintf "%.1fx" c.v_speedup_vs_log2;
          string_of_int c.v_pages_ondemand;
          string_of_int c.v_pages_background;
          string_of_int c.v_probe_reads;
        ])
      cells
  in
  Report.table
    ~title:
      "Instant recovery — time to first transaction vs time to full recovery\n\
       (InstantLog2 opens right after analysis + log scan — history\n\
        indexing, redo and loser rollback are all demand-driven — and redoes\n\
       pages on demand; speedup = drained/open; vs Log2 = offline Log2 total/open;\n\
       every cell's digest is checked byte-identical to offline Log2 before\n\
       timings are reported)"
    ~header ~rows ()

(* ---------- JSON ---------- *)

type json = Null | Bool of bool | Num of string | Str of string | Arr of json list | Obj of (string * json) list

let num fmt = Printf.ksprintf (fun s -> Num s) fmt
let int n = Num (string_of_int n)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_to_string j =
  let rec value indent = function
    | Null -> "null"
    | Bool b -> string_of_bool b
    | Num s -> s
    | Str s -> "\"" ^ json_escape s ^ "\""
    | Arr xs -> block indent "[" "]" (List.map (value (indent ^ "  ")) xs)
    | Obj kvs ->
        block indent "{" "}"
          (List.map (fun (k, v) -> value "" (Str k) ^ ": " ^ value (indent ^ "  ") v) kvs)
  and block indent op cl = function
    | [] -> op ^ cl
    | items ->
        let items = List.map (fun s -> indent ^ "  " ^ s) items in
        op ^ "\n" ^ String.concat ",\n" items ^ "\n" ^ indent ^ cl
  in
  value "" j ^ "\n"

let fig2_json cell =
  let method_json (m, s) =
    Obj
      [
        ("method", Str (Recovery.method_to_string m));
        ("wall_s", num "%.4f" (List.assoc m cell.method_walls));
        ("analysis_ms", num "%.3f" (Rs.analysis_ms s));
        ("redo_ms", num "%.3f" (Rs.redo_ms s));
        ("undo_ms", num "%.3f" (Rs.undo_ms s));
        ("records_scanned", int s.Rs.records_scanned);
        ("redo_applied", int s.Rs.redo_applied);
        ("data_page_fetches", int s.Rs.data_page_fetches);
        ("log_pages_read", int s.Rs.log_pages_read);
      ]
  in
  Obj
    [
      ("cache_mb", int cell.cache_mb);
      ("pool_pages", int cell.pool_pages);
      ("db_pages", int cell.db_pages);
      ("build_wall_s", num "%.3f" cell.build_wall_s);
      ("methods", Arr (List.map method_json cell.methods));
    ]

let sharding_json c =
  let s = c.sh_stats in
  Obj
    [
      ("shards", int c.sh_shards);
      ("clients", int c.sh_clients);
      ("txns", int s.Client_sched.committed_txns);
      ("makespan_ms", num "%.3f" s.Client_sched.makespan_ms);
      ("tput_tps", num "%.0f" s.Client_sched.throughput_tps);
      ("net_msgs", int c.sh_net_msgs);
      ( "recover_shard_ms",
        match c.sh_crash with Some cr -> num "%.3f" cr.sc_recover_ms | None -> Null );
      ("digest", Str c.sh_digest);
    ]

let archiving_json c =
  let fin = last_round c in
  Obj
    [
      ("archive", Bool c.a_archive);
      ("rounds", int (List.length c.a_rounds));
      ("final_logged_kb", num "%.1f" fin.ar_logged_kb);
      ("final_live_kb", num "%.1f" fin.ar_live_kb);
      ("final_archived_kb", num "%.1f" fin.ar_archive_kb);
      ("segments", int fin.ar_segments);
      ("digest", Str c.a_digest);
    ]

let availability_json c =
  Obj
    [
      ("cache_mb", int c.v_cache_mb);
      ("ttft_ms", num "%.3f" c.v_ttft_ms);
      ("drained_ms", num "%.3f" c.v_drained_ms);
      ("log2_total_ms", num "%.3f" c.v_log2_total_ms);
      ("speedup", num "%.2f" c.v_speedup);
      ("speedup_vs_log2", num "%.2f" c.v_speedup_vs_log2);
      ("pages_ondemand", int c.v_pages_ondemand);
      ("pages_background", int c.v_pages_background);
      ("probe_reads", int c.v_probe_reads);
    ]

(* ---------- parameters ---------- *)

type _ kind =
  | Int : int kind
  | Ints : int list kind
  | Flag : bool kind
  | Int_opt : int option kind
  | Float_opt : float option kind
  | Methods : Recovery.method_ list kind

type 'a param = {
  names : string list;
  docv : string;
  doc : string;
  kind : 'a kind;
  full : 'a;
  quick : 'a;
}

type _ term = Const : 'a -> 'a term | App : ('a -> 'b) term * 'a param -> 'b term

let ( $ ) f p = App (f, p)

(* Every integer a parameter carries — a count, a size, a round number, a
   list element — is at least 1: a 0 would crash a runner (no rounds, a
   division by the scale) or print a row labelled "0 clients". *)
let positive s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some n -> Error (Printf.sprintf "%d is below 1" n)
  | None -> Error (Printf.sprintf "%S is not an integer" s)

let parse_method s =
  match String.lowercase_ascii (String.trim s) with
  | "log0" -> Ok Recovery.Log0
  | "log1" -> Ok Recovery.Log1
  | "log2" -> Ok Recovery.Log2
  | "sql1" -> Ok Recovery.Sql1
  | "sql2" -> Ok Recovery.Sql2
  | "aries" | "aries-ckpt" -> Ok Recovery.Aries_ckpt
  | "instant" | "instant-log2" | "instantlog2" -> Ok Recovery.InstantLog2
  | other -> Error (Printf.sprintf "unknown recovery method %S" other)

let parse_list parse s =
  List.fold_right
    (fun x acc -> Result.bind acc (fun xs -> Result.map (fun v -> v :: xs) (parse x)))
    (String.split_on_char ',' s) (Ok [])

let parse : type a. a kind -> string -> (a, string) result =
 fun kind s ->
  match kind with
  | Int -> positive s
  | Ints -> parse_list positive s
  | Flag -> Option.to_result ~none:(s ^ " is not a boolean") (bool_of_string_opt s)
  | Int_opt -> Result.map Option.some (positive s)
  | Float_opt ->
      Option.to_result ~none:(s ^ " is not a number") (Option.map Option.some (float_of_string_opt s))
  | Methods -> parse_list parse_method s

let show : type a. a kind -> a -> string =
 fun kind v ->
  let list f xs = String.concat "," (List.map f xs) in
  match kind with
  | Int -> string_of_int v
  | Ints -> list string_of_int v
  | Flag -> string_of_bool v
  | Int_opt -> Option.fold ~none:"" ~some:string_of_int v
  | Float_opt -> Option.fold ~none:"" ~some:string_of_float v
  | Methods -> list (fun m -> String.lowercase_ascii (Recovery.method_to_string m)) v

let rec eval : type a. quick:bool -> a term -> a =
 fun ~quick -> function
  | Const x -> x
  | App (f, p) -> (eval ~quick f) (if quick then p.quick else p.full)

let param ?(docv = "N") names doc kind ~full ~quick = { names; docv; doc; kind; full; quick }

let scale_param =
  param [ "s"; "scale" ] "Divide the paper's sizes (database, cache, checkpoint interval) by $(docv)."
    Int ~full:64 ~quick:64

let cache_mb mb =
  param ~docv:"MB" [ "c"; "cache" ] "Paper-equivalent cache size in MB (64..2048)." Int ~full:mb
    ~quick:mb

let cache_sizes names =
  param ~docv:"MBS" names "Comma-separated paper-equivalent cache sizes in MB." Ints

let counts what = param ~docv:"NS" [ "counts" ] ("Comma-separated " ^ what ^ " counts to sweep.") Ints
let txns per = param [ "t"; "txns" ] ("Committed transactions per " ^ per ^ ".") Int

(* ---------- the registry ---------- *)

type output = {
  sections : (string * string) list;
  json : json option;
  gate : (string, string) result option;
}

type entry = { name : string; key : string; doc : string; term : (ctx -> output) term }

let output ?json ?gate sections = { sections; json; gate }

let registry =
  [
    {
      name = "fig2";
      key = "fig2";
      doc =
        "Figures 2(a)-(c), the per-phase breakdown, the §5.3 claims and the Appendix B cost \
         model: one crash per cache size, recovered with the paper's five methods.";
      term =
        Const
          (fun cache_sizes ctx ->
            let cells = run_fig2 ctx ~cache_sizes in
            output
              ~json:(Arr (List.map fig2_json cells))
              [
                ("FIGURE 2(a)", fig2a cells);
                ("FIGURE 2(b)", fig2b cells);
                ("FIGURE 2(c)", fig2c cells);
                ("PER-PHASE BREAKDOWN", phase_table cells);
                ("SECTION 5.3 CLAIMS", sec53 cells);
                ("APPENDIX B COST MODEL", costmodel cells);
              ])
        $ cache_sizes [ "cache-sizes" ] ~full:paper_cache_sizes ~quick:[ 64; 512; 2048 ];
    };
    {
      name = "fig3";
      key = "fig3";
      doc = "Figure 3 (Appendix C): redo time vs checkpoint interval.";
      term =
        Const
          (fun cache_mb multipliers ctx ->
            output [ ("FIGURE 3 (APPENDIX C)", fig3 (run_fig3 ctx ~cache_mb ~multipliers)) ])
        $ cache_mb 512
        $ param ~docv:"KS" [ "multipliers" ] "Checkpoint interval multipliers." Ints
            ~full:[ 1; 5; 10 ] ~quick:[ 1; 5 ];
    };
    {
      name = "appd";
      key = "appd";
      doc = "Appendix D ablations: the DC-logging spectrum plus ARIES checkpointing.";
      term =
        Const (fun cache_mb ctx -> output [ ("APPENDIX D ABLATIONS", appd (run_appd ctx ~cache_mb)) ])
        $ cache_mb 512;
    };
    {
      name = "splitlog";
      key = "split";
      doc = "Split-log layout (§4.2) vs the integrated prototype, Log1 and Log2.";
      term =
        Const
          (fun cache_mb ctx ->
            output [ ("SPLIT-LOG LAYOUT (§4.2)", split_table (run_split ctx ~cache_mb)) ])
        $ cache_mb 512;
    };
    {
      name = "workers";
      key = "workers";
      doc =
        "Parallel-redo sweep: redo time and latency percentiles per (cache size, method, \
         worker count), at an IO-bound and an apply-bound cache.";
      term =
        Const
          (fun cache_sizes workers ctx ->
            output [ ("PARALLEL REDO", workers_table (run_workers ctx ~cache_sizes ~workers)) ])
        $ cache_sizes [ "c"; "cache" ] ~full:[ 64; 512 ] ~quick:[ 64 ]
        $ counts "worker" ~full:[ 1; 2; 4; 8 ] ~quick:[ 1; 4 ];
    };
    {
      name = "clients";
      key = "concurrency";
      doc =
        "Concurrency sweep: simulated multi-client normal execution per (clients, \
         group_commit) cell, with the cross-cell determinism digest check.";
      term =
        Const
          (fun cache_mb clients group_commits txns ctx ->
            output
              [
                ( "CONCURRENCY",
                  concurrency_table (run_concurrency ctx ~cache_mb ~clients ~group_commits ~txns)
                );
              ])
        $ cache_mb 256
        $ counts "client" ~full:[ 1; 2; 4; 8 ] ~quick:[ 1; 4 ]
        $ param ~docv:"GS" [ "group-commits" ] "Comma-separated group-commit batch sizes." Ints
            ~full:[ 1; 4; 16 ] ~quick:[ 1; 4 ]
        $ txns "cell" ~full:300 ~quick:120;
    };
    {
      name = "shards";
      key = "sharding";
      doc =
        "Sharding sweep: one TC driving N data components per (shards, clients) cell, with \
         the cross-cell shard-transparency digest check and a single-shard-crash \
         availability scenario per multi-shard cell.";
      term =
        Const
          (fun cache_mb shards clients txns net ctx ->
            let cells = run_sharding ctx ~cache_mb ~shards ~clients ~txns ~net in
            output ~json:(Arr (List.map sharding_json cells)) [ ("SHARDING", sharding_table cells) ])
        $ cache_mb 256
        $ counts "shard" ~full:[ 1; 2; 4; 8 ] ~quick:[ 1; 4 ]
        $ param ~docv:"NS" [ "clients" ] "Comma-separated client counts to sweep." Ints
            ~full:[ 4; 8 ] ~quick:[ 4 ]
        $ txns "cell" ~full:300 ~quick:120
        $ param [ "net" ]
            "Route the TC-DC protocol over simulated network links (latency model from \
             DEUT_NET_* / defaults) instead of in-process calls."
            Flag ~full:false ~quick:false;
    };
    {
      name = "archive";
      key = "archiving";
      doc =
        "Log-archiving sweep: the long-running multi-client workload with periodic \
         checkpoint + archive cuts, run with archiving off and on.  Shows the live log \
         staying bounded while logged bytes grow, checks the sealed-coverage durability \
         contract every round, cross-checks the final digests, and restarts from the \
         truncated log + archive with every method (oracle-verified).";
      term =
        Const
          (fun cache_mb clients rounds txns_per_round ctx ->
            let cells = run_archiving ctx ~cache_mb ~clients ~rounds ~txns_per_round in
            output ~json:(Arr (List.map archiving_json cells)) [ ("ARCHIVING", archiving_table cells) ])
        $ cache_mb 256
        $ param [ "clients" ] "Simulated concurrent clients driving the workload." Int ~full:4
            ~quick:4
        $ param [ "rounds" ] "Checkpoint + archive-cut rounds to run." Int ~full:8 ~quick:4
        $ txns "round" ~full:120 ~quick:60;
    };
    {
      name = "instant";
      key = "availability";
      doc =
        "Instant-recovery availability sweep: per cache size, recover with InstantLog2 and \
         report time-to-first-transaction vs time-to-full-recovery, both against the staged \
         run's own drain and against offline Log2.  Each cell first proves the determinism \
         gate — the drained InstantLog2 state is byte-identical to offline Log2 — then \
         serves probe reads during the staged drain.  With $(b,--min-speedup), acts as a \
         regression gate on the availability win.";
      term =
        Const
          (fun cache_sizes probes min_speedup ctx ->
            let cells = run_availability ctx ~cache_sizes ~probes in
            let smallest =
              List.fold_left
                (fun b c -> if c.v_cache_mb < b.v_cache_mb then c else b)
                (List.hd cells) cells
            in
            let gate r =
              if smallest.v_speedup < r then
                Error
                  (Printf.sprintf
                     "availability gate — %.1fx at %d MB, need >= %.1fx (open %.3f ms, drained \
                      %.3f ms)"
                     smallest.v_speedup smallest.v_cache_mb r smallest.v_ttft_ms
                     smallest.v_drained_ms)
              else
                Ok
                  (Printf.sprintf
                     "availability gate OK: %.1fx at %d MB (need >= %.1fx); open is %.1fx \
                      faster than offline Log2"
                     smallest.v_speedup smallest.v_cache_mb r smallest.v_speedup_vs_log2)
            in
            output
              ~json:(Arr (List.map availability_json cells))
              ?gate:(Option.map gate min_speedup)
              [ ("INSTANT RECOVERY (AVAILABILITY)", availability_table cells) ])
        $ cache_sizes [ "cache-sizes" ] ~full:paper_cache_sizes ~quick:[ 64; 512; 2048 ]
        $ param [ "probes" ] "Probe reads served while the background redo is still draining." Int
            ~full:32 ~quick:32
        $ param ~docv:"R" [ "min-speedup" ]
            "Gate: fail (exit 1) unless time-to-full-recovery is at least $(docv)x the \
             time-to-first-transaction at the smallest cache size."
            Float_opt ~full:None ~quick:None;
    };
  ]

let run ~quick ctx e = eval ~quick e.term ctx

let parse_arg e name value =
  let rec find : type a. a term -> (unit, string) result option = function
    | Const _ -> None
    | App (f, p) ->
        if List.mem name p.names then Some (Result.map ignore (parse p.kind value)) else find f
  in
  match find e.term with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Figures.parse_arg: %s has no --%s" e.name name)
