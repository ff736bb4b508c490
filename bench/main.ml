(* The full benchmark harness: runs every experiment of the registry
   ([Figures.registry] — the paper's evaluation, §5.3 + appendices, in
   simulated time, and the sweeps beyond it) and finishes with Bechamel
   wall-clock micro-benchmarks of the engine's hot paths.

   Environment knobs:
     DEUT_SCALE        divisor of the paper's sizes (default 64, at least 8;
                       smaller = bigger experiment; see DESIGN.md §1)
     DEUT_QUICK        if set, runs every experiment at its quick defaults
     DEUT_BENCH_JSON   output path for the machine-readable run summary
                       (default BENCH_recovery.json in the working dir) *)

module Figures = Deut_workload.Figures

let scale =
  match Sys.getenv_opt "DEUT_SCALE" with
  | None -> 64
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> max 8 n
      | None ->
          Printf.eprintf "bench: DEUT_SCALE=%S is not an integer\n" s;
          exit 2)

let quick = Sys.getenv_opt "DEUT_QUICK" <> None
let progress msg = Printf.eprintf "[bench] %s\n%!" msg

let section title =
  print_newline ();
  print_endline (String.make 78 '=');
  print_endline title;
  print_endline (String.make 78 '=');
  print_newline ()

(* Wall-clock and memory accounting per harness section, reported at the
   end and in the JSON summary.  The workload is allocation-heavy (every
   insert encodes a log record; every flush stamps a page image), so a minor
   heap sized for interactive programs spends a measurable fraction of the
   run in the GC — give the bench process a larger nursery up front.  The
   major heap keeps OCaml's default [space_overhead]: raising it trades
   peak RSS for little wall clock. *)
let () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 }

(* (name, wall seconds, peak RSS in kB at the section's end), newest first *)
let section_stats : (string * float * int) list ref = ref []

(* The process's peak resident set (VmHWM) in kB; 0 where /proc is absent. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> kb
            | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> go ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

let timed_section name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  section_stats := (name, Unix.gettimeofday () -. t0, peak_rss_kb ()) :: !section_stats;
  r

let () =
  let harness_t0 = Unix.gettimeofday () in
  Printf.printf
    "Deuteronomy logical-recovery reproduction — benchmark harness\n\
     scale: 1/%d of the paper's sizes (DB %d pages-equivalent; see DESIGN.md)\n\
     All recovery runs are verified against the committed-state oracle before\n\
     their timings are reported.\n"
    scale (436_000 / scale);
  let ctx = { Figures.scale; progress } in
  let blocks =
    List.filter_map
      (fun (e : Figures.entry) ->
        let out = timed_section e.key (fun () -> Figures.run ~quick ctx e) in
        List.iter
          (fun (title, text) ->
            section title;
            print_string text)
          out.sections;
        (match out.gate with
        | None -> ()
        | Some (Ok msg) -> print_endline msg
        | Some (Error msg) ->
            Printf.eprintf "FAIL: %s\n" msg;
            exit 1);
        Option.map (fun j -> (e.key, j)) out.json)
      Figures.registry
  in

  (* Bechamel micro-benchmarks: wall-clock cost of the engine's hot paths. *)
  section "MICRO-BENCHMARKS (Bechamel, wall clock)";
  print_string (timed_section "micro" (fun () -> Micro.run ()));

  let total_wall_s = Unix.gettimeofday () -. harness_t0 in
  let sections = List.rev !section_stats in
  let cores = Domain.recommended_domain_count () in
  let peak_rss_kb = peak_rss_kb () in
  section "WALL-CLOCK PER SECTION (real seconds, not simulated; peak RSS at section end)";
  List.iter
    (fun (name, w, rss) -> Printf.printf "  %-14s %7.2f s %10d kB\n" name w rss)
    sections;
  Printf.printf "  %-14s %7.2f s\n" "total" total_wall_s;
  Printf.printf "  %-14s %7d\n" "cores" cores;
  Printf.printf "  %-14s %7d kB\n" "peak RSS" peak_rss_kb;

  (* Machine-readable summary, consumed by CI as an artifact: the run's
     shape, the machine and wall clock, then one block per experiment that
     has one. *)
  let secs x = Figures.Num (Printf.sprintf "%.3f" x) in
  let summary =
    Figures.Obj
      ([
         ("schema", Figures.Str "deut-bench-recovery/1");
         ("scale", Figures.Num (string_of_int scale));
         ("quick", Figures.Bool quick);
         ("cores", Figures.Num (string_of_int cores));
         ("peak_rss_kb", Figures.Num (string_of_int peak_rss_kb));
         ("total_wall_s", secs total_wall_s);
         ( "sections",
           Figures.Arr
             (List.map
                (fun (name, w, rss) ->
                  Figures.Obj
                    [
                      ("name", Figures.Str name);
                      ("wall_s", secs w);
                      ("peak_rss_kb", Figures.Num (string_of_int rss));
                    ])
                sections) );
       ]
      @ blocks)
  in
  let path =
    match Sys.getenv_opt "DEUT_BENCH_JSON" with Some p -> p | None -> "BENCH_recovery.json"
  in
  let oc = open_out path in
  output_string oc (Figures.json_to_string summary);
  close_out oc;
  progress (Printf.sprintf "wrote %s" path)
