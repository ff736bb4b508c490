type params = {
  seek_us : float;
  transfer_us : float;
  sequential_gap : int;
  batch_seek_factor : float;
}

let default_params =
  { seek_us = 4000.0; transfer_us = 50.0; sequential_gap = 1; batch_seek_factor = 0.75 }

type counters = {
  mutable requests : int;
  mutable pages_read : int;
  mutable pages_written : int;
  mutable seeks : int;
  mutable sequential_requests : int;
}

type t = {
  clock : Clock.t;
  params : params;
  counters : counters;
  mutable free_at : float;  (* when the queue drains *)
  mutable head_pos : int;  (* pid just past the last request served *)
  mutable trace : Deut_obs.Trace.t option;
  mutable track : int;
  mutable io_hist : Deut_obs.Metrics.histogram option;
}

let create ?(params = default_params) clock =
  {
    clock;
    params;
    counters =
      { requests = 0; pages_read = 0; pages_written = 0; seeks = 0; sequential_requests = 0 };
    free_at = 0.0;
    head_pos = -1000;
    trace = None;
    track = 0;
    io_hist = None;
  }

let instrument t ?trace ?io_hist ~track () =
  t.trace <- trace;
  t.io_hist <- io_hist;
  t.track <- track

(* Record one serviced request.  [start] is when the head began moving, so
   the span shows pure service time; queueing delay is visible as the gap
   to the preceding span on the same track. *)
let note t ~ev ~start ~completion ~args =
  (match t.io_hist with
  | Some h -> Deut_obs.Metrics.observe h (completion -. start)
  | None -> ());
  match t.trace with
  | Some tr ->
      Deut_obs.Trace.span tr ~name:ev ~cat:"io" ~track:t.track ~ts:start
        ~dur:(completion -. start) ~args ()
  | None -> ()

let params t = t.params
let counters t = t.counters

let reset_counters t =
  let c = t.counters in
  c.requests <- 0;
  c.pages_read <- 0;
  c.pages_written <- 0;
  c.seeks <- 0;
  c.sequential_requests <- 0

let busy_until t = Float.max t.free_at (Clock.now t.clock)

(* Core queueing step: a request for [count] pages starting at [first_pid]
   begins when the disk is free, pays a seek unless it continues the previous
   transfer, and transfers each page.  A request that arrives while the
   device is still busy joins a non-empty queue, so the head schedules it
   like a batch member and its positioning costs [batch_seek_factor ×
   seek_us]; an arrival at an idle device (queue depth 0 — every synchronous
   miss path, since the caller stalled to the previous completion) pays the
   full cold seek.  Returns the completion time. *)
let submit t ~first_pid ~count =
  let now = Clock.now t.clock in
  let queued = t.free_at > now in
  let start = if queued then t.free_at else now in
  let sequential = abs (first_pid - t.head_pos) <= t.params.sequential_gap in
  let seek =
    if sequential then 0.0
    else if queued then t.params.seek_us *. t.params.batch_seek_factor
    else t.params.seek_us
  in
  let completion = start +. seek +. (float_of_int count *. t.params.transfer_us) in
  t.free_at <- completion;
  t.head_pos <- first_pid + count;
  t.counters.requests <- t.counters.requests + 1;
  if sequential then t.counters.sequential_requests <- t.counters.sequential_requests + 1
  else t.counters.seeks <- t.counters.seeks + 1;
  (start, completion)

let submit_read t ~pid =
  let start, completion = submit t ~first_pid:pid ~count:1 in
  t.counters.pages_read <- t.counters.pages_read + 1;
  note t ~ev:"io_read" ~start ~completion ~args:[ ("pid", pid) ];
  completion

let submit_block_read t ~first_pid ~count =
  let start, completion = submit t ~first_pid ~count in
  t.counters.pages_read <- t.counters.pages_read + count;
  note t ~ev:"io_block" ~start ~completion ~args:[ ("first_pid", first_pid); ("count", count) ];
  completion

let submit_write t ~pid =
  let start, completion = submit t ~first_pid:pid ~count:1 in
  t.counters.pages_written <- t.counters.pages_written + 1;
  note t ~ev:"io_write" ~start ~completion ~args:[ ("pid", pid) ];
  completion

let submit_sequential_write t ~first_pid ~count =
  let start, completion = submit t ~first_pid ~count in
  t.counters.pages_written <- t.counters.pages_written + count;
  note t ~ev:"io_write_seq" ~start ~completion
    ~args:[ ("first_pid", first_pid); ("count", count) ];
  completion

type run = { first_pid : int; last_pid : int; completion : float }

let submit_batch_read t ~extent pids =
  let batch_seek = t.params.seek_us *. t.params.batch_seek_factor in
  (* Serve one run [first..last] after the previous one: a batch seek
     unless it continues where the head stopped, then a transfer of every
     page in the span, wanted or not. *)
  let serve first last =
    let start = busy_until t in
    let sequential = abs (first - t.head_pos) <= t.params.sequential_gap in
    let count = last - first + 1 in
    let completion =
      start +. (if sequential then 0.0 else batch_seek) +. (float_of_int count *. t.params.transfer_us)
    in
    if sequential then t.counters.sequential_requests <- t.counters.sequential_requests + 1
    else t.counters.seeks <- t.counters.seeks + 1;
    t.counters.pages_read <- t.counters.pages_read + count;
    t.head_pos <- last + 1;
    t.free_at <- completion;
    note t ~ev:"io_batch" ~start ~completion ~args:[ ("first_pid", first); ("count", count) ];
    { first_pid = first; last_pid = last; completion }
  in
  let rec runs acc first last = function
    | pid :: rest when pid / extent = first / extent -> runs acc first pid rest
    | rest -> (
        let acc = serve first last :: acc in
        match rest with [] -> List.rev acc | pid :: rest -> runs acc pid pid rest)
  in
  match List.sort_uniq Int.compare pids with
  | [] -> []
  | first :: rest ->
      t.counters.requests <- t.counters.requests + 1;
      runs [] first first rest

let read_sync t ~pid = Clock.advance_to t.clock (submit_read t ~pid)

let read_sequential_sync t ~first_pid ~count =
  let start, completion = submit t ~first_pid ~count in
  t.counters.pages_read <- t.counters.pages_read + count;
  note t ~ev:"io_log" ~start ~completion ~args:[ ("first_pid", first_pid); ("count", count) ];
  Clock.advance_to t.clock completion

let drain t = Clock.advance_to t.clock t.free_at
