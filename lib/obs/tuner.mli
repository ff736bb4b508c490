(** Deterministic prefetch auto-tuner over mined profiles.

    This module is the policy half of the feedback loop: given one
    {!Analysis.t} per candidate prefetch setting (all from the same crash
    image, produced by a sweep the caller runs — see
    the [tune] entry of [Figures.registry]), it scores each candidate by its stall-attributed
    time plus penalties for late and wasted prefetches, and picks a winner
    with a total-order tie-break so the recommendation is reproducible.

    It sits below the engine in the dependency order, so candidates are
    plain integers/strings here; mapping them onto [Config.prefetch_*] is
    the caller's job. *)

(** One prefetch setting under trial.  [lookahead] only matters to
    log-driven (SQL2-style) prefetch and [source] only to PF-list
    (Log2-style) prefetch; sweeps hold the irrelevant one fixed. *)
type candidate = { window : int; chunk : int; lookahead : int; source : string }

val candidate_to_string : candidate -> string

(** A candidate with its measured result: the mined profile and the
    simulated redo time the engine reported for that run. *)
type outcome = { cand : candidate; profile : Analysis.t; redo_ms : float }

val score : Analysis.t -> float
(** Stall-attributed µs, plus [50 µs] per wasted prefetched page (a page
    transfer spent on nothing) and [12.5 µs] per late page (the batch was
    issued, but after the cursor needed it).  Lower is better.  Pure
    arithmetic on the profile — no clock, no randomness. *)

val best : outcome list -> outcome option
(** Minimum score; ties break on (window, chunk, lookahead, source)
    ascending, so equal-scoring sweeps always recommend the same setting.
    [None] on an empty list. *)

val table : default:candidate -> outcome list -> string
(** Recommendation table, one row per outcome in sweep order: setting,
    simulated redo ms, stall ms, late/wasted counts, score; the row
    matching [default] is marked [default], the winner [<-- best]. *)
