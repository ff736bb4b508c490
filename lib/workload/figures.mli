(** The experiment registry: every table and figure of the paper's
    evaluation (§5.3, Figures 2–3, Appendices B–D) and every sweep beyond
    it, each declared once.

    An entry names its CLI subcommand and its bench/JSON key, and lists its
    parameters, each with one full and one quick default.  Its run function
    performs the workload + crash + side-by-side recoveries (verifying every
    recovery against the oracle and raising on any divergence) and returns
    paper-shaped text tables, an optional JSON value and an optional gate.
    [bench/main.exe] runs every entry at its defaults; [repro_cli] turns
    every entry into a subcommand, one flag per parameter. *)

(** {1 JSON} *)

type json =
  | Null
  | Bool of bool
  | Num of string  (** printed verbatim, so each producer fixes its precision *)
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val json_to_string : json -> string
(** Indented, fields in declaration order, every string through one escaper. *)

(** {1 Parameters} *)

type _ kind =
  | Int : int kind
  | Ints : int list kind  (** comma-separated *)
  | Flag : bool kind
  | Int_opt : int option kind
  | Float_opt : float option kind
  | Methods : Deut_core.Recovery.method_ list kind  (** comma-separated method names *)

type 'a param = {
  names : string list;  (** CLI flag names; [[]] makes the parameter positional *)
  docv : string;
  doc : string;
  kind : 'a kind;
  full : 'a;  (** the CLI default and the full bench's value *)
  quick : 'a;  (** the [DEUT_QUICK] bench's value *)
}

val parse : 'a kind -> string -> ('a, string) result
(** The one value parser behind every flag.  Every integer — a count, a
    size, a round number, each element of a list — must be at least 1, and
    a list has at least one element. *)

val show : 'a kind -> 'a -> string
(** Inverse of {!parse}, for printing defaults. *)

val scale_param : int param
(** [-s/--scale N]: divide the paper's sizes by N (default 64).  Shared by
    every entry; it reaches the run function through {!ctx}. *)

(** An entry's parameters, applied in order to its run function. *)
type _ term = Const : 'a -> 'a term | App : ('a -> 'b) term * 'a param -> 'b term

(** {1 Experiments} *)

type ctx = { scale : int; progress : string -> unit }

type output = {
  sections : (string * string) list;  (** (bench section title, rendered tables) *)
  json : json option;  (** the bench summary's block under the entry's [key] *)
  gate : (string, string) result option;
      (** [Error] fails the run (exit 1); [Ok] carries the pass message *)
}

type entry = {
  name : string;  (** CLI subcommand *)
  key : string;  (** bench section and JSON key *)
  doc : string;
  term : (ctx -> output) term;
}

val registry : entry list
(** In bench order: fig2, fig3, appd, split, workers, concurrency,
    sharding, archiving, availability. *)

val run : quick:bool -> ctx -> entry -> output
(** Run an entry at its full or quick defaults. *)

val parse_arg : entry -> string -> string -> (unit, string) result
(** [parse_arg e name v] parses [v] as the value of [e]'s parameter
    [--name], exactly as the CLI does. *)
