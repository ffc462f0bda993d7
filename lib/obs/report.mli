(** Cross-PR regression reports over the committed [BENCH_PR*.json]
    trajectory, plus a Chrome-trace lint (PR 9).

    Each bench artifact carries its own gate thresholds ("pass" flags,
    violation counters, measured-vs-minimum pairs); {!run} re-validates
    every file structurally — any [pass]/[*_pass] boolean must be
    true, any error-count field ([violations], [silent_wrong],
    [lost_acks], ...) must be 0, and any [value]/[min] pair must hold
    exactly — and extracts the headline numbers
    (speedups, I/O reductions, envelope constants) into one trajectory
    table. *)

type file_report = {
  path : string;
  pr : int;  (** -1 when the file has no "pr" field *)
  label : string;
  smoke : bool;
  metrics : (string * float) list;  (** headline numbers, path-keyed *)
  failures : string list;  (** violated invariants; empty = clean *)
}

type t = { files : file_report list; failures : string list }

val scan : string -> file_report
(** Validate one artifact: the one gate check behind every bench
    campaign and [--report].  An unreadable file reports one failure
    rather than raising. *)

val run : string list -> t
(** {!scan} every path; files sorted by PR number. *)

val pass : t -> bool

val to_json : t -> Json.t
val render_table : t -> string
(** Fixed-width trajectory table (one row per headline metric) plus
    the failure list — what the CI log shows. *)

(** {1 Trace lint}

    Replays Begin/End pairing per [tid] (domain) track from an
    exported Chrome trace file — the artifact-level version of
    {!Trace.unmatched}. *)

type lint = {
  lint_path : string;
  events : int;
  begins : int;
  ends : int;
  domains : int;  (** distinct [tid] tracks that opened a span *)
  lint_unmatched : int;
  lint_failures : string list;
}

val lint_trace : string -> lint
val lint_pass : lint -> bool
val lint_to_json : lint -> Json.t
