(** Plan execution: lowers a chosen {!Plan.t} onto the PR 5 batch
    substrate and the §3 approximate indexes, verifies prefilter /
    residual survivors against the stored rows, and reports per-query
    device counters plus estimate-vs-actual error samples.

    Results are always {e exact} — prefilters only route candidates;
    every row they let through is re-checked against the real cell
    values before it reaches the answer (§3: "false positives can be
    filtered away when accessing the associated data").  [Count]
    queries return [rows = None]: single-column COUNTs come straight
    from the planning-time directory probes (zero payload bits
    decoded), multi-column COUNTs count the executed intersection. *)

type outcome = {
  rows : Cbitmap.Posting.t option;  (** [Some] iff the query kind is [Rows] *)
  count : int;
  plan : Plan.t;
  checked : int;  (** candidate rows verified against cell values *)
  fp_rejected : int;  (** candidates verification threw away *)
  stats : Iosim.Stats.t;  (** this query's cold device counters *)
}

(** Run [query] cold: buffer pool cleared and counters reset, then
    the plan chosen and executed, so [stats] includes the planning
    probes.  [cost] defaults to the uncalibrated {!Cost.of_table};
    pass a {!Cost.calibrate}d model for sharper plan choices.  Every
    run bumps the [planner_*] metrics and feeds the
    [planner_{io,result,verify}_estimate_error] histograms. *)
val run : ?cost:Cost.t -> Ridint.Table.t -> Ast.query -> outcome

(** Execute a plan built beforehand (e.g. {!Plan.smallest_first}) cold:
    the pool is cleared and the counters reset first, so [stats] is
    the execution's alone, without the probes that built the plan.
    Feeds no [planner_*] metric. *)
val execute : Ridint.Table.t -> Plan.t -> outcome
