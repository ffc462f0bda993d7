(** The cost-based optimizer: from a normalized conjunction to an
    execution plan.

    Replaces the fixed rule — decode {e every} predicate exactly,
    intersect smallest-first, kept as {!smallest_first} for baselines —
    with a per-query choice made against {!Cost}:

    - one column becomes the {b driver}: its answer is decoded exactly
      (via the PR 5 batch substrate when it has several ranges) and
      seeds the candidate set;
    - every other column is handled by the cheapest of three actions:
      [Exact_inter] (decode exactly and intersect — the seed
      behaviour), [Prefilter] (read the §3 hashed sets at a chosen
      [ε] and drop candidates by hashed membership — false positives
      survive until verification), or [Residual] (skip its index
      entirely and check candidates against the stored rows);
    - COUNT-only conjunctions that normalize to at most one effective
      column bypass all of that: per-range directory probes already
      answered them during planning, zero payload bits decoded.

    Selectivities are {e probed, not guessed}: {!probe_columns}
    charges two A-array reads per range and gets each column's exact
    answer cardinality back.  What remains an estimate is the
    independence product across columns — {!t.est_result} /
    {!t.est_verify} vs the actuals feed the planner error
    histograms. *)

type probe = { lo : int; hi : int; z : int }

type col_info = {
  column : string;
  probes : probe list;  (** disjoint ascending, [z] per range *)
  z : int;  (** exact per-column answer cardinality: sum over probes *)
}

type action =
  | Exact_inter
  | Prefilter of { epsilon : float }
  | Residual

type step = { info : col_info; action : action }

type shape =
  | Const_empty  (** some column's constraint normalized to nothing *)
  | All_rows  (** no effective predicates *)
  | Count_directory of col_info
      (** COUNT over [<= 1] effective column: the answer is the probed
          [z], nothing left to execute *)
  | Scan of { driver : col_info; steps : step list }

type t = {
  shape : shape;
  kind : Ast.kind;
  est_result : float;  (** independence-product result cardinality *)
  est_verify : float;  (** rows expected to reach verification *)
  est_ios : float;
  considered : int;  (** plans costed before choosing this one *)
}

(** Charged directory probes for every effective column (two A-array
    reads per range), in normalized column order. *)
val probe_columns : Ridint.Table.t -> Ast.normal -> col_info list

(** Pick the cheapest plan under [cost].  Enumerates every driver
    choice crossed with per-column actions (exact / residual / a small
    [ε] grid of prefilters when the table has approximate indexes),
    exhaustively up to 512 combinations per driver and greedily per
    column beyond that. *)
val choose : Cost.t -> Ridint.Table.t -> Ast.normal -> t

(** The fixed rule as a plan, for baselines: the smallest probed
    column drives, and every other column is intersected in ascending
    [z] order — exactly ([Exact_inter]), or through the §3 hashed sets
    ([Prefilter] at [epsilon]) when [epsilon] is given, with the
    survivors verified against the stored rows.  Nothing is costed:
    the estimates are [0] and [considered] is [1].  Probes like
    {!choose}; {!Exec.execute} leaves those probes out of its counters.
    Raises [Invalid_argument] when [epsilon] is given and the table
    has no approximate indexes. *)
val smallest_first : ?epsilon:float -> Ridint.Table.t -> Ast.normal -> t

(** One-line rendering for bench output and debugging, e.g.
    ["scan driver=age steps=[income:prefilter(0.10) kids:residual]"]. *)
val describe : t -> string
