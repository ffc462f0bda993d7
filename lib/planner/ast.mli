(** The query AST (PR 10): conjunctions of per-column predicates, plus
    a COUNT-only query kind.

    This is the motivating workload of the paper's §1 — "married men
    of age 33" — written down as a value instead of hand-wired calls:
    a conjunction of range / point / membership predicates over the
    columns of a {!Ridint.Table}, answered exactly (the RID
    intersection), and a [Count] kind for aggregate-only queries that
    need no row set at all. *)

type pred =
  | Range of { column : string; lo : int; hi : int }
      (** Inclusive value range, clamped to the column's alphabet by
          normalization (the {!Indexing.Common.clamp_range} rule). *)
  | Point of { column : string; value : int }  (** [value = v]. *)
  | Member of { column : string; values : int list }
      (** Value in a set; normalization sorts, dedupes and coalesces
          consecutive values into ranges. *)

type kind =
  | Rows  (** Return the matching row set. *)
  | Count  (** Return only its cardinality. *)

type query = { preds : pred list; kind : kind }

(** A normalized conjunction: per column, the disjoint ascending list
    of inclusive clamped ranges its predicates allow.  Columns whose
    predicates allow the whole alphabet are dropped as trivial;
    [empty] means some column's constraint clamped to nothing, so the
    whole conjunction is empty without touching any index. *)
type normal = {
  columns : (string * (int * int) list) list;
      (** First-appearance order; each range list is non-empty,
          disjoint, ascending, and a strict subset of the alphabet. *)
  empty : bool;
  kind : kind;
}

val range : string -> lo:int -> hi:int -> pred
val point : string -> int -> pred
val member : string -> int list -> pred

(** Conjunction of [preds], of the given [kind] (default [Rows]). *)
val conj : ?kind:kind -> pred list -> query

(** The AST form of a {!Ridint.Table.condition} list: one [Range]
    per condition, so a condition list runs through {!Exec.run} or,
    normalized, {!Plan.smallest_first}. *)
val of_conditions : ?kind:kind -> Ridint.Table.condition list -> query

(** [normalize ~sigma_of q] groups predicates by column, clamps every
    range to [0, sigma_of column - 1], intersects multiple predicates
    on the same column, coalesces adjacent ranges, and drops trivial
    (whole-alphabet) columns.  Raises whatever [sigma_of] raises on an
    unknown column. *)
val normalize : sigma_of:(string -> int) -> query -> normal

(** Reference semantics of a normalized conjunction at one row: do the
    [values] (one per column, aligned with [columns]) all fall in
    their range lists?  Used by tests. *)
val matches : normal -> (string -> int) -> bool
