(** Fixed-capacity binary min-heap of [(key, source)] int pairs — the
    k-way merge heap behind {!Posting.union_many} and {!Merge.union}.
    Keys and sources live in two int arrays, so no operation
    allocates.  Ties between equal keys pop in an unspecified order. *)

type t

(** [create cap] holds at most [cap] pairs. *)
val create : int -> t

val size : t -> int

(** Key and source of the minimum pair; the heap must be non-empty. *)
val top_key : t -> int

val top_src : t -> int

(** Raises [Invalid_argument] when the heap is full. *)
val push : t -> key:int -> src:int -> unit

(** [replace_top h ~key] gives the minimum pair a new key (same
    source) and restores the heap — one sift instead of pop + push. *)
val replace_top : t -> key:int -> unit

(** Drop the minimum pair; the heap must be non-empty. *)
val pop : t -> unit
