(** Sets of positions (RID lists), represented as sorted arrays of
    distinct non-negative integers.

    This is the uncompressed, in-memory view of a bitmap: the ground
    truth that every index must reproduce, and the value produced by
    decompressing query answers. *)

type t

val empty : t

(** Sorts and removes duplicates. *)
val of_list : int list -> t

(** [of_sorted_array a] validates that [a] is strictly increasing and
    non-negative; raises [Invalid_argument] otherwise.  The array is
    copied. *)
val of_sorted_array : int array -> t

(** [adopt_sorted_array a] makes the same checks as {!of_sorted_array}
    but takes ownership of [a] instead of copying it: the caller must
    not mutate [a] afterwards.  For decoders and merges that fill a
    fresh array and hand it over, so each answer is allocated once. *)
val adopt_sorted_array : int array -> t

(** Positions of set bits of [s], where [s.[i] = '1']. *)
val of_bitstring : string -> t

val to_list : t -> int list
val to_array : t -> int array
val cardinal : t -> int
val is_empty : t -> bool

(** [get t i] is the [i]-th smallest element. *)
val get : t -> int -> int

(** Binary-search membership. *)
val mem : t -> int -> bool

(** [rank t x] is the number of elements strictly below [x]. *)
val rank : t -> int -> int

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

(** [complement ~n t] is [{0..n-1} \ t].  Raises [Invalid_argument]
    if [t] has elements outside [\[0;n)]. *)
val complement : n:int -> t -> t

(** [complement_shifted ~n ~base t] is [complement ~n t] as a fresh
    array with [base] added to every element, built in the same scan. *)
val complement_shifted : n:int -> base:int -> t -> int array

(** Multi-way union: a k-way merge over the non-empty inputs, with
    its heap in two int arrays (no allocation per element).  Empty
    inputs are skipped; with no non-empty input the result is
    {!empty}, and a sole non-empty input is returned as it is (no
    copy).  Otherwise the output array is allocated once and trimmed
    only when the inputs overlap. *)
val union_many : t list -> t

val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val equal : t -> t -> bool
val subset : t -> t -> bool

(** Elements in [\[lo;hi\]] (inclusive). *)
val filter_range : lo:int -> hi:int -> t -> t

val pp : Format.formatter -> t -> unit
