(** Query answers in compressed form.

    §2.1: when the answer has more than [n/2] elements the paper's
    structures compute the two complementary range queries instead and
    return the complement, so the output representation is always
    [O(lg (n choose z))] bits.  [Complement p] denotes
    [{0..n-1} \ p]. *)

type t = Direct of Cbitmap.Posting.t | Complement of Cbitmap.Posting.t

(** Materialize (decompressing a complement costs [O(n)] work — the
    benchmarks report I/Os before this step, as the paper counts the
    compressed output). *)
val to_posting : n:int -> t -> Cbitmap.Posting.t

(** [to_shifted_array ~n ~base a] is [to_posting ~n a] as a fresh
    array with [base] added to every position, built in one scan (a
    [Complement] is complemented and shifted together).  Raises
    [Invalid_argument] if a [Complement] holds elements outside
    [\[0;n)]. *)
val to_shifted_array : n:int -> base:int -> t -> int array

(** Cardinality of the answer set. *)
val cardinal : n:int -> t -> int

(** Membership without materializing. *)
val mem : t -> int -> bool

(** Size in bits of the gamma gap encoding of the stored set (the
    "T" of the paper: the compressed output size). *)
val compressed_bits : t -> int

val is_complement : t -> bool
