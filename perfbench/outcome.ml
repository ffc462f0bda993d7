(* What one workload run hands back to [Main]: the operation tally that
   feeds [error_frac], named correctness checks, context lines, and the
   metrics by name. *)

type metric = { name : string; value : float; unit : string }

type t = {
  attempted : int;  (** operations issued: queries plus update ops *)
  failed : int;  (** wrong answers plus operations that raised *)
  checks : (string * bool) list;
      (** correctness checks beyond per-answer oracles: durability,
          exact device-counter sums *)
  context : (string * string) list;
  e2e : metric list;
  layers : metric list;  (** empty unless the run was traced *)
}

let m name unit value = { name; value; unit }

(* What an answer is checked by: a digest of the sorted positions and
   their number, so an oracle for thousands of queries stays a few
   words per query. *)
let check p =
  ( Cbitmap.Posting.fold (fun h x -> ((h * 1_000_003) + x + 1) land max_int) 17 p,
    Cbitmap.Posting.cardinal p )

let blocks_vs_pool ~blocks ~pool =
  Printf.sprintf "%d vs %d (%s)" blocks pool
    (if blocks <= pool then "fits the pool" else "larger than the pool")

let ms_of_ns x = x /. 1e6
