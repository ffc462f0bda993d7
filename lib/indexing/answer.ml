type t = Direct of Cbitmap.Posting.t | Complement of Cbitmap.Posting.t

let to_posting ~n = function
  | Direct p -> p
  | Complement p -> Cbitmap.Posting.complement ~n p

let to_shifted_array ~n ~base = function
  | Direct p ->
      let out = Array.make (Cbitmap.Posting.cardinal p) 0 in
      for i = 0 to Array.length out - 1 do
        out.(i) <- Cbitmap.Posting.get p i + base
      done;
      out
  | Complement p -> Cbitmap.Posting.complement_shifted ~n ~base p

let cardinal ~n = function
  | Direct p -> Cbitmap.Posting.cardinal p
  | Complement p -> n - Cbitmap.Posting.cardinal p

let mem t i =
  match t with
  | Direct p -> Cbitmap.Posting.mem p i
  | Complement p -> not (Cbitmap.Posting.mem p i)

let compressed_bits = function
  | Direct p | Complement p -> Cbitmap.Gap_codec.encoded_size p

let is_complement = function Direct _ -> false | Complement _ -> true
