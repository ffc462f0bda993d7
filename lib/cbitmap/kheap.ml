(* Min-heap of (key, source) pairs in two parallel int arrays, so a
   merge step moves ints and allocates nothing. *)
type t = { keys : int array; srcs : int array; mutable size : int }

let create cap =
  { keys = Array.make (max 1 cap) 0; srcs = Array.make (max 1 cap) 0; size = 0 }

let size h = h.size
let top_key h = h.keys.(0)
let top_src h = h.srcs.(0)

let swap h i j =
  let k = h.keys.(i) and s = h.srcs.(i) in
  h.keys.(i) <- h.keys.(j);
  h.srcs.(i) <- h.srcs.(j);
  h.keys.(j) <- k;
  h.srcs.(j) <- s

let rec up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.keys.(i) < h.keys.(parent) then begin
      swap h i parent;
      up h parent
    end
  end

let rec down h i =
  let l = (2 * i) + 1 in
  if l < h.size then begin
    let r = l + 1 in
    let c = if r < h.size && h.keys.(r) < h.keys.(l) then r else l in
    if h.keys.(c) < h.keys.(i) then begin
      swap h i c;
      down h c
    end
  end

let push h ~key ~src =
  if h.size = Array.length h.keys then invalid_arg "Kheap.push: full";
  h.keys.(h.size) <- key;
  h.srcs.(h.size) <- src;
  h.size <- h.size + 1;
  up h (h.size - 1)

let replace_top h ~key =
  h.keys.(0) <- key;
  down h 0

let pop h =
  h.size <- h.size - 1;
  h.keys.(0) <- h.keys.(h.size);
  h.srcs.(0) <- h.srcs.(h.size);
  down h 0
