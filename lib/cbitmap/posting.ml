type t = int array

let empty = [||]

(* Non-negative and strictly increasing, checked in one scan. *)
let validate name a =
  for i = 0 to Array.length a - 1 do
    let v = a.(i) in
    if v < 0 then invalid_arg (name ^ ": negative");
    if i > 0 && a.(i - 1) >= v then
      invalid_arg (name ^ ": not strictly increasing")
  done

let of_sorted_array a =
  validate "Posting.of_sorted_array" a;
  Array.copy a

let adopt_sorted_array a =
  validate "Posting.adopt_sorted_array" a;
  a

let of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    if a.(0) < 0 then invalid_arg "Posting.of_list: negative";
    let out = Array.make n 0 in
    let k = ref 0 in
    Array.iter
      (fun v ->
        if !k = 0 || out.(!k - 1) <> v then begin
          out.(!k) <- v;
          incr k
        end)
      a;
    Array.sub out 0 !k
  end

let of_bitstring s =
  let acc = ref [] in
  String.iteri (fun i c -> if c = '1' then acc := i :: !acc) s;
  Array.of_list (List.rev !acc)

let to_list = Array.to_list
let to_array = Array.copy
let cardinal = Array.length
let is_empty t = Array.length t = 0
let get t i = t.(i)

(* Index of the first element >= x, or length if none. *)
let lower_bound t x =
  let lo = ref 0 and hi = ref (Array.length t) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let mem t x =
  let i = lower_bound t x in
  i < Array.length t && t.(i) = x

let rank t x = lower_bound t x

let union a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na || !j < nb do
    let v =
      if !i >= na then begin
        let v = b.(!j) in
        incr j;
        v
      end
      else if !j >= nb then begin
        let v = a.(!i) in
        incr i;
        v
      end
      else if a.(!i) < b.(!j) then begin
        let v = a.(!i) in
        incr i;
        v
      end
      else if a.(!i) > b.(!j) then begin
        let v = b.(!j) in
        incr j;
        v
      end
      else begin
        let v = a.(!i) in
        incr i;
        incr j;
        v
      end
    in
    out.(!k) <- v;
    incr k
  done;
  Array.sub out 0 !k

let inter a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min na nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    if a.(!i) < b.(!j) then incr i
    else if a.(!i) > b.(!j) then incr j
    else begin
      out.(!k) <- a.(!i);
      incr k;
      incr i;
      incr j
    end
  done;
  Array.sub out 0 !k

let diff a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make na 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na do
    if !j >= nb || a.(!i) < b.(!j) then begin
      out.(!k) <- a.(!i);
      incr k;
      incr i
    end
    else if a.(!i) > b.(!j) then incr j
    else begin
      incr i;
      incr j
    end
  done;
  Array.sub out 0 !k

(* Fill the gaps between consecutive excluded elements. *)
let complement_shifted ~n ~base t =
  let m = Array.length t in
  if m > 0 && t.(m - 1) >= n then
    invalid_arg "Posting.complement: elements outside [0;n)";
  let out = Array.make (n - m) 0 in
  let k = ref 0 and from = ref 0 in
  for j = 0 to m do
    let stop = if j < m then t.(j) else n in
    for v = !from to stop - 1 do
      out.(!k) <- v + base;
      incr k
    done;
    from := stop + 1
  done;
  out

let complement ~n t = complement_shifted ~n ~base:0 t

let union_many lists =
  let inputs =
    Array.of_list (List.filter (fun a -> Array.length a > 0) lists)
  in
  match Array.length inputs with
  | 0 -> empty
  | 1 -> inputs.(0)
  | k ->
      let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 inputs in
      let out = Array.make total 0 in
      let heap = Kheap.create k in
      (* [next.(s)]: index of the first element of input [s] not yet in
         the heap. *)
      let next = Array.make k 1 in
      Array.iteri (fun s a -> Kheap.push heap ~key:a.(0) ~src:s) inputs;
      let m = ref 0 in
      while Kheap.size heap > 0 do
        let v = Kheap.top_key heap and s = Kheap.top_src heap in
        if !m = 0 || out.(!m - 1) <> v then begin
          out.(!m) <- v;
          incr m
        end;
        let a = inputs.(s) and i = next.(s) in
        if i < Array.length a then begin
          next.(s) <- i + 1;
          Kheap.replace_top heap ~key:a.(i)
        end
        else Kheap.pop heap
      done;
      if !m = total then out else Array.sub out 0 !m

let iter = Array.iter
let fold = Array.fold_left
let equal a b = a = b

let subset a b =
  let nb = Array.length b in
  let rec go i j =
    if i >= Array.length a then true
    else if j >= nb then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) > b.(j) then go i (j + 1)
    else false
  in
  go 0 0

let filter_range ~lo ~hi t =
  let i = lower_bound t lo and j = lower_bound t (hi + 1) in
  Array.sub t i (j - i)

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_list t)
