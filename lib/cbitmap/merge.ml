type stream = unit -> int option

let of_array a =
  let i = ref 0 in
  fun () ->
    if !i >= Array.length a then None
    else begin
      let v = a.(!i) in
      incr i;
      Some v
    end

let of_posting p = of_array (Posting.to_array p)

let union streams =
  let streams = Array.of_list streams in
  let heap = Kheap.create (Array.length streams) in
  Array.iteri
    (fun i s ->
      match s () with Some v -> Kheap.push heap ~key:v ~src:i | None -> ())
    streams;
  let last = ref (-1) in
  (* Pop, then pull the popped stream and push: the heap evolves as
     it always has, so streams are pulled — and their decodes charged
     to the device — in the same order even among equal heads. *)
  let rec next () =
    if Kheap.size heap = 0 then None
    else begin
      let v = Kheap.top_key heap and i = Kheap.top_src heap in
      Kheap.pop heap;
      (match streams.(i) () with
      | Some v' -> Kheap.push heap ~key:v' ~src:i
      | None -> ());
      if v = !last then next ()
      else begin
        last := v;
        Some v
      end
    end
  in
  next

(* Drain into a growable int buffer handed over without a copy when
   it ends exactly full. *)
let to_posting s =
  let buf = ref (Array.make 64 0) and n = ref 0 in
  let rec go () =
    match s () with
    | Some v ->
        if !n = Array.length !buf then begin
          let grown = Array.make (2 * !n) 0 in
          Array.blit !buf 0 grown 0 !n;
          buf := grown
        end;
        Array.unsafe_set !buf !n v;
        incr n;
        go ()
    | None -> ()
  in
  go ();
  Posting.adopt_sorted_array
    (if !n = Array.length !buf then !buf else Array.sub !buf 0 !n)

let union_to_posting ss = to_posting (union ss)

let length s =
  let rec go acc = match s () with Some _ -> go (acc + 1) | None -> acc in
  go 0
