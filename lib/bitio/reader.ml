type t = {
  read_bits : int -> int;
  bit_pos : unit -> int;
  seek : int -> unit;
}

let read_bit t = t.read_bits 1 = 1

let of_bitbuf ?(pos = 0) buf =
  let p = ref pos in
  {
    read_bits =
      (fun w ->
        let v = Bitbuf.read_bits buf ~pos:!p ~width:w in
        p := !p + w;
        v);
    bit_pos = (fun () -> !p);
    seek = (fun q -> p := q);
  }

let of_bytes ?(pos = 0) data =
  let len = 8 * Bytes.length data in
  let p = ref pos in
  let read_bits w =
    if w < 0 || w > 62 then invalid_arg "Reader.of_bytes: width";
    if !p < 0 || !p + w > len then invalid_arg "Reader.of_bytes: past end";
    let v = Bitops.get_bits data ~pos:!p ~width:w in
    p := !p + w;
    v
  in
  { read_bits; bit_pos = (fun () -> !p); seek = (fun q -> p := q) }
