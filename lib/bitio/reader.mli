(** Abstract sequential bit reader: the carrier of the retained
    per-bit reference decoders ({!Codes.Naive},
    [Gap_codec.decode_ref]) and of [Device.cursor].

    Since PR 2 every decode path that answers queries runs on the
    concrete buffered {!Decoder}; this closure record is the test
    oracle's interface and nothing else. *)

type t = {
  read_bits : int -> int;
      (** [read_bits w] consumes the next [w] bits (MSB first),
          [0 <= w <= 62]. *)
  bit_pos : unit -> int;  (** Current absolute bit position. *)
  seek : int -> unit;  (** Jump to an absolute bit position. *)
}

(** Consume one bit. *)
val read_bit : t -> bool

(** Reader over a bit buffer, starting at bit [pos] (default 0). *)
val of_bitbuf : ?pos:int -> Bitbuf.t -> t

(** Reader over raw bytes (MSB-first bit order), starting at [pos].
    [read_bits] is word-at-a-time ({!Bitops.get_bits}) with the
    original width/bounds checks. *)
val of_bytes : ?pos:int -> bytes -> t
