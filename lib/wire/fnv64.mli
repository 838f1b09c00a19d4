(** FNV-1a, 64-bit: the non-cryptographic hash behind the snapshot and
    element-cache checksums and the fault-schedule seed.

    It guards against accidental damage only — anyone who can rewrite a
    file can recompute it. Every step [h <- (h xor byte) * prime] is a
    bijection of the state, so two inputs of equal length that differ in
    exactly one byte always hash differently.

    The state is a plain [int64]; feeding a string in pieces gives the
    same hash as feeding their concatenation. *)

(** The initial state (the FNV-1a-64 offset basis). *)
val offset_basis : int64

(** [add_byte h b] absorbs the byte [b] (0..255). *)
val add_byte : int64 -> int -> int64

(** [add_string h s] absorbs every byte of [s], in order. *)
val add_string : int64 -> string -> int64

(** [string s] is [add_string offset_basis s]. *)
val string : string -> int64
