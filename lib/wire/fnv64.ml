let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L
let add_byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) prime

(* A local [ref] that never escapes is compiled to an unboxed mutable
   variable, so the loop allocates nothing per byte. *)
let add_string h0 s =
  let h = ref h0 in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) prime
  done;
  !h

let string s = add_string offset_basis s
