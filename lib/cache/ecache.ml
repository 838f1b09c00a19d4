module Buf = Wire.Buf
module Fnv64 = Wire.Fnv64

(* On-disk layout of <dir>/ecache.psi:

     "PSIECACH" | version u8 | entry*
     entry = u32 body_len | body | 8-byte checksum

   body is Buf-framed (varint-prefixed key, then value); the checksum
   is FNV-1a-64 over the body, big-endian. It guards against accidental
   damage only: whoever can write the file can recompute any unkeyed
   checksum. The frame length lives outside the checksum on purpose: a
   corrupt body is skipped without losing framing, and a corrupt length
   (or a cut-off tail) simply ends the load. Either way the damage
   degrades to a cache miss — never to serving a wrong value.

   Both directions stream one frame at a time through a buffered
   channel, so neither holds a second copy of the store. *)

let magic = "PSIECACH"
let version = 2
let header_len = String.length magic + 1
let checksum_bytes = 8
let default_max_entries = 65536

let c_hits = Obs.Metrics.counter "ecache.hits"
let c_misses = Obs.Metrics.counter "ecache.misses"
let c_puts = Obs.Metrics.counter "ecache.puts"
let c_evictions = Obs.Metrics.counter "ecache.evictions"
let c_corrupt = Obs.Metrics.counter "ecache.corrupt_entries"
let c_loaded = Obs.Metrics.counter "ecache.loaded_entries"
let c_flushes = Obs.Metrics.counter "ecache.flushes"

type stats = {
  hits : int;
  misses : int;
  puts : int;
  evictions : int;
  corrupt : int;
  loaded : int;
  entries : int;
}

(* Intrusive doubly-linked list for LRU order: head = most recent. *)
type node = {
  key : string;
  mutable value : string;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  dir : string;
  max_entries : int;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable count : int;
  mutable dirty : bool;
  mutable closed : bool;
  lock : Mutex.t;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_puts : int;
  mutable s_evictions : int;
  mutable s_corrupt : int;
  mutable s_loaded : int;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let check_open t = if t.closed then invalid_arg "Ecache: cache is closed"

(* The composite key concatenates the three coordinates with a
   separator that cannot occur inside [ns] or a hex [key_fp], so
   distinct coordinates never alias. *)
let composite ~ns ~key_fp input = String.concat "\x00" [ ns; key_fp; input ]

let unlink t n =
  (match n.prev with None -> t.head <- n.next | Some p -> p.next <- n.next);
  (match n.next with None -> t.tail <- n.prev | Some s -> s.prev <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let evict_over_bound t =
  while t.count > t.max_entries do
    match t.tail with
    | None -> t.count <- 0
    | Some n ->
        unlink t n;
        Hashtbl.remove t.tbl n.key;
        t.count <- t.count - 1;
        t.s_evictions <- t.s_evictions + 1;
        Obs.Metrics.incr c_evictions
  done

(* Insert without recency bookkeeping beyond push-to-front; caller
   holds the lock. *)
let insert t key value =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
      n.value <- value;
      unlink t n;
      push_front t n;
      t.dirty <- true
  | None ->
      let n = { key; value; prev = None; next = None } in
      Hashtbl.replace t.tbl key n;
      push_front t n;
      t.count <- t.count + 1;
      t.s_puts <- t.s_puts + 1;
      Obs.Metrics.incr c_puts;
      t.dirty <- true;
      evict_over_bound t

(* ------------------------------------------------------------------ *)
(* Persistence                                                        *)
(* ------------------------------------------------------------------ *)

let cache_file dir = Filename.concat dir "ecache.psi"

let rec ensure_dir d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if not (String.equal parent d) then ensure_dir parent;
    (* A concurrent creator winning the race is fine; any real failure
       (permissions, name collision with a file) resurfaces at flush. *)
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let corrupt t =
  t.s_corrupt <- t.s_corrupt + 1;
  Obs.Metrics.incr c_corrupt

let load_entry t body =
  match
    let br = Buf.reader body in
    let key = Buf.read_bytes br in
    let value = Buf.read_bytes br in
    Buf.expect_end br;
    (key, value)
  with
  | exception Buf.Parse_error _ -> corrupt t
  | key, value ->
      insert t key value;
      (* [insert] counted a put; reclassify as a load. *)
      t.s_puts <- t.s_puts - 1;
      t.s_loaded <- t.s_loaded + 1;
      Obs.Metrics.incr c_loaded

(* Read frames until the end of the file. Each length prefix is bounded
   by [Buf.max_chunk_bytes] and by the bytes left in the file before its
   body is allocated; a prefix that fails either bound, or a cut-off
   frame, ends the load with what was read so far. *)
let load_entries t ic =
  let file_len = Int64.to_int (In_channel.length ic) in
  let scratch = Bytes.create checksum_bytes in
  let rec next pos =
    if pos < file_len then
      match In_channel.really_input ic scratch 0 4 with
      | None -> corrupt t
      | Some () -> (
          let body_len = Int32.to_int (Bytes.get_int32_be scratch 0) land 0xFFFF_FFFF in
          let frame_end = pos + 4 + body_len + checksum_bytes in
          if body_len > Buf.max_chunk_bytes || frame_end > file_len then corrupt t
          else
            match In_channel.really_input_string ic body_len with
            | None -> corrupt t
            | Some body -> (
                match In_channel.really_input ic scratch 0 checksum_bytes with
                | None -> corrupt t
                | Some () ->
                    if Int64.equal (Bytes.get_int64_be scratch 0) (Fnv64.string body) then
                      load_entry t body
                    else corrupt t;
                    next frame_end))
  in
  next header_len

let load_channel t ic =
  match In_channel.really_input_string ic header_len with
  | None -> corrupt t
  | Some header ->
      if not (String.starts_with ~prefix:magic header) then corrupt t
      else if Char.code header.[String.length magic] <> version then
        (* Stale format: every lookup misses and the next flush
           rewrites the file at the current version. *)
        corrupt t
      else begin
        load_entries t ic;
        t.dirty <- false
      end

let load t =
  match In_channel.open_bin (cache_file t.dir) with
  | exception Sys_error _ -> ()
  | ic -> (
      Fun.protect ~finally:(fun () -> In_channel.close ic) @@ fun () ->
      (* A read error (the path is a directory, the disk fails) ends
         the load like a cut-off file. *)
      try load_channel t ic with Sys_error _ -> corrupt t)

(* LEB128 length prefix, as [Buf.write_varint] frames it, written and
   absorbed into the entry's checksum. *)
let rec output_varint oc h n =
  if n < 0x80 then begin
    Out_channel.output_byte oc n;
    Fnv64.add_byte h n
  end
  else begin
    let b = 0x80 lor (n land 0x7f) in
    Out_channel.output_byte oc b;
    output_varint oc (Fnv64.add_byte h b) (n lsr 7)
  end

let rec varint_len n = if n < 0x80 then 1 else 1 + varint_len (n lsr 7)

let output_entry oc scratch key value =
  let klen = String.length key and vlen = String.length value in
  Bytes.set_int32_be scratch 0 (Int32.of_int (varint_len klen + klen + varint_len vlen + vlen));
  Out_channel.output oc scratch 0 4;
  let h = output_varint oc Fnv64.offset_basis klen in
  Out_channel.output_string oc key;
  let h = output_varint oc (Fnv64.add_string h key) vlen in
  Out_channel.output_string oc value;
  Bytes.set_int64_be scratch 0 (Fnv64.add_string h value);
  Out_channel.output oc scratch 0 checksum_bytes

let flush t =
  with_lock t (fun () ->
      if t.dirty && not t.closed then begin
        ensure_dir t.dir;
        let path = cache_file t.dir in
        let tmp = path ^ ".tmp" in
        Out_channel.with_open_bin tmp (fun oc ->
            Out_channel.output_string oc magic;
            Out_channel.output_byte oc version;
            let scratch = Bytes.create checksum_bytes in
            (* Oldest first, so loading (which pushes to front) restores
               the same recency order. *)
            let rec walk = function
              | None -> ()
              | Some n ->
                  output_entry oc scratch n.key n.value;
                  walk n.prev
            in
            walk t.tail);
        Sys.rename tmp path;
        t.dirty <- false;
        Obs.Metrics.incr c_flushes
      end)

(* ------------------------------------------------------------------ *)
(* API                                                                *)
(* ------------------------------------------------------------------ *)

let open_ ?(max_entries = default_max_entries) ~dir () =
  if max_entries < 1 then invalid_arg "Ecache.open_: max_entries must be >= 1";
  ensure_dir dir;
  let t =
    {
      dir;
      max_entries;
      tbl = Hashtbl.create 1024;
      head = None;
      tail = None;
      count = 0;
      dirty = false;
      closed = false;
      lock = Mutex.create ();
      s_hits = 0;
      s_misses = 0;
      s_puts = 0;
      s_evictions = 0;
      s_corrupt = 0;
      s_loaded = 0;
    }
  in
  with_lock t (fun () -> load t);
  t

let find t ~ns ~key_fp input =
  with_lock t (fun () ->
      check_open t;
      match Hashtbl.find_opt t.tbl (composite ~ns ~key_fp input) with
      | Some n ->
          unlink t n;
          push_front t n;
          t.s_hits <- t.s_hits + 1;
          Obs.Metrics.incr c_hits;
          Some n.value
      | None ->
          t.s_misses <- t.s_misses + 1;
          Obs.Metrics.incr c_misses;
          None)

let put t ~ns ~key_fp input output =
  with_lock t (fun () ->
      check_open t;
      insert t (composite ~ns ~key_fp input) output)

(* Warm-up batch size: bounds how many computed-but-not-yet-stored
   outputs exist at once, so warming a million-element set holds one
   chunk of results, not all of them — and still feeds the pool batches
   large enough to amortize fan-out. *)
let warm_chunk = 4096

let warm t ?pool ~ns ~key_fp ~f inputs =
  (* Peek without touching hit/miss stats: warm-up is provisioning.
     Deduplicate (first occurrence wins) so [f] runs once per element,
     and compute outside the lock so pool workers never contend on it.
     Two racing warm-ups may both compute an element; [put] makes that
     an idempotent overwrite with the identical value. Chunked: each
     [warm_chunk]-sized slice is filtered, computed and stored before
     the next is touched, keeping peak memory O(chunk). *)
  let seen = Hashtbl.create 1024 in
  let rec take n acc l =
    if n = 0 then (List.rev acc, l)
    else match l with [] -> (List.rev acc, []) | x :: tl -> take (n - 1) (x :: acc) tl
  in
  let rec go inputs =
    match inputs with
    | [] -> ()
    | _ ->
        let chunk, rest = take warm_chunk [] inputs in
        let missing =
          with_lock t (fun () ->
              check_open t;
              List.filter
                (fun input ->
                  let k = composite ~ns ~key_fp input in
                  if Hashtbl.mem t.tbl k || Hashtbl.mem seen k then false
                  else begin
                    Hashtbl.replace seen k ();
                    true
                  end)
                chunk)
        in
        let outputs =
          match pool with
          | None -> List.map f missing
          | Some pool -> Parallel.Pool.map pool f missing
        in
        List.iter2 (fun input output -> put t ~ns ~key_fp input output) missing outputs;
        go rest
  in
  go inputs

let close t =
  flush t;
  with_lock t (fun () -> t.closed <- true)

let stats t =
  with_lock t (fun () ->
      {
        hits = t.s_hits;
        misses = t.s_misses;
        puts = t.s_puts;
        evictions = t.s_evictions;
        corrupt = t.s_corrupt;
        loaded = t.s_loaded;
        entries = t.count;
      })

let entries t = with_lock t (fun () -> t.count)
