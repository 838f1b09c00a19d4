(* Committed-run snapshot: what the incremental driver diffs the
   current input sets against. See snapshot.mli for the format. *)

let magic = "PSISNAP"
let version = 1
let checksum_bytes = 8

type entry = {
  op : string;
  key_fp : string;
  s_elements : string list;
  r_elements : string list;
}

type t = { run_id : int; entries : entry list }

(* FNV-1a-64 over the header+body: wire cannot depend on the crypto
   library, and this only guards against accidental damage, not an
   adversary (the file lives on the party's own disk). *)
let checksum_string payload =
  let b = Bytes.create checksum_bytes in
  Bytes.set_int64_be b 0 (Fnv64.string payload);
  Bytes.to_string b

let write_list w xs =
  Buf.write_varint w (List.length xs);
  List.iter (Buf.write_bytes w) xs

let encode t =
  let w = Buf.writer () in
  Buf.write_raw w magic;
  Buf.write_u8 w version;
  Buf.write_varint w t.run_id;
  Buf.write_varint w (List.length t.entries);
  List.iter
    (fun e ->
      Buf.write_bytes w e.op;
      Buf.write_bytes w e.key_fp;
      write_list w e.s_elements;
      write_list w e.r_elements)
    t.entries;
  let payload = Buf.contents w in
  payload ^ checksum_string payload

(* Bound every claimed element count by the bytes actually present
   before looping: each framed element costs at least one byte. *)
let read_list ~budget r =
  let n = Buf.read_varint r in
  if n > budget then raise (Buf.Parse_error "snapshot: element count exceeds input size");
  List.init n (fun _ -> Buf.read_bytes r)

let decode data =
  let len = String.length data in
  let header_len = String.length magic + 1 in
  if len < header_len + checksum_bytes then Error "snapshot: too short"
  else if not (String.equal (String.sub data 0 (String.length magic)) magic) then
    Error "snapshot: bad magic"
  else if Char.code data.[String.length magic] <> version then Error "snapshot: stale version"
  else begin
    let payload = String.sub data 0 (len - checksum_bytes) in
    let sum = String.sub data (len - checksum_bytes) checksum_bytes in
    if not (String.equal sum (checksum_string payload)) then Error "snapshot: checksum mismatch"
    else
      match
        let r = Buf.reader payload in
        let _header = Buf.read_raw r header_len in
        let run_id = Buf.read_varint r in
        let n = Buf.read_varint r in
        if n > len then raise (Buf.Parse_error "snapshot: entry count exceeds input size");
        let entries =
          List.init n (fun _ ->
              let op = Buf.read_bytes r in
              let key_fp = Buf.read_bytes r in
              let s_elements = read_list ~budget:len r in
              let r_elements = read_list ~budget:len r in
              { op; key_fp; s_elements; r_elements })
        in
        Buf.expect_end r;
        { run_id; entries }
      with
      | t -> Ok t
      | exception Buf.Parse_error msg -> Error msg
  end

let save ~path t =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc (encode t));
  Sys.rename tmp path

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | data -> ( match decode data with Ok t -> Some t | Error _ -> None)
