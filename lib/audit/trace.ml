(* Staging area and interned-string table of a binary-mode tracer.
   Records are encoded by direct stores into [bytes] at [pos]; queue
   and link names repeat on every event, so they are written once as a
   definition record and referenced by id after. *)
type binary_state = {
  mutable bytes : Bytes.t;
  mutable pos : int;
  interned : (string, int) Hashtbl.t;
  mutable next_id : int;
}

type mode = Jsonl | Binary of binary_state

type t = {
  out : out_channel;
  (* Events are formatted into [buf] (JSONL) or [Binary]'s [bytes] and
     written out in [flush_at]-sized chunks, so tracing costs a memory
     append per event instead of a per-event channel write. *)
  buf : Buffer.t;
  flush_at : int;
  last_cumulative : (int, int) Hashtbl.t;  (* flow -> highest ackno seen *)
  mode : mode;
}

let default_flush_at = 1 lsl 16

(* The binary container: magic + version, then length-prefixed records.

     header  := "RRTB" version:u8(=1)
     record  := varint(payload length) payload
     payload := tag:u8 time:i63le rest

   [varint] is LEB128 (7 bits per byte, high bit = continuation) and
   encodes non-negative ints; signed fields go through zigzag first.
   [i63le] is an OCaml 63-bit int written as 8 little-endian bytes
   (two's complement; bit 63 of the wire word duplicates the sign) —
   used for times, which travel in {!Sim.Timebits} encoding so the
   exporter recovers the exact float the JSONL writer would have
   printed. Record payloads by tag:

     0  send            varint flow, zigzag seq, retx:u8
     1  ack             varint flow, zigzag ackno
     2  recovery_enter  varint flow
     3  recovery_exit   varint flow
     4  timeout         varint flow
     5  enqueue         strref queue, packet
     6  drop            strref queue, packet
     7  dequeue         strref queue, packet
     8  link_down       strref link
     9  link_up         strref link
     10 fault_drop      strref link, packet
     11 reorder         strref path, extra:i63le(timebits), packet
     14 rate_change     strref link, bps:f64le bits
     15 delay_change    strref link, delay:i63le(timebits)
     12 journal         str ev, varint nfields,
                          nfields * (str key, vtag:u8, value)
                          vtag 0 = zigzag int, 1 = float as i64le bits,
                          2 = str, 3 = bool:u8
     13 strdef          varint id, str   (no time field)
     packet := varint flow, is_data:u8, zigzag seq_or_ackno, varint uid
     str    := varint length, bytes
     strref := varint id      (defined by a preceding strdef)

   ACK [dup] flags are not stored: the exporter recomputes them with
   the same per-flow cumulative-point table the live JSONL writer
   uses, so the two outputs agree byte for byte. *)
let binary_magic = "RRTB\x01"

(* Every record but a journal or strdef record fits in this many bytes
   with its length prefix: tag, time, at most five 9-byte varints, a
   flag byte and one more 8-byte word. Reserving it once per record
   lets the field writers store without bounds bookkeeping. *)
let max_fixed_record = 64

let create ?(flush_at = default_flush_at) ?(format = `Jsonl) ~out () =
  if flush_at <= 0 then invalid_arg "Trace.create: flush_at <= 0";
  (* Size the staging area to the requested flush threshold (the
     natural high-water mark), capped so a huge [flush_at] cannot
     demand a matching contiguous allocation up front. *)
  let capacity = min flush_at (1 lsl 24) in
  let mode =
    match format with
    | `Jsonl -> Jsonl
    | `Binary ->
      let bytes = Bytes.create (capacity + max_fixed_record) in
      let magic = String.length binary_magic in
      Bytes.blit_string binary_magic 0 bytes 0 magic;
      Binary { bytes; pos = magic; interned = Hashtbl.create 16; next_id = 0 }
  in
  {
    out;
    buf = Buffer.create (match mode with Jsonl -> capacity | Binary _ -> 1);
    flush_at;
    last_cumulative = Hashtbl.create 7;
    mode;
  }

let drain t =
  match t.mode with
  | Jsonl ->
    if Buffer.length t.buf > 0 then begin
      Buffer.output_buffer t.out t.buf;
      Buffer.clear t.buf
    end
  | Binary b ->
    if b.pos > 0 then begin
      output t.out b.bytes 0 b.pos;
      b.pos <- 0
    end

let line t fmt =
  Printf.kbprintf
    (fun buf ->
      Buffer.add_char buf '\n';
      if Buffer.length buf >= t.flush_at then drain t)
    t.buf fmt

(* -- binary encoding: direct stores into the staging area --

   A record is opened with one byte reserved for its length, its
   payload stored field by field, and closed by patching the length
   in. Only a payload of 128 bytes or more (a long journal record)
   needs a longer prefix; closing then shifts the payload up by the
   extra varint bytes. *)

let ensure b n =
  if b.pos + n > Bytes.length b.bytes then begin
    let grown = Bytes.create (max (2 * Bytes.length b.bytes) (b.pos + n)) in
    Bytes.blit b.bytes 0 grown 0 b.pos;
    b.bytes <- grown
  end

let[@inline] put_byte b c =
  Bytes.unsafe_set b.bytes b.pos (Char.unsafe_chr c);
  b.pos <- b.pos + 1

let put_varint b n =
  let n = ref n in
  while !n >= 0x80 do
    put_byte b (0x80 lor (!n land 0x7f));
    n := !n lsr 7
  done;
  put_byte b !n

let varint_size n =
  let n = ref n and size = ref 1 in
  while !n >= 0x80 do
    incr size;
    n := !n lsr 7
  done;
  !size

let[@inline] zigzag n = (n lsl 1) lxor (n asr 62)

(* [Int64.of_int] sign-extends, so bit 63 of the wire word duplicates
   the sign as the format requires. *)
let[@inline] put_i63 b n =
  Bytes.set_int64_le b.bytes b.pos (Int64.of_int n);
  b.pos <- b.pos + 8

let[@inline] put_float b f =
  Bytes.set_int64_le b.bytes b.pos (Int64.bits_of_float f);
  b.pos <- b.pos + 8

let put_str b s =
  let len = String.length s in
  ensure b (9 + len);
  put_varint b len;
  Bytes.blit_string s 0 b.bytes b.pos len;
  b.pos <- b.pos + len

(* Opens a record of [tag] at [b.pos]: returns the offset of its
   length byte. The caller has reserved room for the fields. *)
let[@inline] open_record b tag =
  let start = b.pos in
  b.pos <- start + 1;
  put_byte b tag;
  start

let close_record t b start =
  let len = b.pos - start - 1 in
  if len < 0x80 then Bytes.unsafe_set b.bytes start (Char.unsafe_chr len)
  else begin
    let extra = varint_size len - 1 in
    ensure b extra;
    Bytes.blit b.bytes (start + 1) b.bytes (start + 1 + extra) len;
    b.pos <- start;
    put_varint b len;
    b.pos <- b.pos + len
  end;
  if b.pos >= t.flush_at then drain t

(* Opens a timed record with room for a fixed-shape payload (see
   [max_fixed_record]); a journal record reserves room for each of
   its variable fields as it goes. *)
let[@inline] open_timed b tag ~bits =
  ensure b max_fixed_record;
  let start = open_record b tag in
  put_i63 b bits;
  start

(* [intern t b name] returns the id of [name], writing its strdef
   record (tag 13) first on a miss. Never called inside an open
   record. *)
let intern t b name =
  match Hashtbl.find_opt b.interned name with
  | Some id -> id
  | None ->
    let id = b.next_id in
    b.next_id <- id + 1;
    Hashtbl.add b.interned name id;
    ensure b 11;
    let start = open_record b 13 in
    put_varint b id;
    put_str b name;
    close_record t b start;
    id

(* One subscription's last name and its id. Queue and injector names
   are the same string on every event of a subscription, so a physical
   comparison skips the table lookup; the first event still interns,
   which keeps every strdef record where the stream first needs it. *)
type name_cache = { mutable name : string; mutable id : int }

let new_name_cache () = { name = ""; id = -1 }

let cached_id t b cache name =
  if cache.id >= 0 && cache.name == name then cache.id
  else begin
    let id = intern t b name in
    cache.name <- name;
    cache.id <- id;
    id
  end

let put_packet b (packet : Net.Packet.t) =
  put_varint b packet.flow;
  if Net.Packet.is_data packet then begin
    put_byte b 1;
    put_varint b (zigzag (Net.Packet.seq_exn packet))
  end
  else begin
    put_byte b 0;
    put_varint b (zigzag (Net.Packet.ackno_exn packet))
  end;
  put_varint b packet.uid

(* -- JSONL lines, shared by the live hooks and the exporter -- *)

let packet_fields (packet : Net.Packet.t) =
  if Net.Packet.is_data packet then
    Printf.sprintf {|"flow":%d,"kind":"data","seq":%d,"uid":%d|} packet.flow
      (Net.Packet.seq_exn packet) packet.uid
  else
    Printf.sprintf {|"flow":%d,"kind":"ack","ackno":%d,"uid":%d|} packet.flow
      (Net.Packet.ackno_exn packet) packet.uid

let queue_line t ~ev ~time ~name packet =
  line t {|{"t":%.6f,"ev":"%s","queue":"%s",%s}|} time ev name
    (packet_fields packet)

let queue_ev = function
  | Net.Queue_disc.Enqueued -> "enqueue"
  | Net.Queue_disc.Dropped -> "drop"
  | Net.Queue_disc.Dequeued -> "dequeue"

(* -- event emitters: one JSONL line or one binary record -- *)

let emit_send t ~time ~flow ~seq ~retx =
  match t.mode with
  | Jsonl ->
    line t {|{"t":%.6f,"ev":"send","flow":%d,"seq":%d,"retx":%b}|} time flow
      seq retx
  | Binary b ->
    let start = open_timed b 0 ~bits:(Sim.Timebits.of_time time) in
    put_varint b flow;
    put_varint b (zigzag seq);
    put_byte b (if retx then 1 else 0);
    close_record t b start

let emit_ack t ~time ~flow ~ackno =
  match t.mode with
  | Jsonl ->
    let dup =
      match Hashtbl.find_opt t.last_cumulative flow with
      | Some highest -> ackno <= highest
      | None -> false
    in
    if not dup then Hashtbl.replace t.last_cumulative flow ackno;
    line t {|{"t":%.6f,"ev":"ack","flow":%d,"ackno":%d,"dup":%b}|} time flow
      ackno dup
  | Binary b ->
    let start = open_timed b 1 ~bits:(Sim.Timebits.of_time time) in
    put_varint b flow;
    put_varint b (zigzag ackno);
    close_record t b start

let emit_flow_marker t ~tag ~ev ~time ~flow =
  match t.mode with
  | Jsonl -> line t {|{"t":%.6f,"ev":"%s","flow":%d}|} time ev flow
  | Binary b ->
    let start = open_timed b tag ~bits:(Sim.Timebits.of_time time) in
    put_varint b flow;
    close_record t b start

let emit_link_marker t cache ~tag ~ev ~time ~link =
  match t.mode with
  | Jsonl -> line t {|{"t":%.6f,"ev":"%s","link":"%s"}|} time ev link
  | Binary b ->
    let id = cached_id t b cache link in
    let start = open_timed b tag ~bits:(Sim.Timebits.of_time time) in
    put_varint b id;
    close_record t b start

let emit_fault_drop t cache ~time ~link packet =
  match t.mode with
  | Jsonl ->
    line t {|{"t":%.6f,"ev":"fault_drop","link":"%s",%s}|} time link
      (packet_fields packet)
  | Binary b ->
    let id = cached_id t b cache link in
    let start = open_timed b 10 ~bits:(Sim.Timebits.of_time time) in
    put_varint b id;
    put_packet b packet;
    close_record t b start

let emit_rate_change t cache ~time ~link ~bps =
  match t.mode with
  | Jsonl ->
    line t {|{"t":%.6f,"ev":"rate_change","link":"%s","bps":%g}|} time link bps
  | Binary b ->
    let id = cached_id t b cache link in
    let start = open_timed b 14 ~bits:(Sim.Timebits.of_time time) in
    put_varint b id;
    put_float b bps;
    close_record t b start

let emit_delay_change t cache ~time ~link ~delay =
  match t.mode with
  | Jsonl ->
    line t {|{"t":%.6f,"ev":"delay_change","link":"%s","delay":%.6f}|} time
      link delay
  | Binary b ->
    let id = cached_id t b cache link in
    let start = open_timed b 15 ~bits:(Sim.Timebits.of_time time) in
    put_varint b id;
    put_i63 b (Sim.Timebits.of_time delay);
    close_record t b start

let emit_reorder t cache ~time ~path ~extra packet =
  match t.mode with
  | Jsonl ->
    line t {|{"t":%.6f,"ev":"reorder","path":"%s","extra":%.6f,%s}|} time path
      extra (packet_fields packet)
  | Binary b ->
    let id = cached_id t b cache path in
    let start = open_timed b 11 ~bits:(Sim.Timebits.of_time time) in
    put_varint b id;
    put_i63 b (Sim.Timebits.of_time extra);
    put_packet b packet;
    close_record t b start

(* -- hook subscriptions -- *)

let attach_sender t agent =
  let flow = agent.Tcp.Agent.flow in
  let base = agent.Tcp.Agent.base in
  Tcp.Sender_common.on_send base (fun ~time ~seq ~retx ->
      emit_send t ~time ~flow ~seq ~retx);
  Tcp.Sender_common.on_ack base (fun ~time ~ackno ->
      emit_ack t ~time ~flow ~ackno);
  Tcp.Sender_common.on_recovery_enter base (fun ~time ->
      emit_flow_marker t ~tag:2 ~ev:"recovery_enter" ~time ~flow);
  Tcp.Sender_common.on_recovery_exit base (fun ~time ->
      emit_flow_marker t ~tag:3 ~ev:"recovery_exit" ~time ~flow);
  Tcp.Sender_common.on_timeout base (fun ~time ->
      emit_flow_marker t ~tag:4 ~ev:"timeout" ~time ~flow)

(* Binary queue records are stamped with the engine clock's own
   encoding, which is the record's wire form: no float is made. *)
let attach_queue t ~engine ~name disc =
  match t.mode with
  | Jsonl ->
    Net.Queue_disc.subscribe disc (fun event packet ->
        queue_line t ~ev:(queue_ev event) ~time:(Sim.Engine.now engine) ~name
          packet)
  | Binary b ->
    let cache = new_name_cache () in
    Net.Queue_disc.subscribe disc (fun event packet ->
        let id = cached_id t b cache name in
        let tag =
          match event with
          | Net.Queue_disc.Enqueued -> 5
          | Net.Queue_disc.Dropped -> 6
          | Net.Queue_disc.Dequeued -> 7
        in
        let start = open_timed b tag ~bits:(Sim.Engine.now_bits engine) in
        put_varint b id;
        put_packet b packet;
        close_record t b start)

let attach_injector t injector =
  let cache = new_name_cache () in
  Faults.Injector.subscribe injector (fun ~time event ->
      match event with
      | Faults.Injector.Link_down { link } ->
        emit_link_marker t cache ~tag:8 ~ev:"link_down" ~time ~link
      | Faults.Injector.Link_up { link } ->
        emit_link_marker t cache ~tag:9 ~ev:"link_up" ~time ~link
      | Faults.Injector.Fault_drop { link; packet } ->
        emit_fault_drop t cache ~time ~link packet
      | Faults.Injector.Reordered { path; packet; extra } ->
        emit_reorder t cache ~time ~path ~extra packet
      | Faults.Injector.Rate_change { link; bps } ->
        emit_rate_change t cache ~time ~link ~bps
      | Faults.Injector.Delay_change { link; delay } ->
        emit_delay_change t cache ~time ~link ~delay)

(* -- generic journal events --

   The campaign layer reuses the tracer as its buffered JSONL writer
   for run journals; events there carry wall-clock stamps and ad-hoc
   fields, so the rendering has to escape arbitrary strings (exception
   messages, digests) rather than trusting printf literals. *)

type field = Int of int | Float of float | Str of string | Bool of bool

let add_json_string buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

let journal_event t ~time ~ev fields =
  match t.mode with
  | Jsonl ->
    let buffer = Buffer.create 96 in
    add_json_string buffer ev;
    List.iter
      (fun (key, value) ->
        Buffer.add_char buffer ',';
        add_json_string buffer key;
        Buffer.add_char buffer ':';
        match value with
        | Int i -> Buffer.add_string buffer (string_of_int i)
        | Float f -> Buffer.add_string buffer (Printf.sprintf "%g" f)
        | Str s -> add_json_string buffer s
        | Bool b -> Buffer.add_string buffer (if b then "true" else "false"))
      fields;
    line t {|{"t":%.6f,"ev":%s}|} time (Buffer.contents buffer)
  | Binary b ->
    let start = open_timed b 12 ~bits:(Sim.Timebits.of_time time) in
    put_str b ev;
    ensure b 9;
    put_varint b (List.length fields);
    List.iter
      (fun (key, value) ->
        put_str b key;
        ensure b 10;
        match value with
        | Int i ->
          put_byte b 0;
          put_varint b (zigzag i)
        | Float f ->
          put_byte b 1;
          put_float b f
        | Str s ->
          put_byte b 2;
          put_str b s
        | Bool flag ->
          put_byte b 3;
          put_byte b (if flag then 1 else 0))
      fields;
    close_record t b start

let flush t =
  drain t;
  flush t.out

(* -- offline export: binary container back to the JSONL the Jsonl
   mode would have written live. Decoded events are replayed through
   the emitters above on a Jsonl tracer, so the formats (and the
   recomputed ACK [dup] flags) cannot drift apart. -- *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* LEB128 as the writer produces it: at most 9 bytes (63 bits) and a
   non-negative value. [next ()] yields the byte after [first]. A
   longer or out-of-range varint is corruption, so a flipped byte can
   never turn into a negative or absurd length downstream. *)
let max_varint_bytes = 9

let decode_varint next first =
  let rec go count shift acc b =
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then
      if acc < 0 then corrupt "varint exceeds the int range" else acc
    else if count = max_varint_bytes then
      corrupt "varint longer than %d bytes" max_varint_bytes
    else go (count + 1) (shift + 7) acc (next ())
  in
  go 1 0 0 first

(* Read the next record's length prefix; [None] on a clean EOF at a
   record boundary. EOF anywhere inside the varint is corruption. *)
let read_record_len input =
  match input_char input with
  | exception End_of_file -> None
  | first ->
    let next () =
      try Char.code (input_char input)
      with End_of_file -> corrupt "truncated varint"
    in
    Some (decode_varint next (Char.code first))

(* Read a [len]-byte record payload. [size] is the input's length when
   the channel knows it (a file): a length beyond the rest of it is
   corruption, caught before anything is allocated. From a pipe, a
   long payload is read in bounded chunks, so memory grows only with
   the bytes actually there. *)
let payload_chunk = 1 lsl 16

let read_payload input ~size len =
  (match size with
  | Some size when len > size - pos_in input ->
    corrupt "record length %d overruns the input" len
  | Some _ | None -> ());
  let piece n =
    try really_input_string input n
    with End_of_file -> corrupt "truncated record"
  in
  if len <= payload_chunk then piece len
  else begin
    let payload = Buffer.create payload_chunk in
    let left = ref len in
    while !left > 0 do
      let n = min !left payload_chunk in
      Buffer.add_string payload (piece n);
      left := !left - n
    done;
    Buffer.contents payload
  end

type cursor = { payload : string; mutable pos : int }

let byte cur =
  if cur.pos >= String.length cur.payload then corrupt "truncated record";
  let c = Char.code cur.payload.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

let cur_varint cur = decode_varint (fun () -> byte cur) (byte cur)

let[@inline] unzigzag n = (n lsr 1) lxor (-(n land 1))

let cur_i63 cur =
  let n = ref 0 in
  for i = 0 to 7 do
    n := !n lor (byte cur lsl (i * 8))
  done;
  (* Bit 63 of the wire word duplicated the sign and fell off the
     63-bit int; bit 62 still carries it. *)
  !n

let cur_time cur = Sim.Timebits.to_time (cur_i63 cur)

let cur_str cur =
  let len = cur_varint cur in
  if len > String.length cur.payload - cur.pos then corrupt "truncated string";
  let s = String.sub cur.payload cur.pos len in
  cur.pos <- cur.pos + len;
  s

let cur_i64 cur =
  let n = ref 0L in
  for i = 0 to 7 do
    n := Int64.logor !n (Int64.shift_left (Int64.of_int (byte cur)) (i * 8))
  done;
  !n

(* Rebuild a traced packet from its wire triple. Only the fields the
   emitters print matter; size and birth time are not traced. *)
let cur_packet cur =
  let flow = cur_varint cur in
  let is_data = byte cur <> 0 in
  let number = unzigzag (cur_varint cur) in
  let uid = cur_varint cur in
  if is_data then
    Net.Packet.data ~uid ~flow ~seq:number ~size_bytes:0 ~born:0.0
  else Net.Packet.ack ~uid ~flow ~ackno:number ~size_bytes:0 ~born:0.0 ()

let export ~input ~output =
  (match really_input_string input (String.length binary_magic) with
  | magic when magic = binary_magic -> ()
  | _ -> corrupt "bad magic (not an rr-sim binary trace)"
  | exception End_of_file -> corrupt "bad magic (not an rr-sim binary trace)");
  let size =
    match in_channel_length input with
    | size -> Some size
    | exception Sys_error _ -> None
  in
  let jt = create ~out:output () in
  (* The emitters' binary name cache; a JSONL tracer never reads it. *)
  let names = new_name_cache () in
  let strings = Hashtbl.create 16 in
  let strref cur =
    let id = cur_varint cur in
    match Hashtbl.find_opt strings id with
    | Some s -> s
    | None -> corrupt "undefined string reference %d" id
  in
  let rec records () =
    match read_record_len input with
    | None -> ()
    | Some len ->
      let payload = read_payload input ~size len in
      let cur = { payload; pos = 0 } in
      (match byte cur with
      | 0 ->
        let time = cur_time cur in
        let flow = cur_varint cur in
        let seq = unzigzag (cur_varint cur) in
        let retx = byte cur <> 0 in
        emit_send jt ~time ~flow ~seq ~retx
      | 1 ->
        let time = cur_time cur in
        let flow = cur_varint cur in
        let ackno = unzigzag (cur_varint cur) in
        emit_ack jt ~time ~flow ~ackno
      | 2 ->
        let time = cur_time cur in
        emit_flow_marker jt ~tag:2 ~ev:"recovery_enter" ~time
          ~flow:(cur_varint cur)
      | 3 ->
        let time = cur_time cur in
        emit_flow_marker jt ~tag:3 ~ev:"recovery_exit" ~time
          ~flow:(cur_varint cur)
      | 4 ->
        let time = cur_time cur in
        emit_flow_marker jt ~tag:4 ~ev:"timeout" ~time ~flow:(cur_varint cur)
      | (5 | 6 | 7) as tag ->
        let time = cur_time cur in
        let name = strref cur in
        let packet = cur_packet cur in
        let ev =
          match tag with 5 -> "enqueue" | 6 -> "drop" | _ -> "dequeue"
        in
        queue_line jt ~ev ~time ~name packet
      | (8 | 9) as tag ->
        let time = cur_time cur in
        let ev = if tag = 8 then "link_down" else "link_up" in
        emit_link_marker jt names ~tag ~ev ~time ~link:(strref cur)
      | 10 ->
        let time = cur_time cur in
        let link = strref cur in
        emit_fault_drop jt names ~time ~link (cur_packet cur)
      | 11 ->
        let time = cur_time cur in
        let path = strref cur in
        let extra = cur_time cur in
        emit_reorder jt names ~time ~path ~extra (cur_packet cur)
      | 14 ->
        let time = cur_time cur in
        let link = strref cur in
        let bps = Int64.float_of_bits (cur_i64 cur) in
        emit_rate_change jt names ~time ~link ~bps
      | 15 ->
        let time = cur_time cur in
        let link = strref cur in
        let delay = cur_time cur in
        emit_delay_change jt names ~time ~link ~delay
      | 12 ->
        let time = cur_time cur in
        let ev = cur_str cur in
        let nfields = cur_varint cur in
        let fields =
          List.init nfields (fun _ ->
              let key = cur_str cur in
              let value =
                match byte cur with
                | 0 -> Int (unzigzag (cur_varint cur))
                | 1 -> Float (Int64.float_of_bits (cur_i64 cur))
                | 2 -> Str (cur_str cur)
                | 3 -> Bool (byte cur <> 0)
                | tag -> corrupt "unknown journal value tag %d" tag
              in
              (key, value))
        in
        journal_event jt ~time ~ev fields
      | 13 ->
        let id = cur_varint cur in
        Hashtbl.replace strings id (cur_str cur)
      | tag -> corrupt "unknown record tag %d" tag);
      if cur.pos <> String.length payload then
        corrupt "record length mismatch (tag %d)" (Char.code payload.[0]);
      records ()
  in
  records ();
  flush jt
