(* The binary container: magic + version, then length-prefixed records.
   It is the only encoding the simulation path writes: a JSONL tracer
   stages the same records and renders them to text when it drains.

     header  := "RRTB" version:u8(=1)
     record  := varint(payload length) payload
     payload := tag:u8 time:i63le rest

   [varint] is LEB128 (7 bits per byte, high bit = continuation) and
   encodes non-negative ints; signed fields go through zigzag first.
   [i63le] is an OCaml 63-bit int written as 8 little-endian bytes
   (two's complement; bit 63 of the wire word duplicates the sign) —
   used for times, which travel in {!Sim.Timebits} encoding so the
   renderer recovers the exact float the event carried. Record payloads
   by tag:

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
     12 (reserved: once a campaign journal record; never reused)
     13 strdef          varint id, str   (no time field)
     14 rate_change     strref link, bps:f64le bits
     15 delay_change    strref link, delay:i63le(timebits)
     packet := varint flow, is_data:u8, zigzag seq_or_ackno, varint uid
     str    := varint length, bytes
     strref := varint id      (defined by a preceding strdef)

   ACK [dup] flags are not stored: the renderer recomputes them from a
   per-flow table of the highest ACK seen. *)
let binary_magic = "RRTB\x01"

(* -- rendering: binary records to JSONL lines --

   The live JSONL tracer and the offline exporter share this decoder
   and [render_record], so the two cannot drift apart. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* The strings defined so far, each flow's highest cumulative ACK (for
   the [dup] flag) and the text rendered since the last write. *)
type renderer = {
  strings : (int, string) Hashtbl.t;
  last_cumulative : (int, int) Hashtbl.t;
  text : Buffer.t;
}

let new_renderer capacity =
  {
    strings = Hashtbl.create 16;
    last_cumulative = Hashtbl.create 7;
    text = Buffer.create capacity;
  }

(* LEB128 as the writer produces it: at most 9 bytes (63 bits) and a
   non-negative value. A longer or out-of-range varint is corruption,
   so a flipped byte can never turn into a negative or absurd length
   downstream. *)
let max_varint_bytes = 9

(* One record being decoded: [src] from [pos] up to [limit]. *)
type cursor = { src : Bytes.t; mutable pos : int; mutable limit : int }

let byte cur =
  if cur.pos >= cur.limit then corrupt "truncated record";
  let c = Char.code (Bytes.get cur.src cur.pos) in
  cur.pos <- cur.pos + 1;
  c

let cur_varint cur =
  let rec go count shift acc =
    let b = byte cur in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then
      if acc < 0 then corrupt "varint exceeds the int range" else acc
    else if count = max_varint_bytes then
      corrupt "varint longer than %d bytes" max_varint_bytes
    else go (count + 1) (shift + 7) acc
  in
  go 1 0 0

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

let cur_i64 cur =
  let n = ref 0L in
  for i = 0 to 7 do
    n := Int64.logor !n (Int64.shift_left (Int64.of_int (byte cur)) (i * 8))
  done;
  !n

let cur_str cur =
  let len = cur_varint cur in
  if len > cur.limit - cur.pos then corrupt "truncated string";
  let s = Bytes.sub_string cur.src cur.pos len in
  cur.pos <- cur.pos + len;
  s

let strref r cur =
  let id = cur_varint cur in
  match Hashtbl.find_opt r.strings id with
  | Some s -> s
  | None -> corrupt "undefined string reference %d" id

(* Numbers are written with [string_of_int] and one [caml_format_float]
   call per float field — the conversions Printf's [%d], [%.6f] and
   [%g] make, without its per-line format interpretation. *)
external format_float : string -> float -> string = "caml_format_float"

let add = Buffer.add_string
let add_int text n = add text (string_of_int n)
let add_fixed text f = add text (format_float "%.6f" f)

let add_packet text cur =
  add text {|"flow":|};
  add_int text (cur_varint cur);
  add text
    (if byte cur <> 0 then {|,"kind":"data","seq":|}
     else {|,"kind":"ack","ackno":|});
  add_int text (unzigzag (cur_varint cur));
  add text {|,"uid":|};
  add_int text (cur_varint cur)

(* Render the record under [cur] (from its tag byte to [cur.limit]) as
   one JSONL line, or record its string definition. *)
let render_record r cur =
  let text = r.text in
  let tag = byte cur in
  (match tag with
  | 13 ->
    let id = cur_varint cur in
    Hashtbl.replace r.strings id (cur_str cur)
  | _ when tag = 12 || tag > 15 -> corrupt "unknown record tag %d" tag
  | _ ->
    add text {|{"t":|};
    add_fixed text (cur_time cur);
    (match tag with
    | 0 ->
      add text {|,"ev":"send","flow":|};
      add_int text (cur_varint cur);
      add text {|,"seq":|};
      add_int text (unzigzag (cur_varint cur));
      add text (if byte cur <> 0 then {|,"retx":true|} else {|,"retx":false|})
    | 1 ->
      let flow = cur_varint cur in
      let ackno = unzigzag (cur_varint cur) in
      let dup =
        match Hashtbl.find_opt r.last_cumulative flow with
        | Some highest -> ackno <= highest
        | None -> false
      in
      if not dup then Hashtbl.replace r.last_cumulative flow ackno;
      add text {|,"ev":"ack","flow":|};
      add_int text flow;
      add text {|,"ackno":|};
      add_int text ackno;
      add text (if dup then {|,"dup":true|} else {|,"dup":false|})
    | 2 | 3 | 4 ->
      add text
        (match tag with
        | 2 -> {|,"ev":"recovery_enter","flow":|}
        | 3 -> {|,"ev":"recovery_exit","flow":|}
        | _ -> {|,"ev":"timeout","flow":|});
      add_int text (cur_varint cur)
    | 5 | 6 | 7 ->
      add text
        (match tag with
        | 5 -> {|,"ev":"enqueue","queue":"|}
        | 6 -> {|,"ev":"drop","queue":"|}
        | _ -> {|,"ev":"dequeue","queue":"|});
      add text (strref r cur);
      add text {|",|};
      add_packet text cur
    | 8 | 9 ->
      add text
        (if tag = 8 then {|,"ev":"link_down","link":"|}
         else {|,"ev":"link_up","link":"|});
      add text (strref r cur);
      add text {|"|}
    | 10 ->
      add text {|,"ev":"fault_drop","link":"|};
      add text (strref r cur);
      add text {|",|};
      add_packet text cur
    | 11 ->
      add text {|,"ev":"reorder","path":"|};
      add text (strref r cur);
      add text {|","extra":|};
      add_fixed text (cur_time cur);
      add text ",";
      add_packet text cur
    | 14 ->
      add text {|,"ev":"rate_change","link":"|};
      add text (strref r cur);
      add text {|","bps":|};
      add text (format_float "%g" (Int64.float_of_bits (cur_i64 cur)))
    | _ ->
      add text {|,"ev":"delay_change","link":"|};
      add text (strref r cur);
      add text {|","delay":|};
      add_fixed text (cur_time cur));
    add text "}\n");
  if cur.pos <> cur.limit then corrupt "record length mismatch (tag %d)" tag

(* Render the length-prefixed records in the first [len] bytes of
   [src]. *)
let render_records r src len =
  let cur = { src; pos = 0; limit = len } in
  while cur.pos < len do
    cur.limit <- len;
    let n = cur_varint cur in
    cur.limit <- cur.pos + n;
    render_record r cur
  done

(* -- the tracer -- *)

type t = {
  out : out_channel;
  (* Records are encoded by direct stores into [bytes] at [pos] and
     written out in [flush_at]-sized chunks, so tracing costs a few
     byte stores per event instead of a per-event channel write. Queue
     and link names repeat on every event, so they are written once as
     a definition record and referenced by id after. *)
  mutable bytes : Bytes.t;
  mutable pos : int;
  interned : (string, int) Hashtbl.t;
  mutable next_id : int;
  flush_at : int;
  (* [None] for a binary tracer, whose staged bytes go out as they
     are; a JSONL tracer renders them to text at each drain. *)
  jsonl : renderer option;
}

let default_flush_at = 1 lsl 16

(* Every record but a strdef record fits in this many bytes with its
   length prefix: tag, time, at most five 9-byte varints, a flag byte
   and one more 8-byte word. Reserving it once per record lets the
   field writers store without bounds bookkeeping. *)
let max_fixed_record = 64

let create ?(flush_at = default_flush_at) ?(format = `Jsonl) ~out () =
  if flush_at <= 0 then invalid_arg "Trace.create: flush_at <= 0";
  (* Size the staging area to the requested flush threshold (the
     natural high-water mark), capped so a huge [flush_at] cannot
     demand a matching contiguous allocation up front. *)
  let capacity = min flush_at (1 lsl 24) in
  let bytes = Bytes.create (capacity + max_fixed_record) in
  let pos, jsonl =
    match format with
    | `Jsonl -> (0, Some (new_renderer capacity))
    | `Binary ->
      Bytes.blit_string binary_magic 0 bytes 0 (String.length binary_magic);
      (String.length binary_magic, None)
  in
  { out; bytes; pos; interned = Hashtbl.create 16; next_id = 0; flush_at; jsonl }

let drain t =
  if t.pos > 0 then begin
    (match t.jsonl with
    | None -> output t.out t.bytes 0 t.pos
    | Some r ->
      render_records r t.bytes t.pos;
      Buffer.output_buffer t.out r.text;
      Buffer.clear r.text);
    t.pos <- 0
  end

(* -- binary encoding: direct stores into the staging area --

   A record is opened with one byte reserved for its length, its
   payload stored field by field, and closed by patching the length
   in. Only a payload of 128 bytes or more (a strdef of a long name)
   needs a longer prefix; closing then shifts the payload up by the
   extra varint bytes. *)

let ensure t n =
  if t.pos + n > Bytes.length t.bytes then begin
    let grown = Bytes.create (max (2 * Bytes.length t.bytes) (t.pos + n)) in
    Bytes.blit t.bytes 0 grown 0 t.pos;
    t.bytes <- grown
  end

let[@inline] put_byte t c =
  Bytes.unsafe_set t.bytes t.pos (Char.unsafe_chr c);
  t.pos <- t.pos + 1

let put_varint t n =
  let n = ref n in
  while !n >= 0x80 do
    put_byte t (0x80 lor (!n land 0x7f));
    n := !n lsr 7
  done;
  put_byte t !n

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
let[@inline] put_i63 t n =
  Bytes.set_int64_le t.bytes t.pos (Int64.of_int n);
  t.pos <- t.pos + 8

let[@inline] put_float t f =
  Bytes.set_int64_le t.bytes t.pos (Int64.bits_of_float f);
  t.pos <- t.pos + 8

let put_str t s =
  let len = String.length s in
  ensure t (9 + len);
  put_varint t len;
  Bytes.blit_string s 0 t.bytes t.pos len;
  t.pos <- t.pos + len

(* Opens a record of [tag] at [t.pos]: returns the offset of its
   length byte. The caller has reserved room for the fields. *)
let[@inline] open_record t tag =
  let start = t.pos in
  t.pos <- start + 1;
  put_byte t tag;
  start

let close_record t start =
  let len = t.pos - start - 1 in
  if len < 0x80 then Bytes.unsafe_set t.bytes start (Char.unsafe_chr len)
  else begin
    let extra = varint_size len - 1 in
    ensure t extra;
    Bytes.blit t.bytes (start + 1) t.bytes (start + 1 + extra) len;
    t.pos <- start;
    put_varint t len;
    t.pos <- t.pos + len
  end;
  if t.pos >= t.flush_at then drain t

(* Opens a timed record with room for a fixed-shape payload (see
   [max_fixed_record]). *)
let[@inline] open_timed t tag ~bits =
  ensure t max_fixed_record;
  let start = open_record t tag in
  put_i63 t bits;
  start

(* [intern t name] returns the id of [name], writing its strdef record
   (tag 13) first on a miss. Never called inside an open record. *)
let intern t name =
  match Hashtbl.find_opt t.interned name with
  | Some id -> id
  | None ->
    let id = t.next_id in
    t.next_id <- id + 1;
    Hashtbl.add t.interned name id;
    ensure t 11;
    let start = open_record t 13 in
    put_varint t id;
    put_str t name;
    close_record t start;
    id

(* One subscription's last name and its id. Queue and injector names
   are the same string on every event of a subscription, so a physical
   comparison skips the table lookup; the first event still interns,
   which keeps every strdef record where the stream first needs it. *)
type name_cache = { mutable name : string; mutable id : int }

let new_name_cache () = { name = ""; id = -1 }

let cached_id t cache name =
  if cache.id >= 0 && cache.name == name then cache.id
  else begin
    let id = intern t name in
    cache.name <- name;
    cache.id <- id;
    id
  end

let put_packet t (packet : Net.Packet.t) =
  put_varint t packet.flow;
  if Net.Packet.is_data packet then begin
    put_byte t 1;
    put_varint t (zigzag (Net.Packet.seq_exn packet))
  end
  else begin
    put_byte t 0;
    put_varint t (zigzag (Net.Packet.ackno_exn packet))
  end;
  put_varint t packet.uid

(* -- event emitters: one binary record each -- *)

let emit_flow_record t ~tag ~time ~flow =
  let start = open_timed t tag ~bits:(Sim.Timebits.of_time time) in
  put_varint t flow;
  start

let emit_send t ~time ~flow ~seq ~retx =
  let start = emit_flow_record t ~tag:0 ~time ~flow in
  put_varint t (zigzag seq);
  put_byte t (if retx then 1 else 0);
  close_record t start

let emit_ack t ~time ~flow ~ackno =
  let start = emit_flow_record t ~tag:1 ~time ~flow in
  put_varint t (zigzag ackno);
  close_record t start

let emit_flow_marker t ~tag ~time ~flow =
  close_record t (emit_flow_record t ~tag ~time ~flow)

(* Opens a record of [tag] stamped [time] whose first field is [link]'s
   string reference. *)
let open_link_record t cache ~tag ~time ~link =
  let id = cached_id t cache link in
  let start = open_timed t tag ~bits:(Sim.Timebits.of_time time) in
  put_varint t id;
  start

(* -- hook subscriptions -- *)

let attach_sender t agent =
  let flow = agent.Tcp.Agent.flow in
  let base = agent.Tcp.Agent.base in
  Tcp.Sender_common.on_send base (fun ~time ~seq ~retx ->
      emit_send t ~time ~flow ~seq ~retx);
  Tcp.Sender_common.on_ack base (fun ~time ~ackno ->
      emit_ack t ~time ~flow ~ackno);
  Tcp.Sender_common.on_recovery_enter base (fun ~time ->
      emit_flow_marker t ~tag:2 ~time ~flow);
  Tcp.Sender_common.on_recovery_exit base (fun ~time ->
      emit_flow_marker t ~tag:3 ~time ~flow);
  Tcp.Sender_common.on_timeout base (fun ~time ->
      emit_flow_marker t ~tag:4 ~time ~flow)

(* Queue records are stamped with the engine clock's own encoding,
   which is the record's wire form: no float is made. *)
let attach_queue t ~engine ~name disc =
  let cache = new_name_cache () in
  Net.Queue_disc.subscribe disc (fun event packet ->
      let id = cached_id t cache name in
      let tag =
        match event with
        | Net.Queue_disc.Enqueued -> 5
        | Net.Queue_disc.Dropped -> 6
        | Net.Queue_disc.Dequeued -> 7
      in
      let start = open_timed t tag ~bits:(Sim.Engine.now_bits engine) in
      put_varint t id;
      put_packet t packet;
      close_record t start)

let attach_injector t injector =
  let cache = new_name_cache () in
  Faults.Injector.subscribe injector (fun ~time event ->
      match event with
      | Faults.Injector.Link_down { link } ->
        close_record t (open_link_record t cache ~tag:8 ~time ~link)
      | Faults.Injector.Link_up { link } ->
        close_record t (open_link_record t cache ~tag:9 ~time ~link)
      | Faults.Injector.Fault_drop { link; packet } ->
        let start = open_link_record t cache ~tag:10 ~time ~link in
        put_packet t packet;
        close_record t start
      | Faults.Injector.Reordered { path; packet; extra } ->
        let start = open_link_record t cache ~tag:11 ~time ~link:path in
        put_i63 t (Sim.Timebits.of_time extra);
        put_packet t packet;
        close_record t start
      | Faults.Injector.Rate_change { link; bps } ->
        let start = open_link_record t cache ~tag:14 ~time ~link in
        put_float t bps;
        close_record t start
      | Faults.Injector.Delay_change { link; delay } ->
        let start = open_link_record t cache ~tag:15 ~time ~link in
        put_i63 t (Sim.Timebits.of_time delay);
        close_record t start)

let flush t =
  drain t;
  flush t.out

(* -- offline export: a binary container rendered as JSONL -- *)

(* Read the next record's length prefix; [None] on a clean EOF at a
   record boundary. EOF anywhere inside the varint is corruption. *)
let read_record_len input =
  match input_char input with
  | exception End_of_file -> None
  | first ->
    let rec go count shift acc b =
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then
        if acc < 0 then corrupt "varint exceeds the int range" else acc
      else if count = max_varint_bytes then
        corrupt "varint longer than %d bytes" max_varint_bytes
      else
        match input_char input with
        | c -> go (count + 1) (shift + 7) acc (Char.code c)
        | exception End_of_file -> corrupt "truncated varint"
    in
    Some (go 1 0 0 (Char.code first))

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
  let r = new_renderer default_flush_at in
  let write () =
    Buffer.output_buffer output r.text;
    Buffer.clear r.text
  in
  let rec records () =
    match read_record_len input with
    | None -> ()
    | Some len ->
      let payload = read_payload input ~size len in
      render_record r { src = Bytes.unsafe_of_string payload; pos = 0; limit = len };
      if Buffer.length r.text >= default_flush_at then write ();
      records ()
  in
  records ();
  write ();
  Stdlib.flush output
