(* Packet constructors and accessors. *)

let test_data () =
  let p = Net.Packet.data ~uid:1 ~flow:3 ~seq:42 ~size_bytes:1000 ~born:0.5 in
  Alcotest.(check bool) "is_data" true (Net.Packet.is_data p);
  Alcotest.(check int) "seq" 42 (Net.Packet.seq_exn p);
  Alcotest.(check int) "flow" 3 p.Net.Packet.flow;
  Alcotest.(check int) "size" 1000 p.Net.Packet.size_bytes

let test_ack () =
  let p =
    Net.Packet.ack ~uid:2 ~flow:1 ~ackno:7 ~sack:[ (9, 12) ] ~size_bytes:40
      ~born:1.0 ()
  in
  Alcotest.(check bool) "not data" false (Net.Packet.is_data p);
  (match Net.Packet.kind p with
  | Net.Packet.Ack { ackno; sack } ->
    Alcotest.(check int) "ackno" 7 ackno;
    Alcotest.(check (list (pair int int))) "sack" [ (9, 12) ] sack
  | Net.Packet.Data _ -> Alcotest.fail "kind");
  Alcotest.check_raises "seq_exn on ack"
    (Invalid_argument "Packet.seq_exn: ACK packet") (fun () ->
      ignore (Net.Packet.seq_exn p : int))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_pp () =
  let data = Net.Packet.data ~uid:1 ~flow:0 ~seq:5 ~size_bytes:1000 ~born:0.0 in
  let ack = Net.Packet.ack ~uid:2 ~flow:0 ~ackno:4 ~size_bytes:40 ~born:0.0 () in
  Alcotest.(check bool) "data mentions seq" true
    (contains (Format.asprintf "%a" Net.Packet.pp data) "seq=5");
  Alcotest.(check bool) "ack mentions ackno" true
    (contains (Format.asprintf "%a" Net.Packet.pp ack) "ackno=4")

(* Every sequence number in the packable range round-trips through the
   shared [info] word, negative and near-limit ones included. *)
let prop_seqno_roundtrip =
  let limit = 1 lsl 61 in
  let seq =
    QCheck.Gen.(
      oneof
        [
          int_range (-1000) 1000;
          int_range (-limit) (limit - 2);
          oneofl [ -limit; -limit + 1; -2; -1; 0; limit - 3; limit - 2 ];
        ])
  in
  QCheck.Test.make ~name:"data/ack seqno round-trips" ~count:1000
    (QCheck.make ~print:string_of_int seq) (fun seq ->
      let data = Net.Packet.data ~uid:0 ~flow:0 ~seq ~size_bytes:1000 ~born:0.0 in
      let ack =
        Net.Packet.ack ~uid:0 ~flow:0 ~ackno:seq ~size_bytes:40 ~born:0.0 ()
      in
      Net.Packet.seq_exn data = seq
      && Net.Packet.ackno_exn ack = seq
      && Net.Packet.kind data = Net.Packet.Data { seq }
      && Net.Packet.kind ack = Net.Packet.Ack { ackno = seq; sack = [] })

let suite =
  [
    ( "packet",
      [
        Alcotest.test_case "data" `Quick test_data;
        Alcotest.test_case "ack" `Quick test_ack;
        Alcotest.test_case "pp" `Quick test_pp;
        QCheck_alcotest.to_alcotest prop_seqno_roundtrip;
      ] );
  ]
