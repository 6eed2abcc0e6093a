(* RNG tests: reproducibility, stream independence, output ranges and
   coarse distribution sanity. *)

let test_determinism () =
  let a = Sim.Rng.create 42L in
  let b = Sim.Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "same stream" true (Sim.Rng.bits64 a = Sim.Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Sim.Rng.create 1L in
  let b = Sim.Rng.create 2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.bits64 a <> Sim.Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_split_independence () =
  let parent = Sim.Rng.create 7L in
  let child = Sim.Rng.split parent in
  let child_values = List.init 50 (fun _ -> Sim.Rng.bits64 child) in
  let parent_values = List.init 50 (fun _ -> Sim.Rng.bits64 parent) in
  Alcotest.(check bool)
    "child stream is not the parent stream" true
    (child_values <> parent_values)

let test_float_range () =
  let rng = Sim.Rng.create 3L in
  for _ = 1 to 1000 do
    let x = Sim.Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_float_range_bounds () =
  let rng = Sim.Rng.create 3L in
  for _ = 1 to 1000 do
    let x = Sim.Rng.float_range rng ~lo:(-5.0) ~hi:5.0 in
    Alcotest.(check bool) "in [lo,hi)" true (x >= -5.0 && x < 5.0)
  done

let test_int_range () =
  let rng = Sim.Rng.create 11L in
  let seen = Array.make 6 0 in
  for _ = 1 to 6000 do
    let k = Sim.Rng.int rng 6 in
    Alcotest.(check bool) "in [0,6)" true (k >= 0 && k < 6);
    seen.(k) <- seen.(k) + 1
  done;
  Array.iteri
    (fun i count ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d roughly uniform" i)
        true
        (count > 700 && count < 1300))
    seen

let test_bernoulli_edges () =
  let rng = Sim.Rng.create 5L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Sim.Rng.bernoulli rng 0.0);
    Alcotest.(check bool) "p=1 always" true (Sim.Rng.bernoulli rng 1.0)
  done

let test_bernoulli_rate () =
  let rng = Sim.Rng.create 13L in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Sim.Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 0.3" rate)
    true
    (rate > 0.27 && rate < 0.33)

let test_exponential () =
  let rng = Sim.Rng.create 17L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Sim.Rng.exponential rng ~mean:2.0 in
    Alcotest.(check bool) "positive" true (x >= 0.0);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 2.0" mean)
    true
    (mean > 1.85 && mean < 2.15)

let prop_int_in_range =
  QCheck2.Test.make ~name:"Rng.int stays in range"
    QCheck2.Gen.(pair (int_range 1 1000) int)
    (fun (n, seed) ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let k = Sim.Rng.int rng n in
      k >= 0 && k < n)

(* Golden streams, recorded from the SplitMix64 implementation that
   kept its state in a boxed [int64] field. The state representation
   may change; these 16 outputs of each stream may not, or every seeded
   artifact of the repository moves. *)

let golden_bits =
  [
    0xBDD732262FEB6E95L; 0x28EFE333B266F103L;
    0x47526757130F9F52L; 0x581CE1FF0E4AE394L;
    0x09BC585A244823F2L; 0xDE4431FA3C80DB06L;
    0x37E9671C45376D5DL; 0xCCF635EE9E9E2FA4L;
    0x5705B8770B3D7DD5L; 0x9E54D738297F77AEL;
    0x3474724A775B19BFL; 0x7E348A0E451650BEL;
    0x836DED897F3E46E6L; 0x851F977347ED6DB7L;
    0xAA47E31C02E78EDCL; 0x341452C54D7C33F2L;
  ]

let golden_floats =
  [
    0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3;
    0x1.1d499d5c4c3e6p-2; 0x1.607387fc392b8p-2;
    0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1;
    0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1;
    0x1.5c16e1dc2cf5ep-2; 0x1.3ca9ae7052feep-1;
    0x1.a3a39253bad8cp-3; 0x1.f8d2283914594p-2;
    0x1.06dbdb12fe7c8p-1; 0x1.0a3f2ee68fdadp-1;
    0x1.548fc63805cf1p-1; 0x1.a0a2962a6be18p-3;
  ]

let golden_child_bits =
  [
    0xC5A57E8172F0A9D2L; 0x61B3E514F002FD8BL;
    0xB4B2555DC7FCD0AAL; 0x9A0499C8CFAE7A8DL;
    0x048FC621CDBA53ADL; 0xE7C013AA082BCE9FL;
    0x8571235597D94DF6L; 0x2CE9CAC0CD46ACCEL;
    0xF2F765A4638B93EEL; 0x342E951D3C0B0026L;
    0x81266862FB3AAA87L; 0x4B703780BCBD3117L;
    0x6084110E3ABBAB7BL; 0xF27FA3A47F417D42L;
    0x167D8E3BDB351F57L; 0xB6AD584BAD1A2126L;
  ]

let golden_child_floats =
  [
    0x1.8b4afd02e5e15p-1; 0x1.86cf9453c00bep-2;
    0x1.6964aabb8ff9ap-1; 0x1.340933919f5cfp-1;
    0x1.23f188736e94p-6; 0x1.cf80275410579p-1;
    0x1.0ae246ab2fb29p-1; 0x1.674e56066a354p-3;
    0x1.e5eecb48c7172p-1; 0x1.a174a8e9e058p-3;
    0x1.024cd0c5f6755p-1; 0x1.2dc0de02f2f4cp-2;
    0x1.82104438eaeeap-2; 0x1.e4ff4748fe82fp-1;
    0x1.67d8e3bdb3518p-4; 0x1.6d5ab0975a344p-1;
  ]

(* [Rng.int rng (1 + 997 i)] for i = 0 .. 15, one stream. *)
let golden_ints =
  [ 0; 559; 819; 1898; 3388; 2163; 2974; 5994; 2961; 3275; 1674; 9023; 2949;
    11243; 13711; 5845 ]

let draws n f = List.init n (fun _ -> f ())

let test_golden_stream () =
  let rng = Sim.Rng.create 42L in
  Alcotest.(check (list int64)) "bits64" golden_bits
    (draws 16 (fun () -> Sim.Rng.bits64 rng));
  let rng = Sim.Rng.create 42L in
  Alcotest.(check (list (float 0.0))) "float" golden_floats
    (draws 16 (fun () -> Sim.Rng.float rng));
  let parent = Sim.Rng.create 42L in
  let child = Sim.Rng.split parent in
  Alcotest.(check (list int64)) "split child bits64" golden_child_bits
    (draws 16 (fun () -> Sim.Rng.bits64 child));
  (* Splitting consumes exactly one parent draw. *)
  Alcotest.(check (list int64)) "parent after split"
    (List.tl (List.filteri (fun i _ -> i < 5) golden_bits))
    (draws 4 (fun () -> Sim.Rng.bits64 parent));
  let child = Sim.Rng.split (Sim.Rng.create 42L) in
  Alcotest.(check (list (float 0.0))) "split child float" golden_child_floats
    (draws 16 (fun () -> Sim.Rng.float child));
  let rng = Sim.Rng.create 42L in
  Alcotest.(check (list int)) "int" golden_ints
    (List.init 16 (fun i -> Sim.Rng.int rng (1 + (i * 997))))

let suite =
  [
    ( "rng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "golden stream" `Quick test_golden_stream;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        Alcotest.test_case "split independence" `Quick test_split_independence;
        Alcotest.test_case "float range" `Quick test_float_range;
        Alcotest.test_case "float_range bounds" `Quick test_float_range_bounds;
        Alcotest.test_case "int uniformity" `Quick test_int_range;
        Alcotest.test_case "bernoulli edges" `Quick test_bernoulli_edges;
        Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
        Alcotest.test_case "exponential mean" `Quick test_exponential;
        QCheck_alcotest.to_alcotest prop_int_in_range;
      ] );
  ]
