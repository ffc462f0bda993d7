(* Differential tests for batched query execution (PR 5, registry-
   driven since PR 7): for EVERY builder in the shared table
   ({!Registry.all}) plus one forced generic-fallback index,
   [Instance.query_batch] over randomized batches — overlapping,
   duplicate, empty, inverted, out-of-range and full-range intervals —
   must return answers bit-identical (same constructor, same posting)
   to looping the index's own [query].  Because the suite is generated
   from the registry, registering a new builder without batch coverage
   is impossible: it lands here automatically, and CI runs this
   suite. *)

let device () = Iosim.Device.create ~block_bits:256 ~mem_bits:(64 * 256) ()

let builders =
  List.map
    (fun b -> (b.Registry.b_name, b.Registry.b_build))
    Registry.all
  @ [
      (* No batch hook: exercises the generic planner fallback. *)
      ( "binned-fallback",
        fun dev ~sigma data ->
          Baselines.Binned_index.instance dev ~sigma ~w:3 data );
    ]

let answers_identical a b =
  match (a, b) with
  | Indexing.Answer.Direct p, Indexing.Answer.Direct q
  | Indexing.Answer.Complement p, Indexing.Answer.Complement q ->
      Cbitmap.Posting.equal p q
  | _ -> false

let check_batch name inst ranges =
  let expect =
    Array.map (fun (lo, hi) -> inst.Indexing.Instance.query ~lo ~hi) ranges
  in
  let got, _stats = Indexing.Instance.query_batch inst ranges in
  Alcotest.(check int)
    (Printf.sprintf "%s: answer count" name)
    (Array.length expect) (Array.length got);
  Array.iteri
    (fun i e ->
      let lo, hi = ranges.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: batch slot %d = query [%d,%d]" name i lo hi)
        true
        (answers_identical e got.(i)))
    expect

(* Hand-picked edges: full alphabet, points, clamping on both sides,
   inverted (empty), fully out of range, duplicates. *)
let edge_batch sigma =
  [|
    (0, sigma - 1);
    (3, 3);
    (-5, 2);
    (10, 5);
    (sigma, sigma + 5);
    (3, 3);
    (sigma - 1, sigma - 1);
    (-1, sigma);
    (0, sigma - 1);
  |]

(* Deterministic batch generator biased toward the planner's work:
   repeats of earlier ranges, heavy overlap, occasional junk. *)
let random_batch ~seed ~sigma ~k =
  let state = ref (((seed * 69069) + 1) land 0x3FFFFFFF) in
  let next m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  let ranges = Array.make k (0, 0) in
  for i = 0 to k - 1 do
    ranges.(i) <-
      (if i > 0 && next 4 = 0 then ranges.(next i) (* duplicate *)
       else
         match next 8 with
         | 0 -> (next sigma, -1 - next 3) (* inverted: empty *)
         | 1 -> (sigma + next 4, sigma + 4 + next 4) (* out of range *)
         | 2 -> (-(1 + next 3), next sigma) (* clamp low *)
         | _ ->
             let lo = next sigma in
             (lo, min (sigma - 1) (lo + next 8)))
  done;
  ranges

let test_one (name, build) () =
  let sigma = 16 in
  let g = Workload.Gen.zipf ~seed:11 ~n:1024 ~sigma ~theta:1.0 () in
  let inst = build (device ()) ~sigma g.Workload.Gen.data in
  check_batch name inst [||];
  check_batch name inst (edge_batch sigma);
  List.iter
    (fun seed ->
      List.iter
        (fun k -> check_batch name inst (random_batch ~seed ~sigma ~k))
        [ 1; 7; 33 ])
    [ 0; 1; 2; 3 ]

(* COUNT through [Instance.query_count] — the structure's [count] hook
   where it has one, a full query otherwise — equals the cardinality
   of the cold query, on the same edge and random ranges. *)
let test_count (name, build) () =
  let sigma = 16 in
  let g = Workload.Gen.zipf ~seed:12 ~n:1024 ~sigma ~theta:1.0 () in
  let inst = build (device ()) ~sigma g.Workload.Gen.data in
  let ranges =
    Array.concat
      (edge_batch sigma
      :: List.map (fun seed -> random_batch ~seed ~sigma ~k:33) [ 0; 1 ])
  in
  Array.iter
    (fun (lo, hi) ->
      let answer, _ = Indexing.Instance.query_cold inst ~lo ~hi in
      Alcotest.(check int)
        (Printf.sprintf "%s: count [%d,%d]" name lo hi)
        (Indexing.Answer.cardinal ~n:inst.Indexing.Instance.n answer)
        (fst (Indexing.Instance.query_count inst ~lo ~hi)))
    ranges

(* The static index's hook answers from its directories alone: a
   whole campaign of counts decodes zero payload phases. *)
let test_count_zero_payload () =
  let sigma = 16 in
  let g = Workload.Gen.zipf ~seed:12 ~n:1024 ~sigma ~theta:1.0 () in
  let inst = Secidx.Static_index.instance (device ()) ~sigma g.Workload.Gen.data in
  let payload = Obs.Metrics.counter "phase_payload_total" in
  let before = Obs.Metrics.counter_value payload in
  Array.iter
    (fun (lo, hi) -> ignore (Indexing.Instance.query_count inst ~lo ~hi))
    (Array.append (edge_batch sigma) (random_batch ~seed:3 ~sigma ~k:33));
  Alcotest.(check int)
    "zero payload phases" 0
    (Obs.Metrics.counter_value payload - before)

(* The planner itself: clamping, dedup order, slot mapping, interval
   merging. *)
let test_plan () =
  let plan =
    Indexing.Batch.normalize ~sigma:8
      [| (3, 5); (9, 12); (-2, 1); (3, 5); (6, 2); (0, 7) |]
  in
  Alcotest.(check int) "queries" 6 plan.Indexing.Batch.queries;
  Alcotest.(check (list (pair int int)))
    "uniq sorted, clamped, deduped"
    [ (0, 1); (0, 7); (3, 5) ]
    (Array.to_list plan.Indexing.Batch.uniq);
  Alcotest.(check (list int))
    "slots" [ 2; -1; 0; 2; -1; 1 ]
    (Array.to_list plan.Indexing.Batch.class_of);
  Alcotest.(check (list (pair int int)))
    "merged intervals"
    [ (0, 7) ]
    (Indexing.Batch.merged_intervals plan);
  Alcotest.(check (list (pair int int)))
    "disjoint intervals stay split"
    [ (0, 2); (4, 5) ]
    (Indexing.Batch.merged_intervals
       (Indexing.Batch.normalize ~sigma:8 [| (0, 1); (1, 2); (4, 5) |]))

(* The CI contract, stated explicitly: every builder in the shared
   table is differentially batch-tested above.  Trivially true while
   [builders] is generated from the registry; fails loudly if someone
   reintroduces a hand-maintained list that lags the table. *)
let test_registry_covered () =
  let tested = List.map fst builders in
  List.iter
    (fun b ->
      if not (List.mem b.Registry.b_name tested) then
        Alcotest.failf "builder %S missing from batch differential suite"
          b.Registry.b_name)
    Registry.all;
  Alcotest.(check bool) "table non-trivial" true (List.length Registry.all >= 16)

let suite =
  Alcotest.test_case "batch planner" `Quick test_plan
  :: Alcotest.test_case "registry fully covered" `Quick test_registry_covered
  :: Alcotest.test_case "count hook decodes no payload" `Quick
       test_count_zero_payload
  :: List.concat_map
       (fun b ->
         [
           Alcotest.test_case
             (Printf.sprintf "batch = loop (%s)" (fst b))
             `Quick (test_one b);
           Alcotest.test_case
             (Printf.sprintf "count = cardinal (%s)" (fst b))
             `Quick (test_count b);
         ])
       builders
