(* Differential tests for the cost-based planner (PR 10): every plan
   the optimizer can pick must produce exactly [Ridint.Table.naive]'s
   answer, COUNT queries must agree with the exact cardinality while
   decoding zero payload bits on the directory fast path, and the
   fixed smallest-first rule, run as a plan, must agree with both. *)

let qcheck = QCheck_alcotest.to_alcotest

let device ?(block_bits = 256) ?(mem_blocks = 256) () =
  Iosim.Device.create ~block_bits ~mem_bits:(mem_blocks * block_bits) ()

let mk_columns ~seed ~rows =
  let rng = Hashing.Universal.Rng.create ~seed in
  [
    {
      Ridint.Table.name = "age";
      sigma = 64;
      values = Array.init rows (fun _ -> Hashing.Universal.Rng.below rng 64);
    };
    {
      Ridint.Table.name = "sex";
      sigma = 2;
      values = Array.init rows (fun _ -> Hashing.Universal.Rng.below rng 2);
    };
    {
      Ridint.Table.name = "status";
      sigma = 8;
      values = Array.init rows (fun _ -> Hashing.Universal.Rng.below rng 8);
    };
  ]

(* Reference answer for an AST query: lower every predicate to ranges
   by hand and scan. *)
let naive_rows table (q : Planner.Ast.query) =
  let nq =
    Planner.Ast.normalize ~sigma_of:(Ridint.Table.col_sigma table) q
  in
  let n = Ridint.Table.rows table in
  let hit row =
    Planner.Ast.matches nq (fun c -> Ridint.Table.cell table ~column:c ~row)
  in
  let acc = ref [] in
  for row = n - 1 downto 0 do
    if (not nq.empty) && hit row then acc := row :: !acc
  done;
  Cbitmap.Posting.of_list !acc

(* The fixed smallest-first rule, exact or at [epsilon], run cold. *)
let fixed_rule ?epsilon t conds =
  Planner.Ast.of_conditions conds
  |> Planner.Ast.normalize ~sigma_of:(Ridint.Table.col_sigma t)
  |> Planner.Plan.smallest_first ?epsilon t
  |> Planner.Exec.execute t

(* --- normalization --- *)

let test_normalize () =
  let sigma_of = function "a" -> 16 | "b" -> 4 | c -> failwith c in
  let nq =
    Planner.Ast.normalize ~sigma_of
      (Planner.Ast.conj
         [
           Planner.Ast.member "a" [ 9; 3; 5; 4; 3; 99; -1 ];
           Planner.Ast.range "a" ~lo:0 ~hi:12;
           Planner.Ast.range "b" ~lo:0 ~hi:3;
         ])
  in
  Alcotest.(check bool) "not empty" false nq.empty;
  (match nq.columns with
  | [ ("a", rs) ] ->
      Alcotest.(check (list (pair int int)))
        "member coalesced and clamped"
        [ (3, 5); (9, 9) ]
        rs
  | cols ->
      Alcotest.failf "expected one effective column, got %d"
        (List.length cols));
  (* full-alphabet column dropped entirely *)
  let nq2 =
    Planner.Ast.normalize ~sigma_of
      (Planner.Ast.conj [ Planner.Ast.range "b" ~lo:(-5) ~hi:100 ])
  in
  Alcotest.(check int) "trivial dropped" 0 (List.length nq2.columns);
  (* contradiction on one column empties the conjunction *)
  let nq3 =
    Planner.Ast.normalize ~sigma_of
      (Planner.Ast.conj
         [ Planner.Ast.point "a" 3; Planner.Ast.point "a" 7 ])
  in
  Alcotest.(check bool) "contradiction empty" true nq3.empty

(* --- differential: planner = naive, across table variants --- *)

let query_gen =
  QCheck.make
    ~print:(fun (seed, rows, lo, hi, v, vs) ->
      Printf.sprintf "seed=%d rows=%d age=[%d..%d] sex=%d status=%s" seed rows
        lo hi v
        (String.concat "," (List.map string_of_int vs)))
    QCheck.Gen.(
      int_range 0 1000 >>= fun seed ->
      int_range 10 300 >>= fun rows ->
      int_range 0 63 >>= fun a ->
      int_range 0 63 >>= fun b ->
      int_range 0 1 >>= fun v ->
      list_size (int_range 0 5) (int_range 0 7) >>= fun vs ->
      return (seed, rows, min a b, max a b, v, vs))

let ast_query ?(kind = Planner.Ast.Rows) lo hi v vs =
  Planner.Ast.conj ~kind
    (Planner.Ast.range "age" ~lo ~hi
     :: Planner.Ast.point "sex" v
     ::
     (match vs with [] -> [] | vs -> [ Planner.Ast.member "status" vs ]))

let mk_table ~variant ~seed ~rows =
  let cols = mk_columns ~seed ~rows in
  match variant with
  | `Exact -> Ridint.Table.create (device ()) cols
  | `Exact_stored_hybrid ->
      Ridint.Table.create ~payload:`Hybrid ~store_rows:true (device ()) cols
  | `Approx ->
      Ridint.Table.create_approx ~seed:(seed + 7) (device ()) cols
  | `Approx_stored ->
      Ridint.Table.create_approx ~seed:(seed + 7) ~store_rows:true (device ())
        cols

let prop_planner_matches_naive variant name =
  QCheck.Test.make ~count:40 ~name query_gen
    (fun (seed, rows, lo, hi, v, vs) ->
      let t = mk_table ~variant ~seed ~rows in
      let q = ast_query lo hi v vs in
      let out = Planner.Exec.run t q in
      Cbitmap.Posting.equal (Option.get out.rows) (naive_rows t q))

(* Degenerate shapes: empty range, single condition, unconstrained. *)
let test_shapes () =
  let t = mk_table ~variant:`Exact ~seed:11 ~rows:200 in
  let run q = Planner.Exec.run t q in
  let empty =
    run (Planner.Ast.conj [ Planner.Ast.range "age" ~lo:40 ~hi:10 ])
  in
  Alcotest.(check int) "empty range -> no rows" 0 empty.count;
  (match empty.plan.shape with
  | Planner.Plan.Const_empty -> ()
  | _ -> Alcotest.fail "expected Const_empty");
  let all = run (Planner.Ast.conj []) in
  Alcotest.(check int) "no predicates -> all rows" 200 all.count;
  let single =
    run (Planner.Ast.conj [ Planner.Ast.range "age" ~lo:10 ~hi:20 ])
  in
  Alcotest.(check bool)
    "single condition matches naive" true
    (Cbitmap.Posting.equal
       (Option.get single.rows)
       (naive_rows t (Planner.Ast.conj [ Planner.Ast.range "age" ~lo:10 ~hi:20 ])))

(* --- COUNT --- *)

let prop_count_matches_cardinality variant name =
  QCheck.Test.make ~count:40 ~name query_gen
    (fun (seed, rows, lo, hi, v, vs) ->
      let t = mk_table ~variant ~seed ~rows in
      let q = ast_query ~kind:Planner.Ast.Count lo hi v vs in
      let out = Planner.Exec.run t q in
      out.rows = None
      && out.count
         = Cbitmap.Posting.cardinal
             (naive_rows t (ast_query lo hi v vs)))

(* Single-column COUNT must come from the directory alone: zero
   payload bits decoded (the phase counter does not move) and only a
   handful of probe reads. *)
let test_count_zero_payload () =
  let t = mk_table ~variant:`Exact ~seed:3 ~rows:4000 in
  let payload = Obs.Metrics.counter "phase_payload_total" in
  let q =
    Planner.Ast.conj ~kind:Planner.Ast.Count
      [
        Planner.Ast.range "age" ~lo:5 ~hi:40;
        Planner.Ast.member "age" [ 7; 8; 9; 30; 31; 50 ];
      ]
  in
  let before = Obs.Metrics.counter_value payload in
  let out = Planner.Exec.run t q in
  let after = Obs.Metrics.counter_value payload in
  (match out.plan.shape with
  | Planner.Plan.Count_directory _ -> ()
  | _ -> Alcotest.fail "expected the directory COUNT fast path");
  Alcotest.(check int) "zero payload phases" 0 (after - before);
  Alcotest.(check int)
    "count = exact cardinality"
    (Cbitmap.Posting.cardinal
       (naive_rows t
          (Planner.Ast.conj
             [
               Planner.Ast.range "age" ~lo:5 ~hi:40;
               Planner.Ast.member "age" [ 7; 8; 9; 30; 31; 50 ];
             ])))
    out.count;
  Alcotest.(check bool)
    "only directory-probe reads" true
    (out.stats.Iosim.Stats.bits_read < 512)

(* --- ε sweep: a calibrated planner stays exact at every ε the grid
   can pick, on the approx+stored table where prefilters are live --- *)

let test_epsilon_sweep () =
  let t = mk_table ~variant:`Approx_stored ~seed:21 ~rows:1500 in
  let cost = Planner.Cost.calibrate t in
  List.iter
    (fun (lo, hi) ->
      let q = ast_query lo hi 1 [ 2; 3; 4 ] in
      let out = Planner.Exec.run ~cost t q in
      Alcotest.(check bool)
        (Printf.sprintf "exact at age=[%d..%d] (%s)" lo hi
           (Planner.Plan.describe out.plan))
        true
        (Cbitmap.Posting.equal (Option.get out.rows) (naive_rows t q)))
    [ (0, 0); (0, 7); (10, 40); (0, 62); (5, 5) ]

(* --- planner vs fixed smallest-first baseline: on a skewed query the
   chosen plan must not cost more I/O than decoding every predicate
   exactly --- *)

let test_planner_not_worse_than_baseline () =
  let rows = 4000 in
  let t = mk_table ~variant:`Approx_stored ~seed:5 ~rows in
  let cost = Planner.Cost.calibrate t in
  let conds =
    [
      { Ridint.Table.column = "age"; lo = 3; hi = 3 };
      { Ridint.Table.column = "sex"; lo = 1; hi = 1 };
      { Ridint.Table.column = "status"; lo = 2; hi = 6 };
    ]
  in
  let baseline = fixed_rule t conds in
  let out = Planner.Exec.run ~cost t (Planner.Ast.of_conditions conds) in
  Alcotest.(check bool)
    "same rows" true
    (Cbitmap.Posting.equal (Option.get baseline.rows) (Option.get out.rows));
  let b = Iosim.Stats.ios baseline.stats and p = Iosim.Stats.ios out.stats in
  if p > b then
    Alcotest.failf "planner used more I/O than baseline: %d > %d (%s)" p b
      (Planner.Plan.describe out.plan)

(* --- the fixed rule as a plan: exact and approximate variants agree
   with the naive scan, and execution leaves the planning probes out of
   its counters --- *)

let test_fixed_rule_plans () =
  let t = mk_table ~variant:`Approx ~seed:9 ~rows:800 in
  let conds =
    [
      { Ridint.Table.column = "age"; lo = 10; hi = 30 };
      { Ridint.Table.column = "sex"; lo = 0; hi = 0 };
    ]
  in
  let expect = Ridint.Table.naive t conds in
  let exact = fixed_rule t conds in
  Alcotest.(check bool)
    "exact rule = naive" true
    (Cbitmap.Posting.equal (Option.get exact.rows) expect);
  Alcotest.(check bool) "some I/O counted" true (Iosim.Stats.ios exact.stats > 0);
  (match exact.plan.shape with
  | Planner.Plan.Scan { driver; steps } ->
      Alcotest.(check string) "smallest column drives" "age" driver.column;
      Alcotest.(check bool)
        "every other column exact" true
        (List.for_all
           (fun (s : Planner.Plan.step) -> s.action = Planner.Plan.Exact_inter)
           steps)
  | _ -> Alcotest.fail "expected a scan");
  let approx = fixed_rule ~epsilon:0.1 t conds in
  Alcotest.(check bool)
    "approx rule verifies to naive" true
    (Cbitmap.Posting.equal (Option.get approx.rows) expect);
  Alcotest.(check bool) "candidates counted" true (approx.checked >= approx.count);
  Alcotest.(check bool) "approx I/O counted" true (Iosim.Stats.ios approx.stats > 0);
  (* [execute] measures the same plan identically every time: the
     probes that built it are not charged. *)
  let again = Planner.Exec.execute t exact.plan in
  Alcotest.(check int)
    "execute excludes probes" (Iosim.Stats.ios exact.stats)
    (Iosim.Stats.ios again.stats);
  Alcotest.check_raises "epsilon needs approximate indexes"
    (Invalid_argument "Plan.smallest_first: built without approx") (fun () ->
      let exact_only = mk_table ~variant:`Exact ~seed:9 ~rows:50 in
      ignore (fixed_rule ~epsilon:0.1 exact_only conds))

let suite =
  [
    Alcotest.test_case "normalization" `Quick test_normalize;
    Alcotest.test_case "degenerate shapes" `Quick test_shapes;
    Alcotest.test_case "count fast path decodes zero payload" `Quick
      test_count_zero_payload;
    Alcotest.test_case "epsilon sweep stays exact" `Quick test_epsilon_sweep;
    Alcotest.test_case "planner not worse than baseline" `Quick
      test_planner_not_worse_than_baseline;
    Alcotest.test_case "fixed rule as plans" `Quick test_fixed_rule_plans;
    qcheck (prop_planner_matches_naive `Exact "planner = naive (exact table)");
    qcheck
      (prop_planner_matches_naive `Exact_stored_hybrid
         "planner = naive (hybrid payload, stored rows)");
    qcheck (prop_planner_matches_naive `Approx "planner = naive (approx table)");
    qcheck
      (prop_planner_matches_naive `Approx_stored
         "planner = naive (approx, stored rows)");
    qcheck
      (prop_count_matches_cardinality `Exact
         "count = cardinality (exact table)");
    qcheck
      (prop_count_matches_cardinality `Approx_stored
         "count = cardinality (approx, stored rows)");
  ]
