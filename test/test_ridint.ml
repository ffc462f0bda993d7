(* Tests for the RID-intersection application (§1, §3). *)

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
      sigma = 4;
      values = Array.init rows (fun _ -> Hashing.Universal.Rng.below rng 4);
    };
  ]

let conds_gen =
  QCheck.make
    ~print:(fun (seed, rows, a_lo, a_hi) ->
      Printf.sprintf "seed=%d rows=%d age=[%d..%d]" seed rows a_lo a_hi)
    QCheck.Gen.(
      int_range 0 1000 >>= fun seed ->
      int_range 10 400 >>= fun rows ->
      int_range 0 63 >>= fun a ->
      int_range 0 63 >>= fun b ->
      return (seed, rows, min a b, max a b))

let conditions a_lo a_hi =
  [
    { Ridint.Table.column = "age"; lo = a_lo; hi = a_hi };
    { Ridint.Table.column = "sex"; lo = 1; hi = 1 };
    { Ridint.Table.column = "status"; lo = 2; hi = 3 };
  ]

(* The fixed smallest-first rule, exact or at [epsilon], run cold. *)
let fixed_rule ?epsilon t conds =
  Planner.Ast.of_conditions conds
  |> Planner.Ast.normalize ~sigma_of:(Ridint.Table.col_sigma t)
  |> Planner.Plan.smallest_first ?epsilon t
  |> Planner.Exec.execute t

let rows_of (out : Planner.Exec.outcome) = Option.get out.rows

let prop_query_matches_naive =
  QCheck.Test.make ~count:60 ~name:"conjunctive query = naive scan" conds_gen
    (fun (seed, rows, a_lo, a_hi) ->
      let t = Ridint.Table.create (device ()) (mk_columns ~seed ~rows) in
      let conds = conditions a_lo a_hi in
      let expect = Ridint.Table.naive t conds in
      Cbitmap.Posting.equal (rows_of (fixed_rule t conds)) expect
      && Cbitmap.Posting.equal
           (rows_of (Planner.Exec.run t (Planner.Ast.of_conditions conds)))
           expect)

let prop_approx_verified_equals_naive =
  QCheck.Test.make ~count:30
    ~name:"approximate query verifies to the exact answer" conds_gen
    (fun (seed, rows, a_lo, a_hi) ->
      let t =
        Ridint.Table.create_approx ~seed:(seed + 1) (device ())
          (mk_columns ~seed ~rows)
      in
      let conds = conditions a_lo a_hi in
      let out = fixed_rule ~epsilon:0.1 t conds in
      out.checked >= out.count
      && Cbitmap.Posting.equal (rows_of out) (Ridint.Table.naive t conds))

let prop_at_least =
  QCheck.Test.make ~count:40 ~name:"at-least-k matches naive counting"
    conds_gen
    (fun (seed, rows, a_lo, a_hi) ->
      let t = Ridint.Table.create (device ()) (mk_columns ~seed ~rows) in
      let conds = conditions a_lo a_hi in
      let got = Ridint.Table.query_at_least t ~k:2 conds in
      (* Reference: count satisfied conditions per row. *)
      let expected = ref [] in
      for row = rows - 1 downto 0 do
        let sat =
          List.length
            (List.filter
               (fun (c : Ridint.Table.condition) ->
                 let col =
                   List.find
                     (fun (col : Ridint.Table.column) -> col.name = c.column)
                     (Array.to_list (Ridint.Table.columns t))
                 in
                 col.values.(row) >= c.lo && col.values.(row) <= c.hi)
               conds)
        in
        if sat >= 2 then expected := row :: !expected
      done;
      Cbitmap.Posting.equal got (Cbitmap.Posting.of_list !expected))

let test_empty_conditions () =
  let t = Ridint.Table.create (device ()) (mk_columns ~seed:3 ~rows:20) in
  let all = Ridint.Table.naive t [] in
  Alcotest.(check int) "naive: all rows" 20 (Cbitmap.Posting.cardinal all);
  List.iter
    (fun (name, out) ->
      Alcotest.(check bool) name true (Cbitmap.Posting.equal (rows_of out) all))
    [
      ("fixed rule: all rows", fixed_rule t []);
      ("planner: all rows", Planner.Exec.run t (Planner.Ast.of_conditions []));
    ]

let test_unknown_column () =
  let t = Ridint.Table.create (device ()) (mk_columns ~seed:4 ~rows:10) in
  let conds = [ { Ridint.Table.column = "height"; lo = 0; hi = 1 } ] in
  Alcotest.check_raises "fixed rule: unknown column"
    (Invalid_argument "Table: unknown column height") (fun () ->
      ignore (fixed_rule t conds));
  Alcotest.check_raises "planner: unknown column"
    (Invalid_argument "Table: unknown column height") (fun () ->
      ignore (Planner.Exec.run t (Planner.Ast.of_conditions conds)))

let test_approx_reduces_io () =
  (* The point of §3: intersecting approximate answers reads fewer
     bits than intersecting exact ones when selectivity is low.
     n = 2^16 keeps moderate z/epsilon on the hashed path. *)
  let rows = 65536 in
  let rng = Hashing.Universal.Rng.create ~seed:77 in
  let cols =
    [
      {
        Ridint.Table.name = "a";
        sigma = 4096;
        values = Array.init rows (fun _ -> Hashing.Universal.Rng.below rng 4096);
      };
      {
        Ridint.Table.name = "b";
        sigma = 4096;
        values = Array.init rows (fun _ -> Hashing.Universal.Rng.below rng 4096);
      };
    ]
  in
  let dev = device ~block_bits:1024 ~mem_blocks:1024 () in
  let t = Ridint.Table.create_approx ~seed:5 dev cols in
  let conds =
    [
      { Ridint.Table.column = "a"; lo = 100; hi = 100 };
      { Ridint.Table.column = "b"; lo = 200; hi = 200 };
    ]
  in
  let exact = fixed_rule t conds in
  let approx = fixed_rule ~epsilon:0.1 t conds in
  let exact_bits = exact.stats.Iosim.Stats.bits_read
  and approx_bits = approx.stats.Iosim.Stats.bits_read in
  Alcotest.(check bool)
    "same answer" true
    (Cbitmap.Posting.equal (rows_of exact) (rows_of approx));
  if not (approx_bits < exact_bits) then
    Alcotest.failf "approx read more: %d vs %d bits" approx_bits exact_bits

let suite =
  [
    qcheck prop_query_matches_naive;
    qcheck prop_approx_verified_equals_naive;
    qcheck prop_at_least;
    Alcotest.test_case "empty conditions" `Quick test_empty_conditions;
    Alcotest.test_case "unknown column" `Quick test_unknown_column;
    Alcotest.test_case "approximate intersection reads less" `Quick
      test_approx_reduces_io;
  ]

let prop_at_least_approx =
  QCheck.Test.make ~count:20 ~name:"approximate at-least-k verifies to exact"
    conds_gen
    (fun (seed, rows, a_lo, a_hi) ->
      let t =
        Ridint.Table.create_approx ~seed:(seed + 2) (device ())
          (mk_columns ~seed ~rows)
      in
      let conds = conditions a_lo a_hi in
      let exact = Ridint.Table.query_at_least t ~k:2 conds in
      let approx, checked =
        Ridint.Table.query_at_least_approx t ~epsilon:0.2 ~k:2 conds
      in
      checked >= Cbitmap.Posting.cardinal approx
      && Cbitmap.Posting.equal exact approx)

(* Verification of approximate partial-match candidates reads the
   stored row: on the same data, the stored-rows table pays at least
   one field read per condition per checked candidate beyond the
   in-memory table, and the answers agree. *)
let test_at_least_approx_charges_verification () =
  let cols = mk_columns ~seed:31 ~rows:600 in
  let conds = conditions 10 40 in
  let run store_rows =
    let dev = device ~mem_blocks:0 () in
    let t = Ridint.Table.create_approx ~seed:32 ~store_rows dev cols in
    Iosim.Device.clear_pool dev;
    Iosim.Device.reset_stats dev;
    let rows, checked =
      Ridint.Table.query_at_least_approx t ~epsilon:0.2 ~k:2 conds
    in
    (rows, checked, (Iosim.Device.stats dev).Iosim.Stats.bits_read, t)
  in
  let mem_rows, mem_checked, mem_bits, _ = run false in
  let rows, checked, bits, t = run true in
  Alcotest.(check bool) "same answer" true (Cbitmap.Posting.equal mem_rows rows);
  Alcotest.(check int) "same candidates" mem_checked checked;
  Alcotest.(check bool) "some candidates" true (checked > 0);
  let field_bits =
    List.fold_left
      (fun acc (c : Ridint.Table.condition) ->
        acc + Indexing.Common.bits_for (max 2 (Ridint.Table.col_sigma t c.column)))
      0 conds
  in
  if bits - mem_bits < checked * field_bits then
    Alcotest.failf "verification not charged: %d - %d bits < %d candidates x %d"
      bits mem_bits checked field_bits

let suite =
  suite
  @ [
      qcheck prop_at_least_approx;
      Alcotest.test_case "charged at-least-k verification"
        `Quick test_at_least_approx_charges_verification;
    ]
