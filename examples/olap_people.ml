(* The paper's motivating example (§1): "in a database of people we
   may want to find all married men of age 33", answered by RID
   intersection of three one-dimensional secondary indexes — exactly,
   and approximately with Bloom-filter-style answers (§3).

     dune exec examples/olap_people.exe *)

module Rng = Hashing.Universal.Rng

let () =
  let rows = 65536 in
  let rng = Rng.create ~seed:2026 in
  (* age 0..99 (skewed towards working age), sex 0/1, marital status
     0=single 1=married 2=divorced 3=widowed, income decile 0..9. *)
  let age =
    Array.init rows (fun _ -> 18 + ((Rng.below rng 50 + Rng.below rng 50) / 2))
  in
  let sex = Array.init rows (fun _ -> Rng.below rng 2) in
  let status = Array.init rows (fun _ -> Rng.below rng 4) in
  let income = Array.init rows (fun _ -> Rng.below rng 10) in
  let columns =
    [
      { Ridint.Table.name = "age"; sigma = 100; values = age };
      { Ridint.Table.name = "sex"; sigma = 2; values = sex };
      { Ridint.Table.name = "status"; sigma = 4; values = status };
      { Ridint.Table.name = "income"; sigma = 10; values = income };
    ]
  in
  let device =
    Iosim.Device.create ~block_bits:1024 ~mem_bits:(1024 * 1024) ()
  in
  let table = Ridint.Table.create_approx ~seed:7 device columns in
  Format.printf "people table: %d rows, indexes use %d KiB@." rows
    (Ridint.Table.size_bits table / 8192);

  let married_men_33 =
    [
      { Ridint.Table.column = "age"; lo = 33; hi = 33 };
      { Ridint.Table.column = "sex"; lo = 1; hi = 1 };
      { Ridint.Table.column = "status"; lo = 1; hi = 1 };
    ]
  in

  (* The fixed smallest-first rule as a plan: decode the rarest
     condition's RIDs, then intersect the others — exactly, or through
     the approximate answers and a verification of the survivors
     (§3). *)
  let fixed_rule ?epsilon conds =
    Planner.Ast.of_conditions conds
    |> Planner.Ast.normalize ~sigma_of:(Ridint.Table.col_sigma table)
    |> Planner.Plan.smallest_first ?epsilon table
    |> Planner.Exec.execute table
  in
  let exact = fixed_rule married_men_33 in
  Format.printf "exact:  %d married men of age 33  (%d block reads, %d bits)@."
    exact.count exact.stats.Iosim.Stats.block_reads
    exact.stats.Iosim.Stats.bits_read;
  let approx = fixed_rule ~epsilon:0.05 married_men_33 in
  Format.printf
    "approx: %d rows after verifying %d candidates (%d block reads, %d bits)@."
    approx.count approx.checked approx.stats.Iosim.Stats.block_reads
    approx.stats.Iosim.Stats.bits_read;
  assert (Option.equal Cbitmap.Posting.equal exact.rows approx.rows);

  (* A wider conjunctive query plus a partial-match query. *)
  let prosperous_middle_age =
    [
      { Ridint.Table.column = "age"; lo = 40; hi = 55 };
      { Ridint.Table.column = "income"; lo = 8; hi = 9 };
      { Ridint.Table.column = "status"; lo = 1; hi = 1 };
    ]
  in
  (* The cost-based planner picks its own plan; the answer is exact. *)
  let all =
    Option.get
      (Planner.Exec.run table
         (Planner.Ast.of_conditions prosperous_middle_age))
        .rows
  in
  let two_of_three =
    Ridint.Table.query_at_least table ~k:2 prosperous_middle_age
  in
  Format.printf
    "married 40-55 in top income: %d rows; matching >= 2 of 3 conditions: %d rows@."
    (Cbitmap.Posting.cardinal all)
    (Cbitmap.Posting.cardinal two_of_three);
  assert (Cbitmap.Posting.subset all two_of_three);
  Format.printf "olap_people: OK@."
