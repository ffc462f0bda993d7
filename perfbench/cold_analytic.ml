(* cold_analytic: cold, out-of-pool analytics.

   A [Ridint.Table] of n = 65,536 rows and three correlated columns
   ([Gen.correlated_columns], rho = 0.8, theta = 1.1, run 16), built
   with approximate indexes and stored rows on one device whose
   1024-block pool holds a sixth of the data.  Every query runs cold
   (pool cleared, counters reset).  One client, closed loop; the mix is
   50% single ranges of width 1-8 on c0 through
   [Indexing.Instance.query_cold], 40% three-column conjunctions and 10%
   COUNTs through [Planner.Exec.run].

   Why: this is the paper's I/O regime.  Work is dominated by the
   device and the planner, no work is shared between queries, and the
   serving layer is not used.

   The table is the same for every seed: it is generated from the fixed
   [table_seed], and the run's seed draws the operations.  The planner
   calibrates its cost model on the table, and fits its verification
   constant on six small answer sets.  Over five seeded tables of
   262,144 rows that constant ranged from 0.090 to 0.131, and over ten
   the plans it chose put p99 anywhere from 18 to 38 ms: a seeded table
   would make the workload's cost a property of the draw, not of the
   code.

   At 262,144 rows every timing of this workload also swung by 1.5x
   from run to run of one seed, with the load other tenants put on the
   host's memory.  At 65,536 rows the swing is about 10%, and the I/O
   regime is the same: every query starts from an empty pool. *)

open Probe
module Table = Ridint.Table

let n = 65_536
let sigma = 256
let block_bits = 1024
let pool_blocks = 1024
let pass_ops = 16_000
let table_seed = 42

type op =
  | Single of int * int
  | Conj of Planner.Ast.query * Table.condition list

let names = [ "c0"; "c1"; "c2" ]

(* The seed's operation mix: one pass of [pass_ops] operations in the
   exact 50/40/10 proportions (COUNTs split evenly between one and three
   columns), shuffled, with each kind's range offsets stratified. *)
let make_ops ~seed =
  let rng = Hashing.Universal.Rng.create ~seed:((seed * 7919) + 3) in
  let strata = strata rng in
  let range column frac w =
    let lo = int_of_float (frac *. float_of_int (sigma - w + 1)) in
    { Table.column; lo; hi = lo + w - 1 }
  in
  let narrows k =
    let f = strata k in
    Array.init k (fun i -> range "c0" f.(i) (1 + (i mod 8)))
  in
  let conjunctions k =
    let c0 = narrows k and f1 = strata k and f2 = strata k in
    Array.init k (fun i ->
        [ c0.(i); range "c1" f1.(i) (sigma / 4); range "c2" f2.(i) (sigma / 3) ])
  in
  let planned kind conds = Conj (Planner.Ast.of_conditions ~kind conds, conds) in
  let k = pass_ops / 20 in
  shuffle rng
    (Array.concat
       [
         Array.map (fun (c : Table.condition) -> Single (c.lo, c.hi)) (narrows (10 * k));
         Array.map (planned Planner.Ast.Rows) (conjunctions (8 * k));
         Array.map (fun c -> planned Planner.Ast.Count [ c ]) (narrows k);
         Array.map (planned Planner.Ast.Count) (conjunctions k);
       ])

type env = {
  table : Table.t;
  cost : Planner.Cost.t;
  c0 : Indexing.Instance.t;
}

(* c0's exact index as a uniform instance, so single ranges go through
   [Instance.query_cold] against the table's own device and index. *)
let c0_instance table =
  let idx = Table.col_index table "c0" in
  let device = Table.device table in
  {
    Indexing.Instance.name = "table-c0";
    device;
    ctx = Indexing.Context.create device;
    n;
    sigma;
    size_bits = Secidx.Static_index.size_bits idx;
    query = (fun ~lo ~hi -> Secidx.Static_index.query idx ~lo ~hi);
    count = Some (fun ~lo ~hi -> Secidx.Static_index.count idx ~lo ~hi);
    batch = Some (Secidx.Static_index.query_batch idx);
    integrity = None;
  }

let setup cols =
  let device =
    Iosim.Device.create ~block_bits ~mem_bits:(pool_blocks * block_bits) ()
  in
  let table =
    Table.create_approx ~seed:table_seed ~store_rows:true device cols
  in
  let cost = Planner.Cost.calibrate table in
  { table; cost; c0 = c0_instance table }

(* An operation's answer as the oracle checks it (COUNTs: digest 0). *)
let answer_check = function
  | `Single a -> Outcome.check (Indexing.Answer.to_posting ~n a)
  | `Planned o -> (
      match o.Planner.Exec.rows with
      | Some p -> Outcome.check p
      | None -> (0, o.Planner.Exec.count))

let run ~seed ~seconds ~trace ~spans =
  let gens =
    Workload.Gen.correlated_columns ~seed:table_seed ~n ~sigma ~cols:3
      ~rho:0.8 ~run:16 ~theta:1.1 ()
  in
  let cols =
    List.map2
      (fun name (g : Workload.Gen.t) ->
        { Table.name; sigma = g.sigma; values = g.data })
      names gens
  in
  let ops = make_ops ~seed in
  let setup_s, env = time_setups (fun () -> setup cols) in
  let device = Table.device env.table in
  (* Oracles, outside every timed region: the c0 scan for single ranges,
     [Table.naive] for conjunctions and COUNTs. *)
  let expected =
    Array.map
      (function
        | Single (lo, hi) ->
            Outcome.check (Workload.Queries.naive_answer (List.hd gens) { lo; hi })
        | Conj (q, conds) ->
            let p = Table.naive env.table conds in
            if q.Planner.Ast.kind = Planner.Ast.Count then
              (0, Cbitmap.Posting.cardinal p)
            else Outcome.check p)
      ops
  in
  let attempted = ref 0 and failed = ref 0 in
  let issue i f =
    incr attempted;
    match f () with
    | r -> if answer_check r <> expected.(i mod pass_ops) then incr failed
    | exception _ -> incr failed
  in

  (* Untraced closed loop; the first pass also feeds the count
     metrics. *)
  let lat = Samples.create () in
  let pass_io = io_zero () in
  let bound = Samples.create () in
  let i = ref 0 in
  settle ();
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  while !i < pass_ops || now_ns () < deadline do
    let first = !i < pass_ops in
    issue !i (fun () ->
        let t0 = now_ns () in
        let r, st =
          match ops.(!i mod pass_ops) with
          | Single (lo, hi) ->
              let a, st = Indexing.Instance.query_cold env.c0 ~lo ~hi in
              (`Single a, st)
          | Conj (q, _) ->
              let o = Planner.Exec.run ~cost:env.cost env.table q in
              (`Planned o, o.Planner.Exec.stats)
        in
        Samples.add lat (float_of_int (now_ns () - t0));
        if first then begin
          io_add pass_io st;
          match r with
          | `Single a ->
              let z = Indexing.Answer.cardinal ~n a in
              Samples.add bound
                (float_of_int (Iosim.Stats.ios st)
                /. Obs.Envelope.thm2_ios ~block_bits ~n ~z:(max 1 (min z (n - z))))
          | `Planned _ -> ()
        end;
        r);
    incr i
  done;
  let request_s = Samples.sum lat /. 1e9 in
  let count = float_of_int (Samples.count lat) in
  let ops_per_s = count /. request_s in
  let per_pass x = float_of_int x /. float_of_int pass_ops in
  let index_bits c = Secidx.Static_index.size_bits (Table.col_index env.table c) in
  let e2e =
    Outcome.
      [
        m "setup_s" "s" setup_s;
        m "latency_p50_ms" "ms" (ms_of_ns (Samples.quantile lat 0.5));
        m "latency_p99_ms" "ms" (ms_of_ns (Samples.quantile lat 0.99));
        m "throughput_ops_per_s" "1/s" ops_per_s;
        m "throughput_qps" "1/s" ops_per_s;
        m "bits_per_symbol" "bits"
          (float_of_int (Table.size_bits env.table) /. float_of_int (3 * n));
        m "bits_read_per_query" "bits" (per_pass pass_io.bits_read);
        m "blocks_per_query" "count" (per_pass (pass_io.block_reads + pass_io.pool_hits));
        m "ios_per_query" "count" (per_pass (Iosim.Stats.ios pass_io));
        m "bound_ratio" "ratio" (Samples.quantile bound 0.5);
      ]
  in
  let context =
    [
      ("n", string_of_int n);
      ("sigma", string_of_int sigma);
      ( "data",
        Printf.sprintf
          "3 correlated columns, rho 0.8, theta 1.1, run 16, table seed %d; \
           approximate indexes, stored rows"
          table_seed );
      ( "index_blocks_vs_pool_blocks",
        Printf.sprintf "%s; c0's static index alone: %d blocks"
          (Outcome.blocks_vs_pool ~blocks:(blocks_used device) ~pool:pool_blocks)
          ((index_bits "c0" + block_bits - 1) / block_bits) );
      ( "cost_model",
        Printf.sprintf "c_exact %.4g, c_approx %.4g, c_verify %.4g (Cost.calibrate)"
          env.cost.Planner.Cost.c_exact env.cost.c_approx env.cost.c_verify );
      ("client", "1, closed loop, every query cold");
      ( "mix",
        Printf.sprintf
          "%d ops per pass: 50%% c0 ranges of width 1-8, 40%% 3-column \
           conjunctions, 10%% COUNTs (1 or 3 columns)"
          pass_ops );
      ("requests_timed", string_of_int (Samples.count lat));
    ]
  in

  (* Traced run: the same operations from the start.  After each
     [Exec.run], [Plan.choose] is replayed on a cleared pool. *)
  let layers, checks =
    if not trace then ([], [])
    else begin
      let tr = tracer () in
      let l_cold = layer "instance.query_cold"
      and l_answer = layer "answer.to_posting"
      and l_exec = layer "planner.exec"
      and l_choose = layer "planner.choose" in
      let considered = Samples.create () and io_err = Samples.create () in
      let checked = ref 0 and kept = ref 0 in
      let ins = inside () and compressed = ref 0 in
      let latency = Samples.create () in
      let totals0 = totals_now () in
      let i = ref 0 in
      let t_start = now_ns () in
      let deadline = t_start + int_of_float (seconds *. 1e9) in
      while !i < 1 || now_ns () < deadline do
        let req = !i in
        issue req (fun () ->
            observe ins (fun () ->
                match ops.(req mod pass_ops) with
                | Single (lo, hi) ->
                    let (a, _), cid, ns =
                      call tr l_cold ~req ~parent:(-1) ~devices:[ device ]
                        ~resets:true (fun () ->
                          Indexing.Instance.query_cold env.c0 ~lo ~hi)
                    in
                    Samples.add latency (float_of_int ns);
                    compressed := !compressed + Indexing.Answer.compressed_bits a;
                    ignore
                      (call tr l_answer ~req ~parent:cid ~devices:[] ~resets:false
                         (fun () -> Indexing.Answer.to_posting ~n a));
                    `Single a
                | Conj (q, _) ->
                    let o, eid, ns =
                      call tr l_exec ~req ~parent:(-1) ~devices:[ device ]
                        ~resets:true (fun () ->
                          Planner.Exec.run ~cost:env.cost env.table q)
                    in
                    Samples.add latency (float_of_int ns);
                    Samples.add considered (float_of_int o.plan.considered);
                    Samples.add io_err
                      ((1.0 +. float_of_int (Iosim.Stats.ios o.stats))
                      /. (1.0 +. o.plan.est_ios));
                    checked := !checked + o.checked;
                    kept := !kept + o.checked - o.fp_rejected;
                    let nq =
                      Planner.Ast.normalize ~sigma_of:(Table.col_sigma env.table) q
                    in
                    Iosim.Device.clear_pool device;
                    ignore
                      (call tr l_choose ~req ~parent:eid ~devices:[ device ]
                         ~resets:false (fun () ->
                           Planner.Plan.choose env.cost env.table nq));
                    `Planned o));
        incr i
      done;
      let traced_ns = float_of_int (now_ns () - t_start) in
      let sum_ok = totals_match (totals_since totals0) tr.all_io in
      let nops = calls l_cold + calls l_exec in
      let layers =
        Outcome.
          [
            m "instance.query_cold_ns" "ns" (mean_ns l_cold);
            m "answer.to_posting_ns" "ns" (mean_ns l_answer);
            m "planner.choose_ns" "ns" (mean_ns l_choose);
            m "planner.exec_ns" "ns" (mean_ns l_exec);
            m "planner.plans_considered" "count" (Samples.mean considered);
            m "planner.verify_yield" "ratio" (ratio !kept !checked);
            m "planner.io_estimate_error" "ratio" (Samples.quantile io_err 0.5);
          ]
        @ inside_metrics ins ~queries:nops
        @ cost_metrics ~ops:nops
            ~read_amp:(ratio l_cold.io.bits_read !compressed)
            ~io:[ l_cold; l_exec ] ~gc:[ l_cold; l_exec ]
        @ overhead_metrics
            ~untraced_p50:(Samples.quantile lat 0.5)
            ~traced_p50:(Samples.quantile latency 0.5)
            ~untraced_per_op:(request_s *. 1e9 /. count)
            ~traced_per_op:(traced_ns /. float_of_int nops)
      in
      Option.iter (write_spans tr) spans;
      (layers, [ ("per-call device deltas sum to device totals", sum_ok) ])
    end
  in
  { Outcome.attempted = !attempted; failed = !failed; checks; context; e2e; layers }
