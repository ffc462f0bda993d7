(* update_mix: WAL updates beside reads.

   A [Wal.Store] with the default config over n = 65,536 Zipf(1.0)
   characters (sigma = 256).  The WAL device has no pool, so every WAL
   write is a block transfer; the index device has a 1024-block pool.
   One client runs a closed loop: a group commit of 32 operations (80%
   Set, 10% Append, 10% Delete) through [Store.update_batch] - the point
   where they are acknowledged - then one narrow range query over the
   live state through [Store.query].

   Why: writes next to reads on the same [Stream_table]/decoder path.
   A read-side gain that costs writes, or adds compaction stalls, shows
   up here. *)

open Probe
module Store = Wal.Store

let n = 65_536
let sigma = 256
let block_bits = 1024
let pool_blocks = 1024
let group = 32
let pass_cycles = 512

(* The ground truth: the string with every acknowledged operation
   applied; deleted positions hold [sigma], outside every query. *)
type oracle = { mutable chars : int array; mutable len : int }

let apply o = function
  | Wal.Op.Set { pos; ch } -> o.chars.(pos) <- ch
  | Wal.Op.Delete { pos } -> o.chars.(pos) <- sigma
  | Wal.Op.Append { ch } ->
      if o.len = Array.length o.chars then begin
        let b = Array.make (2 * o.len) sigma in
        Array.blit o.chars 0 b 0 o.len;
        o.chars <- b
      end;
      o.chars.(o.len) <- ch;
      o.len <- o.len + 1

let expected o ~lo ~hi =
  let acc = ref [] in
  for p = o.len - 1 downto 0 do
    let c = o.chars.(p) in
    if c >= lo && c <= hi then acc := p :: !acc
  done;
  Cbitmap.Posting.of_sorted_array (Array.of_list !acc)

(* One client cycle's group of operations, valid against the current
   length.  Drawn from [rng] only, so the sequence is a function of the
   seed. *)
let next_ops rng zipf len =
  let below = Hashing.Universal.Rng.below rng in
  let len = ref len in
  let ops =
    List.init group (fun _ ->
        let u = below 10 in
        if u < 8 then
          Wal.Op.Set { pos = below !len; ch = Workload.Gen.Alias.draw zipf rng }
        else if u = 8 then begin
          incr len;
          Wal.Op.Append { ch = Workload.Gen.Alias.draw zipf rng }
        end
        else Wal.Op.Delete { pos = below !len })
  in
  ops

(* The pass's queries, one per cycle: widths 1-8 in turn, offsets
   stratified over the alphabet. *)
let make_queries ~seed =
  let rng = Hashing.Universal.Rng.create ~seed:((seed * 4241) + 11) in
  let f = strata rng pass_cycles in
  Array.init pass_cycles (fun i ->
      let w = 1 + (i mod 8) in
      let lo = int_of_float (f.(i) *. float_of_int (sigma - w + 1)) in
      (lo, lo + w - 1))

let setup data =
  let wal_device = Iosim.Device.create ~block_bits ~mem_bits:0 () in
  let index_device =
    Iosim.Device.create ~block_bits ~mem_bits:(pool_blocks * block_bits) ()
  in
  let store =
    Store.create ~wal_device ~index_device Store.default_config ~sigma ~data
  in
  (* Warm the index pool with one query per character. *)
  for c = 0 to sigma - 1 do
    ignore (Store.query store ~lo:c ~hi:c)
  done;
  store

let run ~seed ~seconds ~trace ~spans =
  let data =
    (Workload.Gen.zipf ~permute:false ~seed ~n ~sigma ~theta:1.0 ())
      .Workload.Gen.data
  in
  let zipf =
    Workload.Gen.Alias.create (Workload.Gen.zipf_weights ~sigma ~theta:1.0)
  in
  let queries = make_queries ~seed in
  let attempted = ref 0 and failed = ref 0 in
  (* One closed loop: whole passes of [pass_cycles] cycles until the
     time is up, and at least [setups] of them.  Each pass replays the
     seed's cycles on a fresh store.  A cycle's cost grows with the ops
     its store has taken, so only whole passes are measured: the run's
     mix of early and late cycles, and with it every latency quantile,
     does not depend on where the clock happened to stop.  Each pass's
     set-up is timed into [setup_times]: one set-up takes about 20 ms,
     so set-ups spread over the whole run are steadier than a burst of
     them at its start.  [commit] and [query] time their call; oracle
     work sits between them.  Returns the last pass's store and
     oracle. *)
  let loop ~setup_times ~commit ~query ~pass_end =
    let deadline = now_ns () + int_of_float (seconds *. 1e9) in
    let pass = ref 0 and last = ref None in
    while !pass < setups || now_ns () < deadline do
      settle ();
      let t0 = now_ns () in
      let st = setup data in
      Samples.add setup_times (float_of_int (now_ns () - t0) /. 1e9);
      let o = { chars = Array.copy data; len = n } in
      let rng = Hashing.Universal.Rng.create ~seed:((seed * 6151) + 5) in
      settle ();
      for k = 0 to pass_cycles - 1 do
        let ops = next_ops rng zipf o.len and lo, hi = queries.(k) in
        attempted := !attempted + group + 1;
        (match commit st ops with
        | () -> ()
        | exception _ -> failed := !failed + group);
        List.iter (apply o) ops;
        match query st ~lo ~hi with
        | a ->
            let got = Indexing.Answer.to_posting ~n:(Store.n st) a in
            if not (Cbitmap.Posting.equal got (expected o ~lo ~hi)) then
              incr failed
        | exception _ -> incr failed
      done;
      pass_end !pass st;
      last := Some (st, o);
      incr pass
    done;
    Option.get !last
  in
  let devices st = [ Store.wal_device st; Store.index_device st ] in

  (* Untraced run. *)
  let cycle_ns = Samples.create () and commit_ns = Samples.create ()
  and query_ns = Samples.create () in
  let pending = ref 0 in
  let commit_io = io_zero () and query_io = io_zero () in
  let first_pass = ref true in
  let pass_stats = ref (0, 0, 0, 0) in
  let setup_times = Samples.create () in
  let st, o =
    loop ~setup_times
      ~commit:(fun st ops ->
        let io0 = io_snapshot (devices st) in
        let t0 = now_ns () in
        Fun.protect
          ~finally:(fun () ->
            pending := now_ns () - t0;
            if !first_pass then
              io_add commit_io (io_sub (io_snapshot (devices st)) io0))
          (fun () -> Store.update_batch st ops))
      ~query:(fun st ~lo ~hi ->
        let devs = [ Store.index_device st ] in
        let io0 = io_snapshot devs in
        let t0 = now_ns () in
        Fun.protect
          ~finally:(fun () ->
            let q = now_ns () - t0 in
            Samples.add commit_ns (float_of_int !pending);
            Samples.add query_ns (float_of_int q);
            Samples.add cycle_ns (float_of_int (!pending + q));
            if !first_pass then io_add query_io (io_sub (io_snapshot devs) io0))
          (fun () -> Store.query st ~lo ~hi))
      ~pass_end:(fun p st ->
        if p = 0 then begin
          first_pass := false;
          pass_stats :=
            (Store.size_bits st, Store.n st, Store.flushes st, Store.compactions st)
        end)
  in
  let size_bits, n_pass, flushes, compactions = !pass_stats in
  (* Durability: rebuild from the last store's WAL device alone and
     compare with the oracle of every acknowledged operation. *)
  let durable =
    match
      Wal.Recovery.recover Store.default_config ~sigma ~data (Store.wal_device st)
    with
    | exception _ -> false
    | rec_store, replayed ->
        replayed = Store.acked st
        && Store.n rec_store = o.len
        && List.for_all
             (fun (lo, hi) ->
               Cbitmap.Posting.equal
                 (Indexing.Answer.to_posting ~n:o.len
                    (Store.query rec_store ~lo ~hi))
                 (expected o ~lo ~hi))
             ((0, sigma - 1) :: List.init 64 (fun k -> (k * 4, (k * 4) + 3)))
  in
  let cycles = Samples.count cycle_ns in
  let per_s count ns = float_of_int count /. (Samples.sum ns /. 1e9) in
  let pass_ops = float_of_int (pass_cycles * group) in
  let per_cycle x = float_of_int x /. float_of_int pass_cycles in
  let e2e =
    Outcome.
      [
        m "setup_s" "s" (Samples.quantile setup_times 0.5);
        m "latency_p50_ms" "ms" (ms_of_ns (Samples.quantile cycle_ns 0.5));
        m "latency_p99_ms" "ms" (ms_of_ns (Samples.quantile cycle_ns 0.99));
        m "throughput_ops_per_s" "1/s" (per_s (cycles * (group + 1)) cycle_ns);
        m "throughput_qps" "1/s" (per_s cycles cycle_ns);
        m "bits_per_symbol" "bits" (float_of_int size_bits /. float_of_int n_pass);
        m "bits_read_per_query" "bits" (per_cycle query_io.bits_read);
        m "blocks_per_query" "count"
          (per_cycle (query_io.block_reads + query_io.pool_hits));
        m "ios_per_query" "count" (per_cycle (Iosim.Stats.ios query_io));
        m "query_p50_ms" "ms" (ms_of_ns (Samples.quantile query_ns 0.5));
        m "query_p99_ms" "ms" (ms_of_ns (Samples.quantile query_ns 0.99));
        m "update_ops_per_s" "1/s" (per_s (cycles * group) commit_ns);
        m "update_p50_ms" "ms" (ms_of_ns (Samples.quantile commit_ns 0.5));
        m "update_p99_ms" "ms" (ms_of_ns (Samples.quantile commit_ns 0.99));
        m "ios_per_update" "count"
          (float_of_int (Iosim.Stats.ios commit_io) /. pass_ops);
        m "bits_written_per_op" "bits"
          (float_of_int commit_io.bits_written /. pass_ops);
      ]
  in
  let context =
    [
      ("n", string_of_int n);
      ("sigma", string_of_int sigma);
      ("data", "Zipf(1.0), ranks in alphabet order");
      ( "index_blocks_vs_pool_blocks",
        Printf.sprintf "%s at the end of a pass; WAL device: no pool"
          (Outcome.blocks_vs_pool
             ~blocks:(blocks_used (Store.index_device st))
             ~pool:pool_blocks) );
      ( "flush_policy",
        "group commit of 32 ops is the acknowledgement point; the WAL device \
         has no pool, so every WAL write is a block transfer" );
      ( "config",
        let c = Store.default_config in
        Printf.sprintf
          "flush_threshold %d, fanout %d, gap payload, retry_attempts %d"
          c.flush_threshold c.fanout c.retry_attempts );
      ( "client",
        Printf.sprintf
          "1, closed loop: commit 32 ops (80%% Set, 10%% Append, 10%% \
           Delete), then 1 query; passes of %d cycles on fresh stores"
          pass_cycles );
      ( "pass",
        Printf.sprintf "%d flushes, %d compactions" flushes compactions );
      ("requests_timed", string_of_int cycles);
    ]
  in

  (* Traced run: the same passes from the start. *)
  let layers, checks =
    if not trace then ([], [])
    else begin
      let tr = tracer () in
      let l_update = layer "wal.update_batch"
      and l_query = layer "wal.query"
      and l_answer = layer "answer.to_posting" in
      let stall = ref 0 and runs = Samples.create () in
      let ins = inside () and compressed = ref 0 in
      let latency = Samples.create () and pending = ref 0 in
      let flushes = ref 0 and compactions = ref 0 in
      (* Device totals move over each pass's cycles, not over the
         set-up of its store: sum their movement pass by pass. *)
      let window = io_zero () and dev_sum = io_zero () in
      let pass_start = ref None in
      let req = ref 0 in
      let t_start = now_ns () in
      let _ : Store.t * oracle =
        loop ~setup_times:(Samples.create ())
          ~commit:(fun st ops ->
            if !pass_start = None then
              pass_start := Some (totals_now (), io_snapshot (devices st));
            let before = Store.compactions st in
            let (), _, ns =
              call tr l_update ~req:!req ~parent:(-1) ~devices:(devices st)
                ~resets:false (fun () -> Store.update_batch st ops)
            in
            pending := ns;
            if Store.compactions st > before then stall := !stall + ns)
          ~query:(fun st ~lo ~hi ->
            Samples.add runs
              (float_of_int (List.fold_left ( + ) 0 (Store.level_counts st)));
            let a, qid, ns =
              observe ins (fun () ->
                  call tr l_query ~req:!req ~parent:(-1)
                    ~devices:[ Store.index_device st ] ~resets:false (fun () ->
                      Store.query st ~lo ~hi))
            in
            compressed := !compressed + Indexing.Answer.compressed_bits a;
            Samples.add latency (float_of_int (!pending + ns));
            ignore
              (call tr l_answer ~req:!req ~parent:qid ~devices:[] ~resets:false
                 (fun () -> Indexing.Answer.to_posting ~n:(Store.n st) a));
            incr req;
            a)
          ~pass_end:(fun _ st ->
            Option.iter
              (fun (t0, d0) ->
                io_add window (totals_since t0);
                io_add dev_sum (io_sub (io_snapshot (devices st)) d0))
              !pass_start;
            pass_start := None;
            flushes := !flushes + Store.flushes st;
            compactions := !compactions + Store.compactions st)
      in
      let traced_ns = float_of_int (now_ns () - t_start) in
      let sum_ok =
        totals_match window tr.all_io && Iosim.Stats.equal dev_sum tr.all_io
      in
      let ncycles = calls l_update in
      let nops = ncycles * (group + 1) in
      let per_kop x = 1000.0 *. float_of_int x /. float_of_int (ncycles * group) in
      let layers =
        Outcome.
          [
            m "wal.update_batch_ns" "ns" (mean_ns l_update);
            m "wal.compaction_stall_ns" "ns" (ratio !stall ncycles);
            m "wal.flushes_per_kop" "count" (per_kop !flushes);
            m "wal.compactions_per_kop" "count" (per_kop !compactions);
            m "wal.runs_overlaid" "count" (Samples.mean runs);
            m "wal.query_ns" "ns" (mean_ns l_query);
            m "answer.to_posting_ns" "ns" (mean_ns l_answer);
          ]
        @ inside_metrics ins ~queries:ncycles
        @ cost_metrics ~ops:nops
            ~read_amp:(ratio l_query.io.bits_read !compressed)
            ~io:[ l_update; l_query ] ~gc:[ l_update; l_query ]
        @ overhead_metrics
            ~untraced_p50:(Samples.quantile cycle_ns 0.5)
            ~traced_p50:(Samples.quantile latency 0.5)
            ~untraced_per_op:
              (Samples.sum cycle_ns /. float_of_int (cycles * (group + 1)))
            ~traced_per_op:(traced_ns /. float_of_int nops)
      in
      Option.iter (write_spans tr) spans;
      (layers, [ ("per-call device deltas sum to device totals", sum_ok) ])
    end
  in
  {
    Outcome.attempted = !attempted;
    failed = !failed;
    checks = ("recovery from the WAL device matches the oracle", durable) :: checks;
    context;
    e2e;
    layers;
  }
