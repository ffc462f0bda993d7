(* serve_warm: warm sharded serving.

   A static index over n = 65,536 Zipf(1.0) characters (sigma = 256)
   cut into two position shards, each on its own device whose
   1024-block pool holds the whole shard, served by a [Serve.Router] in
   [Domains] mode (one worker domain per shard).  One client runs a
   closed loop: it sends a batch of 16 queries through
   [Router.query_batch] and waits for the answers before sending the
   next.

   Why: this is the CPU- and GC-bound serving path.  There are almost
   no block misses, and decode sharing across the queries of a batch is
   heavy.  Why closed loop: the router's caller waits for every batch,
   and open-loop p99 on two shared cores is dominated by bursts, so it
   would not repeat.

   Queries come from [Workload.Traffic]'s 64 Zipf-popular templates.
   The traffic drifts through 256 epochs of one batch, each epoch with
   its own 64 templates, so that one run's cost does not hang on which
   few templates one seed happens to make popular.  The data's Zipf
   ranks are in alphabet order, so the hot characters sit at the same
   place for every seed. *)

open Probe
module Router = Serve.Router
module Shard = Serve.Shard

let n = 65_536
let sigma = 256
let nshards = 2
let block_bits = 1024
let pool_blocks = 1024
let batch = 16
let pass_batches = 256
let warm_batches = 32

let device () =
  Iosim.Device.create ~pool_policy:`Segmented ~block_bits
    ~mem_bits:(pool_blocks * block_bits) ()

let static_instance d ~sigma x = Secidx.Static_index.instance d ~sigma x

(* One pass: batch [e] holds 16 queries of epoch [e]'s traffic. *)
let make_batches ~seed =
  Array.init pass_batches (fun e ->
      (Workload.Traffic.make ~seed:((seed * 1009) + e) ~sigma ~templates:64
         ~theta:1.0 ~count:batch ~rate:1.0 ())
        .Workload.Traffic.queries)

(* Set-up: build the shards, spawn the router's domains, and warm the
   shard pools with a point query per character and the first
   [warm_batches] batches of the pass. *)
let setup data batches =
  let shards =
    Shard.build ~shards:nshards ~make_device:(fun _ -> device ())
      ~build:static_instance ~sigma data
  in
  let router = Router.create ~mode:Router.Domains shards in
  for b = 0 to (sigma / batch) - 1 do
    ignore
      (Router.query_batch router
         (Array.init batch (fun i -> ((b * batch) + i, (b * batch) + i))))
  done;
  for b = 0 to warm_batches - 1 do
    ignore (Router.query_batch router batches.(b))
  done;
  router

let run ~seed ~seconds ~trace ~spans =
  let data =
    (Workload.Gen.zipf ~permute:false ~seed ~n ~sigma ~theta:1.0 ())
      .Workload.Gen.data
  in
  let batches = make_batches ~seed in
  let setup_s, router =
    time_setups ~release:Router.shutdown (fun () -> setup data batches)
  in
  let shards = Router.shards router in
  let devices = Array.to_list shards |> List.filter_map Shard.device in
  (* Oracle: the unsharded instance answers every distinct range of the
     pass, in batches of 64, before the timed loop. *)
  let expected = Hashtbl.create 4096 in
  Array.iter (Array.iter (fun r -> Hashtbl.replace expected r (0, 0))) batches;
  let distinct = Array.of_seq (Hashtbl.to_seq_keys expected) in
  let whole = static_instance (device ()) ~sigma data in
  let nd = Array.length distinct in
  for c = 0 to (nd - 1) / 64 do
    let chunk = Array.sub distinct (c * 64) (min 64 (nd - (c * 64))) in
    Array.iteri
      (fun i a ->
        Hashtbl.replace expected chunk.(i)
          (Outcome.check (Indexing.Answer.to_posting ~n a)))
      (fst (Indexing.Instance.query_batch whole chunk))
  done;
  let attempted = ref 0 and failed = ref 0 in
  let issue ranges f =
    attempted := !attempted + Array.length ranges;
    match f () with
    | answers ->
        Array.iteri
          (fun i p ->
            if Outcome.check p <> Hashtbl.find expected ranges.(i) then
              incr failed)
          answers
    | exception _ -> failed := !failed + Array.length ranges
  in

  (* Untraced closed loop.  At least one whole pass runs, so the count
     metrics below always cover the same operations. *)
  let lat = Samples.create () in
  let io0 = io_snapshot devices in
  let pass_io = ref (io_zero ()) in
  let b = ref 0 in
  settle ();
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  while !b < pass_batches || now_ns () < deadline do
    let ranges = batches.(!b mod pass_batches) in
    issue ranges (fun () ->
        let t0 = now_ns () in
        let answers = Router.query_batch router ranges in
        Samples.add lat (float_of_int (now_ns () - t0));
        answers);
    incr b;
    if !b = pass_batches then pass_io := io_sub (io_snapshot devices) io0
  done;
  let pass_io = !pass_io in
  let per_pass_query x = float_of_int x /. float_of_int (pass_batches * batch) in
  let queries = float_of_int (Samples.count lat * batch) in
  let request_s = Samples.sum lat /. 1e9 in
  let size_bits =
    Array.fold_left
      (fun acc s ->
        match Shard.instance s with
        | Some i -> acc + i.Indexing.Instance.size_bits
        | None -> acc)
      0 shards
  in
  let e2e =
    Outcome.
      [
        m "setup_s" "s" setup_s;
        m "latency_p50_ms" "ms" (ms_of_ns (Samples.quantile lat 0.5));
        m "latency_p99_ms" "ms" (ms_of_ns (Samples.quantile lat 0.99));
        m "throughput_ops_per_s" "1/s" (queries /. request_s);
        m "throughput_qps" "1/s" (queries /. request_s);
        m "bits_per_symbol" "bits" (float_of_int size_bits /. float_of_int n);
        m "bits_read_per_query" "bits" (per_pass_query pass_io.bits_read);
        m "blocks_per_query" "count"
          (per_pass_query (pass_io.block_reads + pass_io.pool_hits));
        m "ios_per_query" "count" (per_pass_query (Iosim.Stats.ios pass_io));
      ]
  in
  let context =
    [
      ("n", string_of_int n);
      ("sigma", string_of_int sigma);
      ("data", "Zipf(1.0), ranks in alphabet order");
      ( "shards",
        Printf.sprintf "%d, Router Domains mode (%d worker domains)" nshards
          (Router.domains_used router) );
      ( "index_blocks_vs_pool_blocks",
        String.concat ", "
          (List.mapi
             (fun i d ->
               Printf.sprintf "shard %d: %s" i
                 (Outcome.blocks_vs_pool ~blocks:(blocks_used d) ~pool:pool_blocks))
             devices) );
      ("client", "1, closed loop, batches of 16 queries");
      ( "traffic",
        Printf.sprintf "%d epochs x 64 Zipf(1.0) templates, %d queries per pass"
          pass_batches (pass_batches * batch) );
      ("requests_timed", string_of_int (Samples.count lat));
    ]
  in

  (* Traced run: the same batches from the start, each replayed one
     layer at a time on this domain. *)
  let layers, checks =
    if not trace then ([], [])
    else begin
      let tr = tracer () in
      let l_router = layer "router.query_batch"
      and l_shard = layer "shard.run_batch"
      and l_inst = layer "instance.query_batch_warm"
      and l_answer = layer "answer.to_posting" in
      let self_ns = Samples.create () and imbalance = Samples.create () in
      let ins = inside () and compressed = ref 0 in
      let totals0 = totals_now () and dev0 = io_snapshot devices in
      let b = ref 0 in
      let t_start = now_ns () in
      let deadline = t_start + int_of_float (seconds *. 1e9) in
      while !b < 1 || now_ns () < deadline do
        let req = !b in
        let ranges = batches.(req mod pass_batches) in
        issue ranges (fun () ->
            let answers, rid, rns =
              call tr l_router ~req ~parent:(-1) ~devices ~resets:false
                (fun () -> Router.query_batch router ranges)
            in
            let shard_ns =
              Array.map
                (fun s ->
                  match (Shard.instance s, Shard.device s) with
                  | Some inst, Some d ->
                      let _, sid, sns =
                        call tr l_shard ~req ~parent:rid ~devices:[ d ]
                          ~resets:false (fun () -> Shard.run_batch s ranges)
                      in
                      let local, iid, _ =
                        observe ins (fun () ->
                            call tr l_inst ~req ~parent:sid ~devices:[ d ]
                              ~resets:false (fun () ->
                                Indexing.Instance.query_batch_warm inst ranges))
                      in
                      Array.iter
                        (fun a ->
                          compressed :=
                            !compressed + Indexing.Answer.compressed_bits a;
                          ignore
                            (call tr l_answer ~req ~parent:iid ~devices:[]
                               ~resets:false (fun () ->
                                 Indexing.Answer.to_posting ~n:(Shard.len s) a)))
                        local;
                      float_of_int sns
                  | _ -> 0.0)
                shards
            in
            let slowest = Array.fold_left max 0.0 shard_ns in
            let mean =
              Array.fold_left ( +. ) 0.0 shard_ns /. float_of_int nshards
            in
            Samples.add self_ns (float_of_int rns -. slowest);
            if mean > 0.0 then Samples.add imbalance (slowest /. mean);
            answers);
        incr b
      done;
      let traced_ns = float_of_int (now_ns () - t_start) in
      let sum_ok =
        totals_match (totals_since totals0) tr.all_io
        && Iosim.Stats.equal (io_sub (io_snapshot devices) dev0) tr.all_io
      in
      let nq = calls l_router * batch in
      let layers =
        Outcome.
          [
            m "router.query_batch_ns" "ns" (mean_ns l_router);
            m "router.self_ns" "ns" (Samples.mean self_ns);
            m "shard.run_batch_ns" "ns" (mean_ns l_shard);
            m "shard.imbalance" "ratio" (Samples.quantile imbalance 0.5);
            m "instance.batch_warm_ns" "ns" (mean_ns l_inst);
            m "answer.to_posting_ns" "ns" (mean_ns l_answer);
          ]
        @ inside_metrics ins ~queries:nq
        (* The request's own device cost is the router call's; its
           allocation is the router's merge on this domain plus each
           shard's batch, which the workers do in the untraced run. *)
        @ cost_metrics ~ops:nq
            ~read_amp:(ratio l_inst.io.bits_read !compressed)
            ~io:[ l_router ] ~gc:[ l_router; l_shard ]
        @ overhead_metrics
            ~untraced_p50:(Samples.quantile lat 0.5)
            ~traced_p50:(Samples.quantile l_router.ns 0.5)
            ~untraced_per_op:(request_s *. 1e9 /. queries)
            ~traced_per_op:(traced_ns /. float_of_int nq)
      in
      Option.iter (write_spans tr) spans;
      (layers, [ ("per-call device deltas sum to device totals", sum_ok) ])
    end
  in
  Router.shutdown router;
  { Outcome.attempted = !attempted; failed = !failed; checks; context; e2e; layers }
