(* Measurement primitives shared by the three workloads: a monotonic
   nanosecond clock, sample vectors with exact order statistics, device
   counter arithmetic, and the per-layer recorder of the traced run.

   Everything here sits outside the library: the benchmark times each
   layer by wrapping the layer's public entry point, and takes
   [Iosim.Stats] and [Gc] deltas around the call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Samples: a growable float vector.  Quantiles are exact order
   statistics (nearest rank), so p99 moves with every sample instead
   of snapping to a histogram bucket edge. *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  let mean t = if t.n = 0 then 0.0 else sum t /. float_of_int t.n

  let quantile t q =
    if t.n = 0 then 0.0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      let rank = int_of_float (Float.ceil (q *. float_of_int t.n)) in
      s.(max 0 (min (t.n - 1) (rank - 1)))
    end
end

(* Stratified inputs: [shuffle rng a] permutes [a] in place and returns
   it; [strata rng k] is [k] fractions in [0;1), one uniform draw in each
   of [k] equal strata, in shuffled order.  Offsets drawn this way cover
   the alphabet evenly for every seed, so a run's cost does not hang on
   how many hot ranges one seed happens to draw. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Hashing.Universal.Rng.below rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let strata rng k =
  shuffle rng
    (Array.init k (fun i ->
         (float_of_int i +. Hashing.Universal.Rng.float rng) /. float_of_int k))

(* ------------------------------------------------------------------ *)
(* Device counters. *)

let io_zero () = Iosim.Stats.create ()

let io_add acc d =
  List.iter (fun (_, get, set) -> set acc (get acc + get d)) Iosim.Stats.fields

let io_snapshot devices =
  Iosim.Stats.merge (List.map Iosim.Device.stats devices)

let io_sub after before = Iosim.Stats.diff ~before ~after

(* Blocks the device has handed out: the index's footprint in blocks. *)
let blocks_used d =
  let b = Iosim.Device.block_bits d in
  (Iosim.Device.used_bits d + b - 1) / b

(* The device layer bumps process-wide [Obs.Metrics] counters at the
   same sites as its per-device [Iosim.Stats]; they are never reset, so
   they are the device totals that per-call deltas must sum to, also
   across calls that reset the per-device counters (the cold paths). *)
let device_totals =
  List.filter_map
    (fun (name, get, set) ->
      if List.mem name [ "block_reads"; "block_writes"; "pool_hits"; "seeks" ]
      then Some (Obs.Metrics.counter ("iosim_" ^ name ^ "_total"), get, set)
      else None)
    Iosim.Stats.fields

let totals_now () =
  List.map (fun (c, _, _) -> Obs.Metrics.counter_value c) device_totals

(* The device totals' movement since [before], as counters. *)
let totals_since before =
  let s = io_zero () in
  List.iter2
    (fun (c, _, set) b -> set s (Obs.Metrics.counter_value c - b))
    device_totals before;
  s

let totals_match a b =
  List.for_all (fun (_, get, _) -> get a = get b) device_totals

(* ------------------------------------------------------------------ *)
(* Traced layer calls.

   A [layer] accumulates, over every call made through {!call}: wall
   time, the device delta, and the GC delta of the calling domain.  A
   call that resets its device's counters first (the library's cold
   paths) reports the counters it leaves behind as its delta. *)

type layer = {
  lname : string;
  ns : Samples.t;
  io : Iosim.Stats.t;
  mutable minor_words : float;
  mutable direct_major_words : float;
  mutable major_collections : int;
}

let layer lname =
  {
    lname;
    ns = Samples.create ();
    io = io_zero ();
    minor_words = 0.0;
    direct_major_words = 0.0;
    major_collections = 0;
  }

let calls l = Samples.count l.ns
let mean_ns l = Samples.mean l.ns

(* A span: one timed layer call.  Spans of one client request share
   [req]; [parent] is the index of the span of the layer above on the
   same input, or -1 for the request's outermost call. *)
type span = { req : int; name : string; parent : int; t0 : int; t1 : int }

type tracer = {
  mutable spans : span array;
  mutable nspans : int;
  all_io : Iosim.Stats.t;  (** every traced call's device delta *)
}

let tracer () =
  {
    spans = Array.make 4096 { req = 0; name = ""; parent = -1; t0 = 0; t1 = 0 };
    nspans = 0;
    all_io = io_zero ();
  }

let push tr s =
  if tr.nspans = Array.length tr.spans then begin
    let b = Array.make (2 * tr.nspans) s in
    Array.blit tr.spans 0 b 0 tr.nspans;
    tr.spans <- b
  end;
  tr.spans.(tr.nspans) <- s;
  tr.nspans <- tr.nspans + 1;
  tr.nspans - 1

(* [call tr l ~req ~parent ~devices ~resets f] runs [f] as one call of
   layer [l] and returns its result with its span index and duration in
   ns.  [devices] are the devices [f] may touch; [resets] says that [f]
   resets their counters before its first I/O. *)
let call tr l ~req ~parent ~devices ~resets f =
  let io0 = io_snapshot devices in
  let mi0, pr0, ma0 = Gc.counters () in
  let mc0 = (Gc.quick_stat ()).major_collections in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let mi1, pr1, ma1 = Gc.counters () in
  let mc1 = (Gc.quick_stat ()).major_collections in
  let io1 = io_snapshot devices in
  let d = if resets then io1 else io_sub io1 io0 in
  io_add l.io d;
  io_add tr.all_io d;
  Samples.add l.ns (float_of_int (t1 - t0));
  l.minor_words <- l.minor_words +. (mi1 -. mi0);
  l.direct_major_words <-
    l.direct_major_words +. (ma1 -. pr1 -. (ma0 -. pr0));
  l.major_collections <- l.major_collections + (mc1 - mc0);
  let id = push tr { req; name = l.lname; parent; t0; t1 } in
  (r, id, t1 - t0)

(* Spans as JSON lines, written once the run is over. *)
let write_spans tr file =
  let oc = open_out file in
  for i = 0 to tr.nspans - 1 do
    let s = tr.spans.(i) in
    Printf.fprintf oc
      "{\"id\":%d,\"req\":%d,\"name\":\"%s\",\"parent\":%d,\"t0_ns\":%d,\"t1_ns\":%d}\n"
      i s.req s.name s.parent s.t0 s.t1
  done;
  close_out oc

(* Collect set-up and oracle garbage before a timed loop starts, so the
   loop's GC work is its own. *)
let settle () = Gc.full_major ()

(* How many times a run sets up its workload; setup_s is the median. *)
let setups = 5

(* [time_setups ?release f] runs the set-up [f] [setups] times, each
   after a full collection and after [release]ing the previous result,
   and returns the median set-up time in seconds with the last result. *)
let time_setups ?(release = ignore) f =
  let s = Samples.create () in
  let last = ref None in
  for _ = 1 to setups do
    Option.iter release !last;
    last := None;
    settle ();
    let t0 = now_ns () in
    let r = f () in
    Samples.add s (float_of_int (now_ns () - t0) /. 1e9);
    last := Some r
  done;
  (Samples.quantile s 0.5, Option.get !last)

(* Library counters read around instance-layer calls in the traced run:
   the [Obs.Metrics] phase histograms ([phase_<name>_seconds], wall
   clock once [Main] installs one with [Obs.Metrics.set_clock]) and
   the batch cache counters. *)
let phase_names = [ "directory"; "rank_select"; "payload" ]

let phase_seconds () =
  List.map
    (fun p ->
      Obs.Histogram.total
        (Obs.Metrics.snapshot (Obs.Metrics.histogram ("phase_" ^ p ^ "_seconds"))))
    phase_names

let cache_requests = Obs.Metrics.counter "indexing_cache_requests_total"
let cache_hits = Obs.Metrics.counter "indexing_cache_hits_total"

type inside = {
  phase_s : float array;
  mutable cache_req : int;
  mutable cache_hit : int;
}

let inside () =
  { phase_s = Array.make (List.length phase_names) 0.0; cache_req = 0; cache_hit = 0 }

let observe ins f =
  let ph0 = phase_seconds ()
  and r0 = Obs.Metrics.counter_value cache_requests
  and h0 = Obs.Metrics.counter_value cache_hits in
  let r = f () in
  List.iteri
    (fun i d -> ins.phase_s.(i) <- ins.phase_s.(i) +. d)
    (List.map2 ( -. ) (phase_seconds ()) ph0);
  ins.cache_req <- ins.cache_req + Obs.Metrics.counter_value cache_requests - r0;
  ins.cache_hit <- ins.cache_hit + Obs.Metrics.counter_value cache_hits - h0;
  r

(* ------------------------------------------------------------------ *)
(* Per-layer metrics every traced workload reports. *)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Phase time per query and the batch cache hit rate. *)
let inside_metrics ins ~queries =
  Outcome.m "batch.cache_hit_rate" "ratio" (ratio ins.cache_hit ins.cache_req)
  :: List.mapi
       (fun i p ->
         Outcome.m ("phase." ^ p ^ "_ns") "ns"
           (ins.phase_s.(i) *. 1e9 /. float_of_int (max 1 queries)))
       phase_names

(* Device cost per operation of the layers [io], GC cost per operation
   of the layers [gc]; [read_amp] is the instance layer's bits read over
   its answers' compressed bits. *)
let cost_metrics ~ops ~read_amp ~io ~gc =
  let io =
    let s = io_zero () in
    List.iter (fun l -> io_add s l.io) io;
    s
  in
  let per_op x = x /. float_of_int ops in
  let sum f = List.fold_left (fun a l -> a +. f l) 0.0 gc in
  Outcome.
    [
      m "device.block_reads" "count" (per_op (float_of_int io.block_reads));
      m "device.block_writes" "count" (per_op (float_of_int io.block_writes));
      m "device.pool_hit_rate" "ratio"
        (ratio io.pool_hits (io.pool_hits + io.block_reads + io.block_writes));
      m "device.seeks" "count" (per_op (float_of_int io.seeks));
      m "device.bits_read" "bits" (per_op (float_of_int io.bits_read));
      m "device.read_amplification" "ratio" read_amp;
      m "gc.minor_words" "words" (per_op (sum (fun l -> l.minor_words)));
      m "gc.direct_major_words" "words" (per_op (sum (fun l -> l.direct_major_words)));
      m "gc.major_collections" "count"
        (per_op (sum (fun l -> float_of_int l.major_collections)));
    ]

(* Tracing overhead: the traced run's median request latency against
   the untraced one, and its wall time per operation (layer replays
   included) against the untraced request time per operation. *)
let overhead_metrics ~untraced_p50 ~traced_p50 ~untraced_per_op ~traced_per_op =
  Outcome.
    [
      m "trace.overhead_p50_frac" "ratio" ((traced_p50 -. untraced_p50) /. untraced_p50);
      m "trace.overhead_throughput_frac" "ratio" ((traced_per_op /. untraced_per_op) -. 1.0);
    ]
