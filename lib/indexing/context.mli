(** Per-query / per-shard execution context (PR 6).

    Everything mutable that a query execution touches outside its own
    stack frame lives on the {!Iosim.Device} (stats, pool, generation);
    the context names that device.  Two shards of one logical index
    (each with its own device and its own context) can execute queries
    on two domains without sharing a single mutable word: the serving
    layer in [lib/serve] relies on exactly this.

    The context is created once per instance (so one per shard) and
    threaded through the instance's stream tables at build time, which
    refuse a context that wraps a different device. *)

type t

val create : Iosim.Device.t -> t

(** The device this context executes against.  One device = one
    shard; the device's own counters and pool are already per-shard
    state. *)
val device : t -> Iosim.Device.t
