/**
 * @file
 * DPP data plane: the Worker (Section III-B1).
 *
 * Stateless and *tenant-agnostic*: a Worker only talks to the
 * FleetScheduler (fleet.h) multiplexing one or more sessions — to
 * fetch splits and per-tenant transform programs — and to whoever
 * drains its buffer (to serve tensors). Every grant
 * names the tenant it belongs to; the Worker keys its split progress
 * by (tenant, split), compiles and caches one transform graph per
 * tenant per thread, and echoes the tenant on every lifecycle call,
 * so one worker can interleave splits from many sessions. Per split
 * it runs the full online ETL: extract (read + decrypt + decompress +
 * decode + feature-filter the stored stripes), transform (apply the
 * compiled graph per mini-batch), and partially load (batch rows into
 * ready-to-load tensors buffered in memory).
 *
 * One split lifecycle, two callers. Every split runs through the same
 * stage functions — acquire (ask the control plane for a grant), open
 * (file tail + footer), extractNext (the per-stripe checks, then one
 * stripe read), close (finish, hand back, or abandon) — and every
 * decoded stripe through the same transform stage. Only the caller
 * differs:
 *
 *  - **Synchronous** (`num_extract_threads == num_transform_threads
 *    == 0`, the default): each pump() is one step of those stages on
 *    the caller's thread — at most one stripe extracted and
 *    transformed. Used by deterministic tests and single-threaded
 *    drivers.
 *
 *  - **Parallel** (either knob > 0): start() launches the pipelined
 *    data plane the paper describes — production workers run *many*
 *    extract/transform threads per node (Sections III-B1, VI-C). N
 *    extract threads each loop acquire → open → extractNext → push →
 *    close, feeding decoded stripes into a bounded queue; M transform
 *    threads pop stripes, apply a per-thread compiled graph per
 *    mini-batch, and append to the byte-capped tensor buffer,
 *    blocking when trainers fall behind (backpressure instead of
 *    OOM). stop() aborts and joins cleanly; natural end-of-work
 *    drains and quiesces on its own.
 *
 * Thread safety: popTensor(), drained(), buffered(), bufferedBytes(),
 * bufferFull(), and the stats/metrics accessors are safe to call from
 * any thread concurrently with a running pipeline (stats totals are
 * folded in per transformed stripe and per closed split, so read them
 * for exact values only after drained()). pump() is NOT
 * thread-safe and must not be mixed with start().
 */

#ifndef DSI_DPP_WORKER_H
#define DSI_DPP_WORKER_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/bounded_queue.h"
#include "common/deadline.h"
#include "common/metrics.h"
#include "common/pool.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "dpp/autoscaler.h"
#include "dpp/spec.h"
#include "transforms/graph.h"
#include "warehouse/table.h"

namespace dsi::dpp {

class FleetScheduler;

/** A preprocessed, ready-to-load tensor batch. */
struct TensorBatch
{
    dwrf::RowBatch data;
    Bytes bytes = 0; ///< materialized tensor payload size

    // Provenance, for exactly-once delivery: per tenant,
    // (split_id, first_row) identifies a batch across replays,
    // because batch slicing is a deterministic function of the
    // split's stripes and batch_size.
    TenantId tenant = 0;
    uint64_t split_id = 0;
    RowId first_row = 0;

    /** Relative stripe (0-based within the split) this batch is from. */
    uint32_t stripe = 0;

    /**
     * True on the final batch sliced from its stripe. Delivery of
     * this batch means the whole stripe reached a trainer (slicing is
     * deterministic and per-worker delivery is FIFO), which is what
     * advances the Master's resume watermark
     * (Master::noteStripeDelivered).
     */
    bool last_in_stripe = false;

    /** Worker-local split attempt number (internal bookkeeping). */
    uint64_t epoch = 0;

    /**
     * Lineage: the transform-stripe span this batch was sliced in
     * (itself a child of the split's master.grant span). The client's
     * delivery span parents on it. kNoSpan when tracing is off.
     */
    trace::SpanId trace = trace::kNoSpan;
};

/** Worker tuning knobs. */
struct WorkerOptions
{
    /** Target depth of the in-memory tensor buffer. */
    size_t buffer_capacity = 16;

    /**
     * Byte cap on buffered tensors (0 = unlimited). Production
     * workers bound memory to avoid OOM — the reason RM3's thread
     * pool is limited (Section VI-C).
     */
    Bytes buffer_bytes_capacity = 0;

    /** Verify stream checksums during extraction. */
    bool verify_checksums = true;

    /**
     * Extract (read+decrypt+decompress+decode) threads. 0 with
     * num_transform_threads == 0 selects the synchronous pump() mode;
     * otherwise both stages get at least one thread.
     */
    uint32_t num_extract_threads = 0;

    /** Transform (compiled graph per mini-batch) threads. */
    uint32_t num_transform_threads = 0;

    /**
     * Capacity (in stripes) of the extract -> transform hand-off
     * queue; the second backpressure point of the pipeline.
     */
    size_t stripe_queue_capacity = 8;

    /**
     * Max idle stripe batches retained for reuse. Recycled batches
     * keep their columns' heap capacity across stripes (the reader
     * reuses it), cutting per-stripe allocation churn. Sized to cover
     * the queue plus every in-flight stage by default.
     */
    size_t stripe_pool_max_idle = 16;

    /**
     * Cap on heap bytes the idle stripe pool may pin (0 = unbounded).
     * Pooled batches keep the column capacity of the largest stripe
     * they ever carried, so without a cap one huge stripe inflates
     * the worker's footprint forever; over the cap the pool evicts
     * idle batches oldest-first (shrink-on-release). Published as the
     * worker.stripe_pool_retained_bytes gauge.
     */
    Bytes stripe_pool_retained_bytes = 256_MiB;

    /**
     * RecD-style batch dedup: before transforming each mini-batch,
     * collapse rows with identical feature payloads (labels excluded)
     * to their unique representatives, run the transform graph once
     * per unique row, and expand back via the inverse index with the
     * original labels restored. Byte-identical output (the dedup
     * differential test proves it), applied only when every op in the
     * tenant's graph is row-local — graphs containing Sampling are
     * bypassed and counted in worker.dedup_bypassed_batches.
     */
    bool dedup_enabled = false;
};

/** One DPP worker process. */
class Worker
{
  public:
    /**
     * `control` is the fleet this worker pulls splits from (an
     * InProcessSession is a one-tenant fleet). All tenants' data must
     * live in `warehouse` (a fleet shares one warehouse across its
     * sessions, as production DPP does).
     */
    Worker(FleetScheduler &control,
           const warehouse::Warehouse &warehouse,
           WorkerOptions options = {});

    /** Joins pipeline threads (equivalent to stop()). */
    ~Worker();

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    WorkerId id() const { return id_; }

    /** True when the options request the threaded data plane. */
    bool parallel() const
    {
        return options_.num_extract_threads > 0 ||
               options_.num_transform_threads > 0;
    }

    /**
     * Launch the pipeline threads (parallel mode only; call once).
     * Returns immediately; progress is observable through popTensor()
     * and drained().
     */
    void start();

    /**
     * Abort and join the pipeline: closes the stripe queue, wakes
     * blocked producers, and joins every thread. In-flight splits are
     * NOT completed (the Master requeues them via failWorker, exactly
     * as when a production worker dies). Idempotent; safe on a
     * never-started or already-quiesced worker.
     */
    void stop();

    /**
     * Synchronous mode only: one step of the split lifecycle on the
     * caller's thread — if the buffer has room, extract and transform
     * one *stripe* of the held split (acquiring and opening a new
     * split when none is held); the split closes with its last
     * stripe. Heartbeats on every call. Returns false when the
     * session has no more work for this worker (the buffer may still
     * hold tensors).
     */
    bool pump();

    /**
     * True when no work remains and the buffer is empty. In parallel
     * mode this additionally means every pipeline thread has
     * quiesced (all stripes transformed, stats folded in).
     */
    bool drained() const;

    /**
     * Graceful scale-down: stop acquiring new splits, finish (and
     * deliver) everything already held, then quiesce. The session
     * retires the worker once drained() turns true — no split is
     * abandoned and no delivered row is lost, unlike stop(). Safe in
     * both modes; idempotent.
     *
     * With `release_held` (preemption): instead of finishing held
     * splits, hand them back to the control plane at the next stripe
     * boundary (releaseSplit — requeued with no attempt penalty).
     * Tensors already buffered are still delivered, and the epoch /
     * ledger machinery dedupes any overlap when another worker
     * replays the split — so preempting a worker frees its capacity
     * quickly without breaking exactly-once.
     */
    void beginDrain(bool release_held = false);
    bool draining() const { return draining_; }

    /**
     * Load snapshot for the auto-scaler (what a production worker
     * piggybacks on its periodic report RPC).
     */
    WorkerReport report() const;

    /**
     * True once the worker.crash fault point fired on this worker.
     * A crashed worker stops producing, serves no tensors (its
     * buffered batches are lost), and no longer heartbeats — so its
     * fleet lease expires (or, without a lease, the fleet recycles it
     * at once) and its splits requeue at their Masters.
     */
    bool crashed() const { return crashed_; }

    /**
     * Clients pop tensors over (simulated) RPC. Thread-safe. Returns
     * nullopt when empty or crashed. A split is reported complete to
     * the Master only after its *last buffered tensor is delivered* —
     * so a worker dying with undelivered tensors loses nothing: the
     * split stays in flight and is replayed elsewhere.
     */
    std::optional<TensorBatch> popTensor();

    size_t buffered() const;
    Bytes bufferedBytes() const;
    bool bufferFull() const;

    /** Cumulative extraction stats across processed splits. */
    const dwrf::ReadStats &readStats() const { return read_stats_; }
    const transforms::TransformStats &transformStats() const
    {
        return transform_stats_;
    }
    const Metrics &metrics() const { return metrics_; }

    // Ground-truth stripe-pool counters (tests compare these against
    // the published worker.stripe_pool_* gauges, which must stay
    // consistent even on crash/abandon exits).
    uint64_t stripePoolAllocated() const
    {
        return stripe_pool_.allocated();
    }
    uint64_t stripePoolReused() const { return stripe_pool_.reused(); }
    Bytes stripePoolRetainedBytes() const
    {
        return stripe_pool_.retainedBytes();
    }

  private:
    /**
     * One decoded stripe handed from extract to transform. The batch
     * is held by pointer so the queue hand-off moves one word — never
     * the column data — and so the transform stage can recycle the
     * batch through stripe_pool_ when it is done.
     */
    struct ExtractedStripe
    {
        std::unique_ptr<dwrf::RowBatch> rows;
        TenantId tenant = 0;
        uint64_t split_id = 0;
        RowId first_row = 0;
        uint32_t stripe = 0; ///< relative stripe within the split
        uint64_t epoch = 0;
        trace::SpanId trace = trace::kNoSpan; ///< grant span
    };

    /** Splits are tracked per tenant: ids collide across sessions. */
    using SplitKey = std::pair<TenantId, uint64_t>;

    /**
     * Per-split delivery tracking (guarded by progress_mutex_). A
     * split completes at the Master only when extraction finished,
     * every stripe was transformed, and every buffered tensor was
     * popped by a client. `epoch` distinguishes attempts, so leftover
     * tensors of an abandoned earlier attempt cannot corrupt the
     * accounting of a retry.
     */
    struct SplitProgress
    {
        uint32_t stripes_total = 0;
        uint32_t stripes_transformed = 0;
        uint64_t tensors_buffered = 0;
        uint64_t epoch = 0;
        bool extraction_done = false;
    };

    /**
     * The split lifecycle's cursor: one held grant, from acquire() to
     * close(). Extract threads keep theirs on the stack; pump() keeps
     * one across calls.
     */
    struct HeldSplit
    {
        Split split;
        TenantId tenant = 0;
        Deadline deadline;                    ///< the grant's budget
        trace::SpanId trace = trace::kNoSpan; ///< grant span
        uint64_t epoch = 0;
        std::unique_ptr<dwrf::RandomAccessSource> source;
        std::unique_ptr<dwrf::FileReader> reader;
        uint32_t next_stripe = 0; ///< relative to split.first_stripe
        Metrics metrics;          ///< extract-side counts, folded by close()

        SplitKey key() const { return {tenant, split.id}; }
        bool exhausted() const
        {
            return next_stripe >= split.stripe_count;
        }
    };

    /** Outcome of a lifecycle stage for the held split. */
    enum class SplitEnd
    {
        Producing, ///< still held: a stripe was (or may be) extracted
        Finished,  ///< every stripe extracted; completion awaits delivery
        Released,  ///< hand back (preempted / budget spent): releaseSplit
        Abandoned, ///< unreadable data: failSplit
        Aborted,   ///< stopped or crashed: left in flight for recovery
    };

    /** What acquire() got from the control plane. */
    enum class Acquired
    {
        Split,  ///< a grant is held
        Retry,  ///< shed or standby: ask again later
        NoWork, ///< idle out (or rejected as a zombie)
    };

    /**
     * One transform lane's compiled programs, per tenant: the pump
     * thread owns one, and so does each transform thread. Compiled ops
     * hold per-instance state (e.g. the Sampling counter), so a graph
     * is never shared across lanes.
     */
    using GraphCache =
        std::map<TenantId, std::unique_ptr<transforms::CompiledGraph>>;

    // Split-progress bookkeeping (both modes). None of these hold
    // progress_mutex_ while calling into the control plane or the
    // buffer.
    uint64_t beginSplit(SplitKey key, uint32_t stripes_total);
    void noteTensorEnqueued(SplitKey key, uint64_t epoch);
    void noteTensorUnqueued(SplitKey key, uint64_t epoch);
    void noteTensorDelivered(SplitKey key, uint64_t epoch);
    void noteStripeTransformed(SplitKey key, uint64_t epoch);
    void finishExtraction(SplitKey key, uint64_t epoch);
    void maybeCompleteSplit(SplitKey key);
    /** Give up on a split (unreadable data): failSplit + cleanup. */
    void abandonSplit(SplitKey key);
    /** Hand a split back (deadline/drain): releaseSplit + cleanup. */
    void returnSplit(SplitKey key);

    /** Simulate this worker process dying (worker.crash fault). */
    void crash();

    // The split lifecycle (both modes): pump() runs one step of it per
    // call, each extract thread loops over it.

    /** Ask the control plane for a split; on a grant, `held` holds it. */
    Acquired acquire(std::optional<HeldSplit> &held);

    /** Start the attempt and open the split's file (Abandoned: unreadable). */
    SplitEnd open(HeldSplit &held);

    /**
     * Extract the held split's next stripe into `out` (Producing), or
     * report why the split stops. Checks, in order: stripes left →
     * stop/crash → worker.crash fault point → handback → heartbeat →
     * deadline → extractStripe.
     */
    SplitEnd extractNext(HeldSplit &held, ExtractedStripe &out);

    /**
     * End the held split's extraction: fold its read stats and
     * metrics, then finishExtraction (Finished), returnSplit
     * (Released) or abandonSplit (Abandoned); Aborted does neither.
     */
    void close(HeldSplit &held, SplitEnd end);

    // Parallel pipeline threads.
    uint32_t extractThreadCount() const;
    uint32_t transformThreadCount() const;
    void extractLoop();
    void transformLoop();

    /**
     * Read + inject one stripe of the held split into `out` (which
     * may hold a recycled batch; the reader strips and reuses its
     * capacity). Not Ok when the stripe is unreadable after the
     * reader's own retries, or when the read budget expired mid-
     * stripe.
     */
    dwrf::ReadStatus extractStripe(HeldSplit &held, uint32_t stripe_index,
                                   dwrf::RowBatch &out) const;

    /**
     * Publish stripe-pool counters as worker gauges. Called at every
     * split terminal state (complete, abandon, return) and at crash /
     * pipeline exit, so the gauges never go stale on failure paths.
     */
    void publishPoolMetrics();

    /**
     * `tenant`'s deserialized transform program, fetched from the
     * control plane and cached on first use (thread-safe).
     */
    const transforms::TransformGraph &programFor(TenantId tenant);

    /**
     * The transform stage (both modes): slice a stripe into
     * mini-batch tensors through `graphs`' program for its tenant,
     * recycle the stripe, fold the stage's stats and metrics, and
     * count the stripe toward its split if every tensor was buffered
     * (not stopped/crashed mid-way).
     */
    void transformStripe(ExtractedStripe &work, GraphCache &graphs);

    bool bufferFullLocked() const;
    /**
     * Append a tensor to the buffer; false if stopped or crashed. Once
     * pipeline threads run, this waits for room under the caps; the
     * pump thread never waits (it checked for room before extracting).
     */
    bool pushTensor(TensorBatch tensor, trace::SpanId parent);
    void mergeReadStats(const dwrf::ReadStats &rs);

    FleetScheduler &control_;
    const warehouse::Warehouse &warehouse_;
    WorkerOptions options_;
    WorkerId id_;

    // Per-tenant transform programs, deserialized lazily on first
    // grant from that tenant (a fleet worker cannot know its tenants
    // up front). Map nodes are stable, so references returned by
    // programFor() stay valid while threads compile private copies.
    mutable std::mutex program_mutex_;
    std::map<TenantId, transforms::TransformGraph> programs_;

    // Tensor buffer (the partial-load stage). Guarded by buffer_mutex_.
    mutable std::mutex buffer_mutex_;
    std::condition_variable space_available_;
    std::deque<TensorBatch> buffer_;
    Bytes buffered_bytes_ = 0;
    bool no_more_work_ = false; ///< production finished (both modes)

    // Parallel pipeline state.
    std::unique_ptr<ThreadPool> pool_;
    std::unique_ptr<BoundedQueue<ExtractedStripe>> stripe_queue_;
    ObjectPool<dwrf::RowBatch> stripe_pool_;
    std::atomic<bool> stop_requested_{false};
    std::atomic<bool> draining_{false}; ///< graceful scale-down
    std::atomic<bool> handback_{false}; ///< preempted: release held
    std::atomic<bool> crashed_{false};
    std::atomic<uint32_t> active_extractors_{0};
    std::atomic<uint32_t> active_transformers_{0};

    // Delivery-tracked split progress (exactly-once completion).
    mutable std::mutex progress_mutex_;
    std::map<SplitKey, SplitProgress> split_progress_;
    uint64_t next_epoch_ = 1; ///< guarded by progress_mutex_

    // pump()'s lifecycle state: its held split (extract threads keep
    // theirs on the stack) and its transform lane's graphs.
    std::optional<HeldSplit> pump_split_;
    GraphCache pump_graphs_;

    // Cumulative stats; stages fold in under stats_mutex_.
    mutable std::mutex stats_mutex_;
    dwrf::ReadStats read_stats_;
    transforms::TransformStats transform_stats_;
    Metrics metrics_;
};

} // namespace dsi::dpp

#endif // DSI_DPP_WORKER_H
