/**
 * @file
 * In-process DPP session: one training job's Master, Worker pool and
 * trainer delivery as one runnable pipeline over the warehouse — the
 * functional counterpart of a production DPP deployment, used by
 * examples, tests, and the functional benches.
 *
 * A session is a one-tenant FleetScheduler (fleet.h), the repo's only
 * control plane: the constructor maps SessionOptions onto FleetOptions
 * and admits the session's spec as tenant 0, and run() drives the
 * fleet. Worker replacement, lease expiry, deadline sweeps, drain
 * retirement, auto-scaling, journal attach, tracing scope and delivery
 * all happen there. Mid-run Worker failure (injected or
 * lease-expired) requeues the victim's in-flight splits and launches a
 * stateless replacement, as in Section III-B1.
 *
 * Execution follows the Workers' mode (WorkerOptions in
 * SessionOptions::worker):
 *
 *  - Synchronous (default): run() cooperatively interleaves
 *    single-threaded Worker::pump() calls with delivery —
 *    deterministic, no threads.
 *  - Parallel (`num_extract_threads`/`num_transform_threads` > 0):
 *    run() start()s every Worker's pipeline threads and the calling
 *    thread becomes the trainer side, delivering until all Workers
 *    quiesce.
 */

#ifndef DSI_DPP_SESSION_H
#define DSI_DPP_SESSION_H

#include <deque>
#include <functional>
#include <vector>

#include "dpp/fleet.h"

namespace dsi::dpp {

/**
 * Storage self-healing lifecycle. With a cluster attached, the
 * session owns a background healer on it for the duration of run():
 * the scrubber and repair executor work at their configured budgets
 * while training reads proceed, and the healer is stopped (joined)
 * before run() returns. The cluster's self-healing metrics
 * (storage.*) are folded into collectMetrics().
 */
struct SelfHealOptions
{
    /** Cluster to heal (null = self-healing off). Must outlive the
     * session. */
    storage::TectonicCluster *cluster = nullptr;

    /** Scrub / repair pacing for the background healer. */
    storage::HealOptions heal;
};

/** Session-level configuration. */
struct SessionOptions
{
    uint32_t workers = 4;

    /**
     * Trainer endpoints. Delivered batches are dealt round-robin over
     * them; the sink sees which one received each batch.
     */
    uint32_t clients = 1;
    WorkerOptions worker;

    /** Pipeline-wide span tracing for this run (off by default). */
    TraceOptions trace;

    /**
     * Heartbeat lease timeout (seconds). > 0 enables automatic
     * failure detection: a silent worker holding in-flight splits is
     * declared dead, its splits requeue, and the session starts a
     * stateless replacement. 0 keeps detection manual
     * (injectWorkerFailure only).
     */
    double lease_timeout = 0.0;

    /** Attempts a split gets before the Master marks it failed. */
    uint32_t max_split_attempts = 3;

    /** Overload protection (shedding, per-split deadlines). */
    AdmissionOptions admission;

    /** Live auto-scaling (off by default). */
    AutoScaleOptions autoscale;

    /**
     * Durable checkpointing / crash recovery (off by default). The
     * journal lives at `<recovery.journal_base>.t0`.
     */
    RecoveryOptions recovery;

    /** Background storage scrubbing/repair (off by default). */
    SelfHealOptions self_heal;
};

/** Aggregate outcome of a completed session. */
struct SessionResult
{
    uint64_t tensors_delivered = 0;
    uint64_t rows_delivered = 0;
    Bytes tensor_bytes = 0;
    uint64_t worker_failures = 0; ///< injected, lease-expired, crashed
    uint64_t duplicates_suppressed = 0; ///< replayed batches dropped
    uint64_t splits_failed = 0; ///< splits that exhausted attempts
    uint64_t deadline_expirations = 0; ///< splits requeued on budget
    uint64_t workers_launched = 0; ///< added by live auto-scaling
    uint64_t workers_drained = 0;  ///< retired by live auto-scaling
    dwrf::ReadStats read_stats;    ///< every worker's, replaced included
    transforms::TransformStats transform_stats;
};

/** A runnable, fault-injectable DPP session. */
class InProcessSession
{
  public:
    /** Called for every tensor a client receives. */
    using TensorSink =
        std::function<void(ClientId, const TensorBatch &)>;

    InProcessSession(const warehouse::Warehouse &warehouse,
                     SessionSpec spec, SessionOptions options = {});

    Master &master() { return fleet_.tenantMaster(kTenant); }

    /** The session's exactly-once ledger (tests inspect it). */
    DeliveryLedger &ledger() { return fleet_.tenantLedger(kTenant); }

    /** See FleetScheduler::requestHalt. Safe from the sink callback. */
    void requestHalt() { fleet_.requestHalt(); }

    /** True when the last run() exited via requestHalt(). */
    bool halted() const { return fleet_.halted(); }

    /**
     * Kill worker at pool index `i` (its pipeline threads are
     * stopped, its buffer is lost, in-flight splits requeue) and
     * start a stateless replacement.
     */
    void injectWorkerFailure(size_t i) { fleet_.failWorkerAt(i); }

    /**
     * Drive the pipeline to completion: workers produce (pumped
     * cooperatively, or on their own threads in parallel mode) while
     * the calling thread delivers. `sink` (optional) observes every
     * delivered tensor — called only from the run() caller's thread.
     * `fail_after_splits`, if nonzero, kills one worker after that
     * many splits complete (fault-tolerance exercise).
     */
    SessionResult run(TensorSink sink = nullptr,
                      uint64_t fail_after_splits = 0);

    /** The newest scaling evaluations the live controller made
     * (FleetScheduler::kScalingLogCapacity at most). */
    const std::deque<ScalingEvent> &scalingLog() const
    {
        return fleet_.scalingLog();
    }

    /** Scaling evaluations made in total. */
    uint64_t scalingEvaluations() const
    {
        return fleet_.scalingEvaluations();
    }

    /**
     * The trace collected by the last run() (empty unless tracing was
     * enabled via SessionOptions::trace or DSI_TRACE). Feed it to
     * trace::TraceQuery for assertions or trace::writeChromeTrace for
     * a trace-viewer file.
     */
    const std::vector<trace::TraceEvent> &traceEvents() const
    {
        return fleet_.traceEvents();
    }

    /**
     * Merged metrics registry across the fleet, the Master, every
     * worker (replaced and retired ones included) and the healed
     * cluster — the bag MetricsExporter renders.
     */
    Metrics collectMetrics() const;

    /** Current worker-pool size (drained victims already retired). */
    size_t workerCount() const { return fleet_.workerCount(); }

  private:
    static constexpr TenantId kTenant = 0;

    SessionOptions options_;
    FleetScheduler fleet_;
};

} // namespace dsi::dpp

#endif // DSI_DPP_SESSION_H
