/**
 * @file
 * The DPP control plane: a multi-tenant fleet scheduler (Sections
 * III-B1, IV-B, VI-C).
 *
 * Production DPP is provisioned at *fleet* scope: hundreds of
 * concurrent training jobs share one pool of preprocessing workers,
 * with release-candidate (RC) jobs prioritized over combo and
 * exploratory ones. FleetScheduler is that control plane in miniature:
 * it multiplexes many concurrent sessions — each with its own Master,
 * exactly-once DeliveryLedger, and transform program — over a single
 * shared, auto-scaled Worker pool. It is the only control plane in
 * the repo and the only thing a Worker talks to: InProcessSession
 * (session.h) is a one-tenant FleetScheduler, and tests and the
 * trainer's stall probe drive Workers through fleet.workerAt(i).
 * Worker ids are fleet-wide and passed straight through to every
 * tenant Master, which is the single record of who holds which split.
 *
 * Scheduling policy (per acquireSplit call, two passes):
 *
 *  1. **Reserved quota, by class priority.** Tenants with pending work
 *     holding fewer in-flight splits than their `min_quota` are served
 *     first, highest JobClass first — an RC job always reclaims its
 *     reserved share before any best-effort grant.
 *  2. **Weighted fair share.** Among the rest, the tenant minimizing
 *     inflight / weight wins (ties: higher class, then lower id), so
 *     long-run grant counts converge to the weight ratio. Tenants at
 *     their `max_inflight` cap are skipped and counted as shed
 *     (fleet.tenant.<id>.shed).
 *
 * When no tenant has pending work the fleet answers Standby — workers
 * stay alive through arrival gaps and while other workers' splits are
 * still in flight (a failure may requeue them) — and NoWork only once
 * close() was called and every tenant is done.
 *
 * **Preemption.** When a tenant is starved below its reserved quota
 * and no worker is idle, the fleet picks a worker holding a
 * lower-class tenant's split, beginDrain(release_held=true)s it (the
 * split is handed back at the next stripe boundary with no attempt
 * penalty; buffered tensors still deliver, the ledger dedupes any
 * replay overlap), and launches a replacement worker whose first polls
 * the quota pass routes to the starved tenant.
 *
 * **Fault tolerance.** The fleet runs the heartbeat leases (every
 * acquireSplit / heartbeat renews; a Master has no lease monitor,
 * since one worker serves many Masters): a silent worker that some
 * tenant Master still records as a split holder is declared dead,
 * failWorker() requeues its splits on every tenant Master (which
 * answer its later requests Rejected), and a replacement joins the
 * pool — the
 * replacement is a fresh process, but the requeued splits carry each
 * Master's delivered-stripe watermark, so it re-extracts only
 * undelivered tails. Every tick also runs each Master's per-split
 * deadline sweep. Exactly-once delivery is preserved per tenant by
 * each tenant's DeliveryLedger.
 *
 * **Whole-fleet recovery.** With FleetOptions::recovery attached,
 * every tenant Master journals durable checkpoints (its state + its
 * ledger) to the storage cluster at `<journal_base>.t<tenant_id>`.
 * After control-plane death (requestHalt(), or destroying the fleet),
 * a successor fleet built with `recovery.recover` restores each tenant
 * as it is re-admitted: in-flight splits of the dead incarnation
 * requeue (resuming past delivered stripes), attempts are not
 * double-charged, and replayed batches are suppressed by the restored
 * ledger. Tenants must be re-admitted in their original order (ids —
 * and thus journal names — are assigned sequentially).
 *
 * **Observability.** Per-tenant counters fleet.tenant.<id>.granted /
 * .shed / .preempted; grant-latency percentiles per tenant; a
 * fleet.tenant span per tenant that every master.grant made on its
 * behalf parents on (so TraceQuery can attribute any worker span to
 * its tenant); fleet.deliver spans per delivered batch; and a
 * fleet.preempted instant per preemption.
 *
 * Thread safety: the worker surface accepts concurrent calls from
 * every worker thread (guarded by one fleet mutex; lock order is
 * always fleet -> master, never the reverse). The pool-management /
 * driver surface (tick, run, addTenant, failWorkerAt, workerAt) is
 * single-threaded: exactly one driver thread, the same one that
 * constructed the fleet. requestHalt() is safe from any thread.
 */

#ifndef DSI_DPP_FLEET_H
#define DSI_DPP_FLEET_H

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "dpp/autoscaler.h"
#include "dpp/master.h"
#include "dpp/worker.h"

namespace dsi::dpp {

/** Training-job class, in ascending scheduling priority (Fig. 4). */
enum class JobClass : uint8_t
{
    Explore = 0, ///< exploratory variants; best-effort
    Combo = 1,   ///< combination/refresh runs
    RC = 2,      ///< release candidates; strict priority + quota
};

const char *jobClassName(JobClass c);

/** Per-tenant scheduling parameters. */
struct TenantOptions
{
    std::string name;        ///< label for logs / benches
    JobClass job_class = JobClass::Explore;

    /** Fair-share weight (grants converge to the weight ratio). */
    double weight = 1.0;

    /**
     * In-flight splits reserved for this tenant: while it holds fewer,
     * the priority pass serves it before any fair-share grant (and
     * starvation below it triggers preemption). 0 = no reservation.
     */
    uint32_t min_quota = 0;

    /**
     * Cap on this tenant's concurrent in-flight splits (0 = uncapped).
     * Requests its work would exceed are shed to other tenants and
     * counted as fleet.tenant.<id>.shed.
     */
    uint32_t max_inflight = 0;
};

/**
 * Span tracing for a run. Tracing also turns on when the DSI_TRACE
 * environment variable is set (any value but "0").
 */
struct TraceOptions
{
    bool enabled = false;
};

/** Fleet configuration. */
struct FleetOptions
{
    uint32_t initial_workers = 4;
    WorkerOptions worker;

    /**
     * Heartbeat lease (seconds; 0 disables): a worker holding grants
     * that has not called in within the budget is declared dead, its
     * splits requeue on every tenant it served, and a stateless
     * replacement joins the pool.
     */
    double lease_timeout = 0.0;

    /** Attempts a split gets before its Master marks it failed. */
    uint32_t max_split_attempts = 3;

    /** Admission control applied to every tenant Master. */
    AdmissionOptions admission;

    /** Class-priority preemption of over-share workers (see file doc). */
    bool preemption = true;

    /** Shared-pool auto-scaling (off by default). */
    AutoScaleOptions autoscale;

    /** Pipeline-wide span tracing for run() (off by default). */
    TraceOptions trace;

    /**
     * Durable per-tenant checkpointing / whole-fleet crash recovery
     * (off by default; see the file doc). Each tenant journals to
     * `<recovery.journal_base>.t<tenant_id>` on `recovery.cluster`.
     */
    RecoveryOptions recovery;
};

/** One tenant's aggregate outcome / live accounting. */
struct TenantStats
{
    std::string name;
    JobClass job_class = JobClass::Explore;
    uint64_t granted = 0;   ///< splits granted to workers
    uint64_t shed = 0;      ///< selection rounds skipped at cap
    uint64_t preempted = 0; ///< preemption events against this tenant
    uint64_t tensors_delivered = 0;
    uint64_t rows_delivered = 0;
    uint64_t duplicates_suppressed = 0; ///< ledger-deduped replays
    uint64_t splits_failed = 0;
    double grant_latency_p50 = 0.0; ///< clock seconds pending->grant
    double grant_latency_p99 = 0.0;
    bool done = false;
};

/** Aggregate outcome of a completed fleet run. */
struct FleetResult
{
    uint64_t tensors_delivered = 0;
    uint64_t rows_delivered = 0;
    uint64_t worker_failures = 0; ///< injected, lease-expired, crashed
    uint64_t workers_launched = 0;
    uint64_t workers_drained = 0;
    uint64_t preemptions = 0;
    uint64_t deadline_expirations = 0; ///< splits requeued on budget
    /** Every worker's totals, replaced and retired workers included. */
    dwrf::ReadStats read_stats;
    transforms::TransformStats transform_stats;
    std::map<TenantId, TenantStats> tenants;
};

/** The shared-pool, multi-session DPP control plane. */
class FleetScheduler
{
  public:
    /** Observes every delivered (deduped) tensor, per tenant. */
    using TensorSink =
        std::function<void(TenantId, const TensorBatch &)>;

    /** All tenants' data must live in `warehouse` (shared, as in
     * production). Launches `initial_workers` immediately. */
    FleetScheduler(const warehouse::Warehouse &warehouse,
                   FleetOptions options = {});
    ~FleetScheduler();

    FleetScheduler(const FleetScheduler &) = delete;
    FleetScheduler &operator=(const FleetScheduler &) = delete;

    /**
     * Admit a session mid-run (a training job arrived): builds its
     * Master over the shared warehouse (restoring it from its journal
     * when recovery.recover is set) and makes its splits grantable on
     * the next selection round. Returns the tenant id.
     */
    TenantId addTenant(SessionSpec spec, TenantOptions opts = {});

    /** No further tenants will arrive: once every admitted tenant is
     * done, workers see NoWork instead of Standby and idle out. */
    void close();

    // --- worker surface (called concurrently by every worker thread) ---

    /** Register a Worker (returns its fleet-wide id). */
    WorkerId registerWorker();

    /**
     * The admission-controlled request path. A worker the fleet
     * declared dead is Rejected; once close()d with every tenant done
     * the answer is NoWork; a fleet merely between arrivals answers
     * Standby (the worker stays alive and re-polls); a caller over a
     * tenant's admission caps is shed with Overloaded. A Granted split
     * carries the tenant it must be accounted against.
     */
    SplitGrant acquireSplit(WorkerId worker, const WorkerLoad &load);

    /** A Worker reports a tenant's split finished (delivery-gated). */
    void completeSplit(WorkerId worker, TenantId tenant,
                       uint64_t split_id);

    /** A Worker gives up on a tenant's split (unreadable data). */
    void failSplit(WorkerId worker, TenantId tenant, uint64_t split_id);

    /**
     * A Worker hands a tenant's split back unfinished (deadline
     * blown, drain, or preemption): requeued, no attempt penalty.
     */
    void releaseSplit(WorkerId worker, TenantId tenant,
                      uint64_t split_id);

    /** Liveness signal from a worker's data-plane activity. */
    void heartbeat(WorkerId worker);

    /** The session spec a tenant's splits are processed under. */
    const SessionSpec &tenantSpec(TenantId tenant) const;

    /** Serialized transform program for a tenant (pulled lazily). */
    const dwrf::Buffer &tenantProgram(TenantId tenant) const;

    // --- driver surface (single-threaded) ---

    /**
     * One cooperative scheduling round: pump every worker (sync mode),
     * run housekeeping (leases, crash replacement, deadline sweeps,
     * retirement, preemption, auto-scaling), drain every worker's
     * delivered tensors through the per-tenant ledgers into `sink`,
     * and write due periodic checkpoints. Returns false once halted,
     * or once close()d with every tenant done and every worker
     * drained. Benches drive tick() directly so they can admit
     * tenants between rounds.
     */
    bool tick(const TensorSink &sink = nullptr);

    /**
     * Drive the fleet to completion (calls close() if the caller has
     * not): loops tick() — starting every worker's pipeline first in
     * parallel mode — until nothing remains or requestHalt(), then
     * reports. `fail_after_splits`, if nonzero, kills the worker at
     * pool index 0 once that many splits completed (fault-tolerance
     * exercise).
     */
    FleetResult run(TensorSink sink = nullptr,
                    uint64_t fail_after_splits = 0);

    /**
     * Simulate whole-control-plane death: no batch is delivered after
     * this call, and run() stops its loop and returns without
     * completing (in-flight splits stay incomplete; buffered tensors
     * are lost exactly as a real crash loses them). A successor built
     * with RecoveryOptions::recover picks the stream back up from the
     * journals. Safe from the sink and from any thread.
     */
    void requestHalt() { halt_requested_ = true; }

    /** True once requestHalt() was called. */
    bool halted() const { return halt_requested_; }

    /**
     * Kill the worker at pool index `i` (its pipeline threads are
     * stopped, its buffer is lost, its splits requeue on every tenant
     * Master) and start a stateless replacement.
     */
    void failWorkerAt(size_t i);

    /** Injectable clock for leases / latency / autoscale (tests). Set
     * before the first tick; seconds, monotonic. */
    void setClock(std::function<double()> clock);

    bool finished() const;

    SessionProgress tenantProgress(TenantId tenant) const;
    TenantStats tenantStats(TenantId tenant) const;
    size_t tenantCount() const;
    Master &tenantMaster(TenantId tenant);
    DeliveryLedger &tenantLedger(TenantId tenant);

    size_t workerCount() const { return workers_.size(); }
    Worker &workerAt(size_t i) { return *workers_.at(i); }

    /** Scaling evaluations kept in scalingLog(), newest last. */
    static constexpr size_t kScalingLogCapacity = 1024;

    /** The newest (at most kScalingLogCapacity) scaling evaluations
     * the pool's controller made, oldest first. */
    const std::deque<ScalingEvent> &scalingLog() const
    {
        return scaling_log_;
    }

    /** Scaling evaluations made in total, including those no longer
     * kept in scalingLog(). */
    uint64_t scalingEvaluations() const { return scaling_evaluations_; }

    /** Fleet-level registry (fleet.tenant.<id>.granted/shed/preempted,
     * fleet.preemptions, fleet.workers_launched, ...). */
    const Metrics &metrics() const { return metrics_; }

    /** Fleet + every Master + every worker (retired ones too), merged. */
    Metrics collectMetrics() const;

    /** The trace collected by the last run() (with options.trace or
     * DSI_TRACE). */
    const std::vector<trace::TraceEvent> &traceEvents() const
    {
        return trace_events_;
    }

  private:
    struct TenantState
    {
        TenantId id = 0;
        TenantOptions opts;
        std::unique_ptr<Master> master;
        DeliveryLedger ledger; ///< per-tenant exactly-once
        LatencyHistogram grant_latency;
        /** clock_() when the tenant last became pending-but-ungranted;
         * < 0 while it has no ungranted demand. */
        double waiting_since = -1.0;
        /** Lazily-opened fleet.tenant span (a0 = tenant id). */
        trace::SpanId span = trace::kNoSpan;
        uint64_t granted = 0;
        uint64_t shed = 0;
        uint64_t preempted = 0;
        uint64_t tensors_delivered = 0;
        uint64_t rows_delivered = 0;
    };

    TenantState &tenantLocked(TenantId tenant) const;
    /** Requeue every split `worker` holds, on every tenant Master. */
    void failWorkerLocked(WorkerId worker);
    /** True while some tenant Master records `worker` as a holder. */
    bool workerHoldsGrantsLocked(WorkerId worker) const;
    TenantStats tenantStatsLocked(const TenantState &st) const;
    void launchWorker();
    /** Stop worker `i` and keep its metrics and stats. */
    void retireWorkerAt(size_t i);
    void replaceWorkerAt(size_t i);

    // Housekeeping (driver thread).
    bool expireFleetLeases();
    bool replaceCrashedWorkers();
    void expireDeadlines();
    bool retireDrainedWorkers();
    bool maybePreempt();
    void maybeAutoscale();
    void drainOnce(const TensorSink &sink);

    const warehouse::Warehouse &warehouse_;
    FleetOptions options_;
    bool parallel_ = false;
    bool running_parallel_ = false;
    std::atomic<bool> halt_requested_{false};

    mutable std::mutex mutex_; ///< guards all scheduler state below
    std::map<TenantId, std::unique_ptr<TenantState>> tenants_;
    TenantId next_tenant_ = 0;
    WorkerId next_worker_ = 0;
    std::map<WorkerId, double> last_heartbeat_;
    bool closed_ = false;
    uint64_t tensors_delivered_ = 0;
    uint64_t rows_delivered_ = 0;
    uint64_t worker_failures_ = 0;
    uint64_t workers_launched_ = 0;
    uint64_t workers_drained_ = 0;
    uint64_t preemptions_ = 0;
    uint64_t deadline_expirations_ = 0;
    Metrics metrics_;

    std::function<double()> clock_;

    // Pool state: driver thread only (never touched by worker threads;
    // workers reach the fleet exclusively through the worker surface
    // above).
    std::vector<std::unique_ptr<Worker>> workers_;
    /** Metrics and stats of replaced / retired workers, folded at
     * removal so results and collectMetrics() still count their work. */
    Metrics retired_metrics_;
    dwrf::ReadStats retired_read_stats_;
    transforms::TransformStats retired_transform_stats_;
    std::unique_ptr<AutoScaler> scaler_;
    std::deque<ScalingEvent> scaling_log_;
    uint64_t scaling_evaluations_ = 0;
    double last_eval_ = 0.0;
    uint64_t last_delivered_ = 0;
    double last_supplied_ = 0.0;
    std::vector<trace::TraceEvent> trace_events_;
};

} // namespace dsi::dpp

#endif // DSI_DPP_FLEET_H
