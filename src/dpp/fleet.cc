#include "fleet.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"

namespace dsi::dpp {

namespace {

double
steadySeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
tenantMetric(TenantId tenant, const char *field)
{
    return "fleet.tenant." + std::to_string(tenant) + "." + field;
}

} // namespace

const char *
jobClassName(JobClass c)
{
    switch (c) {
    case JobClass::Explore:
        return "explore";
    case JobClass::Combo:
        return "combo";
    case JobClass::RC:
        return "rc";
    }
    return "?";
}

FleetScheduler::FleetScheduler(const warehouse::Warehouse &warehouse,
                               FleetOptions options)
    : warehouse_(warehouse), options_(options),
      parallel_(options.worker.num_extract_threads > 0 ||
                options.worker.num_transform_threads > 0),
      clock_(steadySeconds)
{
    dsi_assert(options_.initial_workers >= 1,
               "fleet needs >= 1 worker");
    if (options_.autoscale.enabled)
        scaler_ =
            std::make_unique<AutoScaler>(options_.autoscale.scaler);
    last_eval_ = clock_();
    for (uint32_t i = 0; i < options_.initial_workers; ++i)
        launchWorker();
    // The initial pool is baseline capacity, not a scaling action.
    workers_launched_ = 0;
}

FleetScheduler::~FleetScheduler()
{
    for (auto &w : workers_)
        w->stop();
}

TenantId
FleetScheduler::addTenant(SessionSpec spec, TenantOptions opts)
{
    // Split enumeration can touch storage; do it outside the lock so
    // admitting a large tenant never stalls the grant path.
    auto master =
        std::make_unique<Master>(warehouse_, std::move(spec));
    master->setMaxSplitAttempts(options_.max_split_attempts);
    master->setAdmission(options_.admission);

    std::scoped_lock lock(mutex_);
    dsi_assert(!closed_, "fleet is closed to new tenants");
    auto st = std::make_unique<TenantState>();
    st->id = next_tenant_++;
    st->opts = std::move(opts);
    st->master = std::move(master);
    if (options_.recovery.cluster != nullptr) {
        // Journal names derive from the sequentially-assigned tenant
        // id, so a successor fleet re-admitting tenants in the same
        // order reattaches each one to its predecessor's journal.
        // TenantState is heap-allocated, so the ledger address the
        // Master snapshots through stays stable across map moves.
        st->master->setLedger(&st->ledger);
        st->master->enableJournal(*options_.recovery.cluster,
                                  options_.recovery.journal_base +
                                      ".t" + std::to_string(st->id),
                                  options_.recovery.policy);
        if (options_.recovery.recover)
            st->master->recoverFromJournal();
    }
    TenantId id = st->id;
    tenants_.emplace(id, std::move(st));
    metrics_.inc("fleet.tenants_admitted");
    return id;
}

void
FleetScheduler::close()
{
    std::scoped_lock lock(mutex_);
    closed_ = true;
}

// ---------------------------------------------------------------------
// Worker surface (called concurrently by every worker thread).

WorkerId
FleetScheduler::registerWorker()
{
    std::scoped_lock lock(mutex_);
    WorkerId id = next_worker_++;
    last_heartbeat_[id] = clock_();
    return id;
}

void
FleetScheduler::heartbeat(WorkerId worker)
{
    // Heartbeats feed only the lease monitor; without one, skip the
    // fleet lock (popTensor heartbeats once per delivered batch).
    if (options_.lease_timeout <= 0)
        return;
    std::scoped_lock lock(mutex_);
    last_heartbeat_[worker] = clock_();
}

SplitGrant
FleetScheduler::acquireSplit(WorkerId worker,
                             const WorkerLoad &load)
{
    std::scoped_lock lock(mutex_);
    double now = clock_();
    last_heartbeat_[worker] = now; // asking for work is proof of life

    struct Cand
    {
        TenantState *st;
        uint64_t inflight;
    };
    std::vector<Cand> ready;
    bool all_done = true;
    for (auto &[id, st] : tenants_) {
        auto p = st->master->progress();
        if (!p.done())
            all_done = false;
        if (p.pending_splits == 0)
            continue;
        // Pending-but-ungranted demand starts the latency clock.
        if (st->waiting_since < 0)
            st->waiting_since = now;
        if (st->opts.max_inflight > 0 &&
            p.inflight_splits >= st->opts.max_inflight) {
            ++st->shed;
            metrics_.inc(tenantMetric(st->id, "shed"));
            continue;
        }
        ready.push_back({st.get(), p.inflight_splits});
    }
    if (ready.empty()) {
        // Standby keeps the pool alive through arrival gaps; NoWork
        // (workers idle out) only once the fleet is closed and every
        // tenant reached a terminal state.
        SplitGrant g;
        g.status = (closed_ && all_done) ? GrantStatus::NoWork
                                         : GrantStatus::Standby;
        return g;
    }

    auto share = [](const Cand &c) {
        double w = c.st->opts.weight > 0 ? c.st->opts.weight : 1e-9;
        return static_cast<double>(c.inflight) / w;
    };
    auto better = [&](const Cand &a, const Cand &b) {
        double sa = share(a), sb = share(b);
        if (sa != sb)
            return sa < sb;
        if (a.st->opts.job_class != b.st->opts.job_class)
            return a.st->opts.job_class > b.st->opts.job_class;
        return a.st->id < b.st->id;
    };

    // Pass 1: reserved quota, highest class first — an RC tenant
    // under its reservation is served before any best-effort grant.
    const Cand *pick = nullptr;
    for (const auto &c : ready) {
        if (c.st->opts.min_quota == 0 ||
            c.inflight >= c.st->opts.min_quota)
            continue;
        if (!pick || c.st->opts.job_class > pick->st->opts.job_class ||
            (c.st->opts.job_class == pick->st->opts.job_class &&
             better(c, *pick)))
            pick = &c;
    }
    // Pass 2: weighted fair share (min inflight / weight).
    if (!pick) {
        for (const auto &c : ready)
            if (!pick || better(c, *pick))
                pick = &c;
    }

    TenantState &st = *pick->st;
    // Every master.grant made on this tenant's behalf parents on its
    // fleet.tenant span (opened lazily on first grant), labeling the
    // split's whole lineage with the tenant.
    if (trace::on() && st.span == trace::kNoSpan)
        st.span = trace::beginSpan(trace::spans::kFleetTenant,
                                   trace::kNoSpan, st.id);
    trace::ScopedParent tenant_parent(st.span);
    SplitGrant g = st.master->acquireSplit(worker, load);
    if (g.status != GrantStatus::Granted) {
        // Overloaded (over the tenant's admission caps) passes through
        // so the worker backs off, and Rejected (a worker declared
        // dead) so it stops; NoWork becomes Standby — other tenants
        // may still feed the worker later.
        if (g.status == GrantStatus::NoWork)
            g.status = GrantStatus::Standby;
        return g;
    }
    g.tenant = st.id;
    ++st.granted;
    metrics_.inc(tenantMetric(st.id, "granted"));
    if (st.waiting_since >= 0) {
        st.grant_latency.add(now - st.waiting_since);
        st.waiting_since = -1.0; // re-armed on the next ungranted poll
    }
    return g;
}

FleetScheduler::TenantState &
FleetScheduler::tenantLocked(TenantId tenant) const
{
    auto it = tenants_.find(tenant);
    dsi_assert(it != tenants_.end(), "unknown tenant %u", tenant);
    return *it->second;
}

void
FleetScheduler::completeSplit(WorkerId worker, TenantId tenant,
                              uint64_t split_id)
{
    std::scoped_lock lock(mutex_);
    TenantState &st = tenantLocked(tenant);
    st.master->completeSplit(worker, split_id);
    // The tenant's lifetime span closes with its last split.
    if (st.span != trace::kNoSpan && st.master->progress().done()) {
        trace::endSpan(st.span, trace::spans::kFleetTenant);
        st.span = trace::kNoSpan;
    }
}

void
FleetScheduler::failSplit(WorkerId worker, TenantId tenant,
                          uint64_t split_id)
{
    std::scoped_lock lock(mutex_);
    tenantLocked(tenant).master->failSplit(worker, split_id);
}

void
FleetScheduler::releaseSplit(WorkerId worker, TenantId tenant,
                             uint64_t split_id)
{
    std::scoped_lock lock(mutex_);
    tenantLocked(tenant).master->releaseSplit(worker, split_id);
}

const SessionSpec &
FleetScheduler::tenantSpec(TenantId tenant) const
{
    std::scoped_lock lock(mutex_);
    return tenantLocked(tenant).master->spec();
}

const dwrf::Buffer &
FleetScheduler::tenantProgram(TenantId tenant) const
{
    std::scoped_lock lock(mutex_);
    return tenantLocked(tenant).master->transformProgram();
}

// ---------------------------------------------------------------------
// Pool management (driver thread only).

void
FleetScheduler::launchWorker()
{
    // Worker construction registers with the fleet (takes the fleet
    // lock) — never call this while holding mutex_.
    workers_.push_back(std::make_unique<Worker>(
        *this, warehouse_, options_.worker));
    if (running_parallel_)
        workers_.back()->start();
    {
        std::scoped_lock lock(mutex_);
        ++workers_launched_;
    }
    metrics_.inc("fleet.workers_launched");
}

void
FleetScheduler::retireWorkerAt(size_t i)
{
    Worker &w = *workers_[i];
    w.stop();
    retired_metrics_.merge(w.metrics());
    retired_read_stats_.merge(w.readStats());
    retired_transform_stats_.merge(w.transformStats());
    std::scoped_lock lock(mutex_);
    last_heartbeat_.erase(w.id());
}

void
FleetScheduler::replaceWorkerAt(size_t i)
{
    dsi_assert(i < workers_.size(), "no worker at index %zu", i);
    retireWorkerAt(i);
    {
        std::scoped_lock lock(mutex_);
        ++worker_failures_;
    }
    metrics_.inc("fleet.worker_replacements");
    // The replacement worker is a fresh process, but the dead worker's
    // requeued splits are not re-extracted from scratch: each tenant
    // Master re-grants them with resume_stripe set past its
    // delivered-stripe watermark, so the replacement reads only the
    // undelivered tail of each split.
    workers_[i] = std::make_unique<Worker>(*this, warehouse_,
                                           options_.worker);
    if (running_parallel_)
        workers_[i]->start();
}

void
FleetScheduler::failWorkerAt(size_t i)
{
    dsi_assert(i < workers_.size(), "no worker at index %zu", i);
    // Stop the victim's pipeline threads first so none of them calls
    // into a Master after it is declared dead. Its buffered
    // (undelivered) tensors are lost with it.
    workers_[i]->stop();
    {
        std::scoped_lock lock(mutex_);
        failWorkerLocked(workers_[i]->id());
    }
    replaceWorkerAt(i);
}

bool
FleetScheduler::workerHoldsGrantsLocked(WorkerId worker) const
{
    for (const auto &[id, st] : tenants_)
        if (st->master->holdsSplit(worker))
            return true;
    return false;
}

void
FleetScheduler::failWorkerLocked(WorkerId worker)
{
    // Requeue everything the dead worker held, on every tenant Master,
    // and make each of them reject the worker from now on.
    for (auto &[id, st] : tenants_)
        st->master->failWorker(worker);
}

bool
FleetScheduler::expireFleetLeases()
{
    if (options_.lease_timeout <= 0)
        return false;
    std::vector<size_t> dead;
    {
        std::scoped_lock lock(mutex_);
        double now = clock_();
        for (size_t i = 0; i < workers_.size(); ++i) {
            WorkerId id = workers_[i]->id();
            // Idle workers are never expired — nothing to recover.
            if (!workerHoldsGrantsLocked(id))
                continue;
            auto hb = last_heartbeat_.find(id);
            if (hb != last_heartbeat_.end() &&
                now - hb->second > options_.lease_timeout)
                dead.push_back(i);
        }
        for (size_t i : dead) {
            failWorkerLocked(workers_[i]->id());
            metrics_.inc("fleet.lease_expirations");
        }
    }
    for (size_t i : dead)
        replaceWorkerAt(i);
    return !dead.empty();
}

bool
FleetScheduler::replaceCrashedWorkers()
{
    bool replaced = false;
    for (size_t i = 0; i < workers_.size(); ++i) {
        if (!workers_[i]->crashed())
            continue;
        {
            std::scoped_lock lock(mutex_);
            // A crashed worker still holding grants waits for lease
            // expiry (its splits must requeue before it is recycled);
            // without a lease, recycle it here.
            if (workerHoldsGrantsLocked(workers_[i]->id())) {
                if (options_.lease_timeout > 0)
                    continue;
                failWorkerLocked(workers_[i]->id());
            }
        }
        replaceWorkerAt(i);
        replaced = true;
    }
    return replaced;
}

void
FleetScheduler::expireDeadlines()
{
    std::scoped_lock lock(mutex_);
    for (auto &[id, st] : tenants_)
        deadline_expirations_ += st->master->expireDeadlines();
}

bool
FleetScheduler::retireDrainedWorkers()
{
    bool removed = false;
    for (size_t i = 0; i < workers_.size();) {
        if (workers_[i]->draining() && workers_[i]->drained() &&
            workers_.size() > 1) {
            retireWorkerAt(i);
            {
                std::scoped_lock lock(mutex_);
                ++workers_drained_;
            }
            workers_.erase(workers_.begin() +
                           static_cast<ptrdiff_t>(i));
            removed = true;
        } else {
            ++i;
        }
    }
    return removed;
}

bool
FleetScheduler::maybePreempt()
{
    if (!options_.preemption)
        return false;
    size_t victim_idx = SIZE_MAX;
    TenantId victim_tenant = 0;
    WorkerId victim_id = 0;
    {
        std::scoped_lock lock(mutex_);
        // Most important tenant starved below its reservation.
        TenantState *starved = nullptr;
        for (auto &[id, st] : tenants_) {
            if (st->opts.min_quota == 0)
                continue;
            auto p = st->master->progress();
            if (p.pending_splits == 0 ||
                p.inflight_splits >= st->opts.min_quota)
                continue;
            if (!starved ||
                st->opts.job_class > starved->opts.job_class)
                starved = st.get();
        }
        if (!starved)
            return false;

        // Idle capacity present: the starved tenant's reservation will
        // be honored by a natural grant; preempting would only thrash.
        for (auto &w : workers_)
            if (!w->crashed() && !w->draining() &&
                !workerHoldsGrantsLocked(w->id()))
                return false;

        // Victim: a live worker holding a strictly-lower-class
        // tenant's split; the lowest class pays first, ties going to
        // the lowest tenant id, then the lowest split id.
        JobClass victim_class = starved->opts.job_class;
        for (const auto &[id, st] : tenants_) {
            if (st->opts.job_class >= victim_class)
                continue;
            for (const auto &[split_id, holder] : st->master->holders()) {
                auto w = std::find_if(
                    workers_.begin(), workers_.end(),
                    [&](const auto &p) { return p->id() == holder; });
                if (w == workers_.end() || (*w)->draining() ||
                    (*w)->crashed())
                    continue;
                victim_idx = static_cast<size_t>(w - workers_.begin());
                victim_tenant = id;
                victim_id = holder;
                victim_class = st->opts.job_class;
                break;
            }
        }
        if (victim_idx == SIZE_MAX)
            return false;
        ++tenants_.at(victim_tenant)->preempted;
        metrics_.inc(tenantMetric(victim_tenant, "preempted"));
        metrics_.inc("fleet.preemptions");
        ++preemptions_;
    }
    // Graceful handback: the victim releases its splits at the next
    // stripe boundary (no attempt penalty; buffered tensors still
    // deliver and the tenant ledger dedupes replay overlap), then
    // retires. The replacement's first polls land on the starved
    // tenant via the quota pass.
    workers_[victim_idx]->beginDrain(/*release_held=*/true);
    trace::instant(trace::events::kFleetPreempt, trace::kNoSpan,
                   victim_tenant, victim_id);
    launchWorker();
    return true;
}

void
FleetScheduler::maybeAutoscale()
{
    if (!scaler_)
        return;
    double now = clock_();
    double dt = now - last_eval_;
    if (dt < options_.autoscale.interval_s)
        return;
    last_eval_ = now;

    ScalingEvent ev;
    double supplied = 0.0;
    for (auto &w : workers_) {
        supplied += w->metrics().counter("worker.tensors");
        // Draining victims are leaving the pool; they are not part of
        // the capacity the controller reasons about.
        if (!w->draining() && !w->crashed())
            ev.reports.push_back(w->report());
    }
    uint64_t delivered;
    {
        std::scoped_lock lock(mutex_);
        delivered = tensors_delivered_;
    }
    ev.demand_rate = (static_cast<double>(delivered) -
                      static_cast<double>(last_delivered_)) /
                     dt;
    // Worker replacement resets counters; clamp the window delta.
    ev.supply_rate = std::max(0.0, (supplied - last_supplied_) / dt);
    last_delivered_ = delivered;
    last_supplied_ = supplied;
    ev.decision =
        scaler_->evaluate(ev.reports, ev.demand_rate, ev.supply_rate);
    const ScalingDecision &decision = ev.decision;

    if (decision.delta > 0) {
        // Launch: stateless workers join the split pool immediately.
        for (int64_t i = 0; i < decision.delta; ++i)
            launchWorker();
    } else if (decision.delta < 0) {
        // Graceful drain: victims stop acquiring splits, finish and
        // deliver everything held, and are retired once empty.
        int64_t to_drain = -decision.delta;
        for (auto it = workers_.rbegin();
             it != workers_.rend() && to_drain > 0; ++it) {
            if ((*it)->draining() || (*it)->crashed())
                continue;
            (*it)->beginDrain();
            --to_drain;
        }
    }
    ++scaling_evaluations_;
    if (scaling_log_.size() == kScalingLogCapacity)
        scaling_log_.pop_front();
    scaling_log_.push_back(std::move(ev));
}

void
FleetScheduler::drainOnce(const TensorSink &sink)
{
    // Every live worker is drained, so no worker's buffer (and no
    // split's delivery-gated completion) waits on a trainer's routing.
    for (auto &w : workers_) {
        // popTensor routes completion back through the fleet (it
        // locks mutex_ internally) — never hold the lock across it.
        // A halted control plane delivers nothing more.
        while (!halt_requested_) {
            trace::Timer handoff;
            auto t = w->popTensor();
            if (!t)
                break;
            bool fresh;
            {
                std::scoped_lock lock(mutex_);
                TenantState &st = tenantLocked(t->tenant);
                fresh = st.ledger.claim(t->split_id, t->first_row);
                if (fresh) {
                    ++st.tensors_delivered;
                    st.rows_delivered += t->data.rows;
                    ++tensors_delivered_;
                    rows_delivered_ += t->data.rows;
                    // Feed the tenant Master's delivered-stripe
                    // watermark and checkpoint cadence (fleet ->
                    // master lock order, legal under mutex_). The
                    // claim is durable in the ledger snapshot of the
                    // next journal record.
                    if (t->last_in_stripe)
                        st.master->noteStripeDelivered(t->split_id,
                                                       t->stripe);
                    st.master->noteDelivery();
                }
            }
            if (!fresh) {
                // Replay overlap (preemption / crash recovery): the
                // tenant's ledger already accepted this batch.
                trace::instant(trace::events::kDuplicateSuppressed,
                               t->trace, t->split_id);
                continue;
            }
            handoff.complete(trace::spans::kFleetDeliver, t->trace,
                             t->tenant, t->split_id);
            if (sink)
                sink(t->tenant, *t);
        }
    }
}

// ---------------------------------------------------------------------
// Driving.

void
FleetScheduler::setClock(std::function<double()> clock)
{
    std::scoped_lock lock(mutex_);
    clock_ = std::move(clock);
    last_eval_ = clock_();
    for (auto &hb : last_heartbeat_)
        hb.second = last_eval_;
}

bool
FleetScheduler::finished() const
{
    {
        std::scoped_lock lock(mutex_);
        if (!closed_)
            return false;
        for (const auto &[id, st] : tenants_)
            if (!st->master->progress().done())
                return false;
    }
    for (const auto &w : workers_)
        if (!w->drained())
            return false;
    return true;
}

bool
FleetScheduler::tick(const TensorSink &sink)
{
    if (halt_requested_)
        return false;
    if (!parallel_) {
        for (auto &w : workers_)
            w->pump();
    }
    expireFleetLeases();
    replaceCrashedWorkers();
    expireDeadlines();
    retireDrainedWorkers();
    maybePreempt();
    maybeAutoscale();
    drainOnce(sink);
    if (options_.recovery.cluster != nullptr) {
        // Periodic checkpoint cadence, one tenant journal at a time
        // (no-op unless CheckpointPolicy::interval_s elapsed).
        std::scoped_lock lock(mutex_);
        for (auto &[id, st] : tenants_)
            st->master->maybeCheckpoint();
    }
    return !halt_requested_ && !finished();
}

FleetResult
FleetScheduler::run(TensorSink sink, uint64_t fail_after_splits)
{
    close();
    bool tracing = options_.trace.enabled || trace::envEnabled();
    if (tracing) {
        // The log is process-wide; clearing at run start scopes this
        // run's snapshot to its own events (and drops any buffered
        // stragglers from an earlier run's pool threads).
        trace::TraceLog::instance().clear();
        trace::TraceLog::instance().enable();
    }
    if (parallel_) {
        running_parallel_ = true;
        for (auto &w : workers_)
            w->start();
    }
    while (tick(sink)) {
        if (fail_after_splits > 0) {
            uint64_t completed = 0;
            {
                std::scoped_lock lock(mutex_);
                for (const auto &[id, st] : tenants_)
                    completed += st->master->progress().completed_splits;
            }
            if (completed >= fail_after_splits) {
                failWorkerAt(0);
                fail_after_splits = 0;
            }
        }
        if (parallel_)
            std::this_thread::yield();
    }
    // Quiesced pipelines just join here; after requestHalt() this
    // aborts them, and their buffered tensors die with them.
    running_parallel_ = false;
    for (auto &w : workers_)
        w->stop();

    FleetResult r;
    {
        std::scoped_lock lock(mutex_);
        for (auto &[id, st] : tenants_) {
            // Tenants that ended in failure never closed their span.
            if (st->span != trace::kNoSpan) {
                trace::endSpan(st->span, trace::spans::kFleetTenant);
                st->span = trace::kNoSpan;
            }
            r.tenants[id] = tenantStatsLocked(*st);
        }
        r.tensors_delivered = tensors_delivered_;
        r.rows_delivered = rows_delivered_;
        r.worker_failures = worker_failures_;
        r.workers_launched = workers_launched_;
        r.workers_drained = workers_drained_;
        r.preemptions = preemptions_;
        r.deadline_expirations = deadline_expirations_;
    }
    r.read_stats = retired_read_stats_;
    r.transform_stats = retired_transform_stats_;
    for (const auto &w : workers_) {
        r.read_stats.merge(w->readStats());
        r.transform_stats.merge(w->transformStats());
    }
    if (tracing) {
        trace::TraceLog::instance().disable();
        trace_events_ = trace::TraceLog::instance().snapshot();
    }
    return r;
}

// ---------------------------------------------------------------------
// Introspection.

TenantStats
FleetScheduler::tenantStatsLocked(const TenantState &st) const
{
    TenantStats s;
    s.name = st.opts.name;
    s.job_class = st.opts.job_class;
    s.granted = st.granted;
    s.shed = st.shed;
    s.preempted = st.preempted;
    s.tensors_delivered = st.tensors_delivered;
    s.rows_delivered = st.rows_delivered;
    s.duplicates_suppressed = st.ledger.duplicates();
    auto p = st.master->progress();
    s.splits_failed = p.failed_splits;
    s.done = p.done();
    if (st.grant_latency.count() > 0) {
        s.grant_latency_p50 = st.grant_latency.percentile(50);
        s.grant_latency_p99 = st.grant_latency.percentile(99);
    }
    return s;
}

SessionProgress
FleetScheduler::tenantProgress(TenantId tenant) const
{
    std::scoped_lock lock(mutex_);
    return tenantLocked(tenant).master->progress();
}

TenantStats
FleetScheduler::tenantStats(TenantId tenant) const
{
    std::scoped_lock lock(mutex_);
    return tenantStatsLocked(tenantLocked(tenant));
}

Master &
FleetScheduler::tenantMaster(TenantId tenant)
{
    std::scoped_lock lock(mutex_);
    return *tenantLocked(tenant).master;
}

DeliveryLedger &
FleetScheduler::tenantLedger(TenantId tenant)
{
    std::scoped_lock lock(mutex_);
    return tenantLocked(tenant).ledger;
}

size_t
FleetScheduler::tenantCount() const
{
    std::scoped_lock lock(mutex_);
    return tenants_.size();
}

Metrics
FleetScheduler::collectMetrics() const
{
    Metrics merged;
    merged.merge(metrics_);
    merged.merge(retired_metrics_);
    {
        std::scoped_lock lock(mutex_);
        for (const auto &[id, st] : tenants_)
            merged.merge(st->master->metrics());
    }
    for (const auto &w : workers_)
        merged.merge(w->metrics());
    return merged;
}

} // namespace dsi::dpp
