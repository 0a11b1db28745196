#include "session.h"

#include "common/logging.h"

namespace dsi::dpp {

namespace {

FleetOptions
fleetOptions(const SessionOptions &o)
{
    dsi_assert(o.workers >= 1, "session needs >= 1 worker");
    dsi_assert(o.clients >= 1, "session needs >= 1 client");
    FleetOptions f;
    f.initial_workers = o.workers;
    f.worker = o.worker;
    f.lease_timeout = o.lease_timeout;
    f.max_split_attempts = o.max_split_attempts;
    f.admission = o.admission;
    f.preemption = false; // one tenant: nobody to preempt for
    f.autoscale = o.autoscale;
    f.trace = o.trace;
    f.recovery = o.recovery;
    return f;
}

} // namespace

InProcessSession::InProcessSession(const warehouse::Warehouse &warehouse,
                                   SessionSpec spec,
                                   SessionOptions options)
    : options_(options), fleet_(warehouse, fleetOptions(options))
{
    fleet_.addTenant(std::move(spec));
}

SessionResult
InProcessSession::run(TensorSink sink, uint64_t fail_after_splits)
{
    SessionResult result;
    uint64_t dealt = 0;
    auto deliver = [&](TenantId, const TensorBatch &t) {
        result.tensor_bytes += t.bytes;
        if (sink)
            sink(static_cast<ClientId>(dealt++ % options_.clients), t);
    };
    // The storage healer runs for the duration of the run: scrub and
    // repair proceed concurrently with training reads, and the thread
    // is joined before run() returns.
    storage::TectonicCluster *heal = options_.self_heal.cluster;
    if (heal)
        heal->startHealer(options_.self_heal.heal);
    FleetResult fr = fleet_.run(deliver, fail_after_splits);
    if (heal)
        heal->stopHealer();

    const TenantStats &tenant = fr.tenants.at(kTenant);
    result.tensors_delivered = fr.tensors_delivered;
    result.rows_delivered = fr.rows_delivered;
    result.worker_failures = fr.worker_failures;
    result.duplicates_suppressed = tenant.duplicates_suppressed;
    result.splits_failed = tenant.splits_failed;
    result.deadline_expirations = fr.deadline_expirations;
    result.workers_launched = fr.workers_launched;
    result.workers_drained = fr.workers_drained;
    result.read_stats = fr.read_stats;
    result.transform_stats = fr.transform_stats;
    return result;
}

Metrics
InProcessSession::collectMetrics() const
{
    Metrics merged = fleet_.collectMetrics();
    if (options_.self_heal.cluster)
        merged.merge(options_.self_heal.cluster->metrics());
    return merged;
}

} // namespace dsi::dpp
