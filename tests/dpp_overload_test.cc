/**
 * @file
 * Overload-protection suite: deadlines, hedged reads, admission
 * control, circuit breakers, and live auto-scaling, end to end.
 *
 * Each scenario drives a full DPP session through an injected overload
 * condition (straggling replica, persistent replica errors, blown
 * split budgets, saturated workers, over/under-provisioned pools) and
 * asserts graceful degradation: the session still completes, delivery
 * stays exactly once, nothing waits unboundedly, and the protection
 * mechanism leaves its fingerprints in the metrics.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "dpp/client.h"
#include "dpp/session.h"
#include "fleet_fixture.h"
#include "test_fixtures.h"

namespace dsi::dpp {
namespace {

warehouse::SchemaParams
overloadParams()
{
    warehouse::SchemaParams p;
    p.name = "overload";
    p.float_features = 16;
    p.sparse_features = 8;
    p.avg_length = 6;
    p.coverage_u = 0.5;
    p.seed = 47;
    return p;
}

SessionSpec
overloadSpec(const testing::MiniWarehouse &mw,
             uint64_t rows_per_split = 1024)
{
    SessionSpec spec;
    spec.table = mw.name;
    spec.partitions = {0, 1};
    spec.projection = warehouse::chooseProjection(
        mw.schema, mw.popularity, 8, 4, 7);
    transforms::ModelGraphParams gp;
    gp.derived_features = 2;
    spec.setTransforms(
        transforms::makeModelGraph(mw.schema, spec.projection, gp));
    spec.batch_size = 256;
    spec.rows_per_split = rows_per_split;
    return spec;
}

/** Counts every delivered batch by its replay-stable identity. */
struct DeliveryLog
{
    std::map<std::pair<uint64_t, RowId>, uint64_t> count;
    uint64_t rows = 0;

    InProcessSession::TensorSink sink()
    {
        return [this](ClientId, const TensorBatch &t) {
            ++count[{t.split_id, t.first_row}];
            rows += t.data.rows;
        };
    }

    /** Every key exactly once — no duplicates, no gaps in totals. */
    void expectExactlyOnce(uint64_t expected_rows) const
    {
        for (const auto &[key, n] : count) {
            EXPECT_EQ(n, 1u) << "batch (split " << key.first
                             << ", row " << key.second
                             << ") delivered " << n << " times";
        }
        EXPECT_EQ(rows, expected_rows);
    }
};

class OverloadTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kTotalRows = 2 * 4096;

    static dwrf::WriterOptions
    stripeOptions()
    {
        dwrf::WriterOptions wo;
        wo.rows_per_stripe = 1024;
        return wo;
    }

    OverloadTest()
        : mw_(testing::makeMiniWarehouse(overloadParams(), 2, 4096,
                                         2048, stripeOptions()))
    {
        FaultInjector::instance().reset();
        FaultInjector::instance().seed(0x10ADULL);
    }

    ~OverloadTest() override { FaultInjector::instance().reset(); }

    testing::MiniWarehouse mw_;
};

TEST_F(OverloadTest, HedgedReadsCompleteUnderStraggler)
{
    // Every read has a 35% chance of a 10 ms stall — a straggling
    // replica. With hedging armed (cold-start trigger 0.2 ms, far
    // below the stall), the stalled primary is raced by a backup to
    // another replica and the backup usually wins.
    storage::HedgeOptions hedge;
    hedge.enabled = true;
    mw_.cluster->setHedging(hedge);

    SessionOptions so;
    so.workers = 2;
    InProcessSession session(*mw_.warehouse, overloadSpec(mw_), so);
    // Armed after construction so the Master's split enumeration does
    // not burn the fault budget.
    ScopedFault slow(faults::kTectonicReadDelay,
                     FaultSpec{.probability = 0.35,
                               .max_fires = 64,
                               .latency_seconds = 0.01});
    DeliveryLog log;
    auto result = session.run(log.sink());

    log.expectExactlyOnce(kTotalRows);
    EXPECT_EQ(result.splits_failed, 0u);
    const auto &cm = mw_.cluster->metrics();
    EXPECT_GE(cm.counter("tectonic.hedges_issued"), 1.0);
    EXPECT_GE(cm.counter("tectonic.hedge_wins"), 1.0);
}

TEST_F(OverloadTest, SplitDeadlineExpiresAndRequeues)
{
    // One 3 s stall against a 1 s per-split budget: the split that
    // eats the stall blows its deadline and is put back — either
    // released voluntarily by the worker (no attempt charged) or
    // reaped by the Master's expiry sweep. The replay then completes
    // cleanly, so nothing is failed and delivery is intact. The
    // budget is generous so that *unstalled* splits never expire even
    // at sanitizer speeds (TSan extraction is ~10-20x slower).
    SessionOptions so;
    so.workers = 2;
    so.admission.split_deadline_s = 1.0;
    // 2-stripe splits: expiry is observable between stripes.
    InProcessSession session(*mw_.warehouse, overloadSpec(mw_, 2048),
                             so);
    ScopedFault slow(faults::kTectonicReadDelay,
                     FaultSpec{.max_fires = 1,
                               .latency_seconds = 3.0});
    DeliveryLog log;
    auto result = session.run(log.sink());

    log.expectExactlyOnce(kTotalRows);
    EXPECT_EQ(result.splits_failed, 0u);
    const auto &mm = session.master().metrics();
    double put_back = mm.counter("master.deadline_expired") +
                      mm.counter("master.splits_released");
    EXPECT_GE(put_back, 1.0);
}

TEST_F(OverloadTest, AdmissionControlShedsSaturatedWorker)
{
    // One worker, two extract threads, but a one-split in-flight cap:
    // while thread A holds its split (held until the trainer drains
    // its tensors), thread B's acquisitions come back Overloaded and
    // it backs off instead of stacking more work onto the worker.
    SessionOptions so;
    so.workers = 1;
    so.worker.num_extract_threads = 2;
    so.worker.num_transform_threads = 1;
    so.worker.buffer_capacity = 4;
    so.admission.max_inflight_per_worker = 1;
    InProcessSession session(*mw_.warehouse, overloadSpec(mw_), so);
    DeliveryLog log;
    auto result = session.run(log.sink());

    log.expectExactlyOnce(kTotalRows);
    EXPECT_EQ(result.splits_failed, 0u);
    EXPECT_GE(session.master().metrics().counter("master.splits_shed"),
              1.0);
}

TEST_F(OverloadTest, CircuitBreakerEjectsAndRecovers)
{
    // A hard replica-error phase (every replica IO fails, 18 fires —
    // each failed open burns one fire per replica) trips per-node
    // breakers open; reads inside the cooldown skip ejected replicas,
    // and the fail-open second pass keeps blocks readable even with
    // every breaker open. Once the fault exhausts, successful reads
    // close the breakers again. Attempts are raised because the
    // requeue discipline (push-front) makes the front splits absorb
    // consecutive failed opens.
    SessionOptions so;
    so.workers = 2;
    so.max_split_attempts = 10;
    InProcessSession session(*mw_.warehouse, overloadSpec(mw_), so);
    ScopedFault err(faults::kTectonicReplicaError,
                    FaultSpec{.max_fires = 18});
    DeliveryLog log;
    auto result = session.run(log.sink());

    log.expectExactlyOnce(kTotalRows);
    EXPECT_EQ(result.splits_failed, 0u);
    const auto &cm = mw_.cluster->metrics();
    EXPECT_GE(cm.counter("breaker.open"), 1.0);
    EXPECT_GE(cm.counter("breaker.closed"), 1.0);
}

TEST_F(OverloadTest, LiveAutoscaleLaunchesOnStarvation)
{
    // Start undersized (1 worker) with slow storage (1 ms per read):
    // the trainer drains faster than the pool produces, buffers sit
    // empty, and the controller launches workers mid-run.
    SessionOptions so;
    so.workers = 1;
    so.autoscale.enabled = true;
    so.autoscale.interval_s = 0.002;
    so.autoscale.scaler.min_workers = 1;
    so.autoscale.scaler.max_workers = 4;
    InProcessSession session(*mw_.warehouse,
                             overloadSpec(mw_, 512), so);
    ScopedFault slow(faults::kTectonicReadDelay,
                     FaultSpec{.max_fires = 1000,
                               .latency_seconds = 0.001});
    DeliveryLog log;
    auto result = session.run(log.sink());

    log.expectExactlyOnce(kTotalRows);
    EXPECT_EQ(result.splits_failed, 0u);
    EXPECT_GE(result.workers_launched, 1u);
    EXPECT_GE(session.workerCount(), 1u);
    EXPECT_FALSE(session.scalingLog().empty());
}

TEST_F(OverloadTest, LiveAutoscaleDrainsOverProvisionedPool)
{
    // Start oversized (4 workers) against a controller cap of 2: the
    // first evaluation targets <= 2, victims drain gracefully (finish
    // and deliver everything held), and the retired pool shrinks — no
    // tensor is lost on the way down.
    SessionOptions so;
    so.workers = 4;
    so.autoscale.enabled = true;
    so.autoscale.interval_s = 0.002;
    so.autoscale.scaler.min_workers = 1;
    so.autoscale.scaler.max_workers = 2;
    InProcessSession session(*mw_.warehouse,
                             overloadSpec(mw_, 512), so);
    ScopedFault slow(faults::kTectonicReadDelay,
                     FaultSpec{.max_fires = 1000,
                               .latency_seconds = 0.001});
    DeliveryLog log;
    auto result = session.run(log.sink());

    log.expectExactlyOnce(kTotalRows);
    EXPECT_EQ(result.splits_failed, 0u);
    EXPECT_GE(result.workers_drained, 1u);
    EXPECT_LE(session.workerCount(), 4u);
}

TEST_F(OverloadTest, ScalingLogReplaysIdenticallyThroughFreshPolicy)
{
    // Anti-drift: feed the exact WorkerReport stream the live session
    // saw through a fresh AutoScaler (the sim_session path) and
    // require identical decisions — live scaling and simulation are
    // the same policy, not two policies that happen to agree today.
    SessionOptions so;
    so.workers = 1;
    so.autoscale.enabled = true;
    so.autoscale.interval_s = 0.002;
    so.autoscale.scaler.max_workers = 3;
    InProcessSession session(*mw_.warehouse,
                             overloadSpec(mw_, 512), so);
    ScopedFault slow(faults::kTectonicReadDelay,
                     FaultSpec{.max_fires = 500,
                               .latency_seconds = 0.001});
    DeliveryLog log;
    session.run(log.sink());

    ASSERT_FALSE(session.scalingLog().empty());
    AutoScaler replay(so.autoscale.scaler);
    for (const auto &ev : session.scalingLog()) {
        auto d = replay.evaluate(ev.reports, ev.demand_rate,
                                 ev.supply_rate);
        EXPECT_EQ(d.target_workers, ev.decision.target_workers);
        EXPECT_EQ(d.delta, ev.decision.delta);
        EXPECT_EQ(d.starving, ev.decision.starving);
    }
    log.expectExactlyOnce(kTotalRows);
}

TEST_F(OverloadTest, DeadlineBoundedClientFetchExpires)
{
    // A trainer fetch against a stalled pipeline must return within
    // its budget instead of hanging. Run the session to completion
    // first, then point a client at a worker that never produces and
    // ask it for more with a bounded deadline: nullopt once the
    // budget runs out, not an unbounded wait.
    SessionOptions so;
    so.workers = 1;
    InProcessSession session(*mw_.warehouse, overloadSpec(mw_), so);
    DeliveryLog log;
    session.run(log.sink());
    log.expectExactlyOnce(kTotalRows);

    auto fleet = testing::oneTenantFleet(*mw_.warehouse, overloadSpec(mw_));
    std::vector<Worker *> pool = {&fleet->workerAt(0)};
    Client client(0, 1, pool);
    auto t0 = std::chrono::steady_clock::now();
    auto batch = client.next(Deadline::after(0.01));
    auto waited = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    EXPECT_FALSE(batch.has_value());
    EXPECT_LT(waited, 1.0) << "deadline-bounded fetch overstayed";
}

} // namespace
} // namespace dsi::dpp
