/**
 * @file
 * Tests for the parallel DPP worker data plane: the extract/transform
 * thread pipeline, tensor-buffer backpressure under concurrent
 * producers, drain/shutdown quiesce, concurrent popTensor() clients,
 * and parallel sessions (including worker-failure injection). This
 * suite is the tier-1 TSan target (-DDSI_SANITIZE=thread).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "common/fault.h"
#include "dpp/session.h"
#include "dwrf/reader.h"
#include "fleet_fixture.h"
#include "test_fixtures.h"
#include "warehouse/datagen.h"

namespace dsi::dpp {
namespace {

warehouse::SchemaParams
smallParams()
{
    warehouse::SchemaParams p;
    p.name = "tbl";
    p.float_features = 24;
    p.sparse_features = 12;
    p.avg_length = 8;
    p.coverage_u = 0.5;
    p.seed = 9;
    return p;
}

SessionSpec
makeSpec(const testing::MiniWarehouse &mw,
         std::vector<PartitionId> partitions)
{
    SessionSpec spec;
    spec.table = mw.name;
    spec.partitions = std::move(partitions);
    spec.projection = warehouse::chooseProjection(
        mw.schema, mw.popularity, 8, 6, 77);
    transforms::ModelGraphParams gp;
    gp.derived_features = 3;
    spec.setTransforms(
        transforms::makeModelGraph(mw.schema, spec.projection, gp));
    spec.batch_size = 256;
    spec.rows_per_split = 1024;
    return spec;
}

/** Poll `pred` (from this thread) until true or ~5 s elapse. */
template <typename Pred>
bool
eventually(Pred pred)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::yield();
    }
    return pred();
}

class DppParallelTest : public ::testing::Test
{
  protected:
    static dwrf::WriterOptions
    stripeOptions()
    {
        dwrf::WriterOptions wo;
        wo.rows_per_stripe = 1024;
        return wo;
    }

    DppParallelTest()
        : mw_(testing::makeMiniWarehouse(smallParams(), 2, 4096, 2048,
                                         stripeOptions()))
    {
    }
    testing::MiniWarehouse mw_;
};

/** Drain a worker to completion from this thread; returns tensors. */
std::vector<TensorBatch>
drainWorker(Worker &worker)
{
    std::vector<TensorBatch> tensors;
    while (!worker.drained()) {
        if (auto t = worker.popTensor())
            tensors.push_back(std::move(*t));
        else
            std::this_thread::yield();
    }
    return tensors;
}

// ---------------------------------------------------------------------
// Sync-vs-threaded differential oracle: one Worker, both engines, the
// same inputs — every delivered byte and every lifecycle count must
// agree.

dwrf::WriterOptions
stripesOf(uint32_t rows, bool dedup = false)
{
    dwrf::WriterOptions wo;
    wo.rows_per_stripe = rows;
    wo.dedup = dedup;
    return wo;
}

/** FNV-1a over `n` raw bytes, folded into `h`. */
void
mixBytes(uint64_t &h, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 0x100000001b3ULL;
}

template <typename T>
void
mixVector(uint64_t &h, const std::vector<T> &v)
{
    size_t n = v.size();
    mixBytes(h, &n, sizeof n);
    mixBytes(h, v.data(), n * sizeof(T));
}

/** Bitwise digest of a batch's payload: labels, dense, sparse. */
uint64_t
payloadDigest(const dwrf::RowBatch &b)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    mixBytes(h, &b.rows, sizeof b.rows);
    mixVector(h, b.labels);
    for (const auto &c : b.dense) {
        mixBytes(h, &c.id, sizeof c.id);
        mixVector(h, c.present);
        mixVector(h, c.values);
    }
    for (const auto &c : b.sparse) {
        mixBytes(h, &c.id, sizeof c.id);
        mixVector(h, c.offsets);
        mixVector(h, c.values);
        mixVector(h, c.scores);
    }
    return h;
}

/**
 * What one worker run delivered, comparable across engines: payload
 * digests keyed by each batch's replay-stable identity (so arrival
 * order does not matter, and a replayed batch must repeat its bytes),
 * the split-lifecycle counters, and the extraction totals.
 */
struct RunOutcome
{
    std::map<std::tuple<TenantId, uint64_t, RowId>, uint64_t> batches;
    uint64_t rows = 0; ///< distinct rows delivered
    std::map<std::string, double> lifecycle;
    dwrf::ReadStats read;

    void deliver(const TensorBatch &t)
    {
        uint64_t digest = payloadDigest(t.data);
        auto [it, inserted] = batches.try_emplace(
            {t.tenant, t.split_id, t.first_row}, digest);
        if (inserted)
            rows += t.data.rows;
        else
            EXPECT_EQ(it->second, digest)
                << "replayed batch (split " << t.split_id << ", row "
                << t.first_row << ") changed bytes";
    }

    void collect(const Worker &worker)
    {
        for (const char *name :
             {"worker.splits_completed", "worker.splits_abandoned",
              "worker.splits_released", "worker.splits_resumed"})
            lifecycle[name] = worker.metrics().counter(name);
        read = worker.readStats();
    }

    double count(const char *name) const { return lifecycle.at(name); }
};

void
expectSameReadStats(const dwrf::ReadStats &a, const dwrf::ReadStats &b)
{
    EXPECT_EQ(a.bytes_read, b.bytes_read);
    EXPECT_EQ(a.bytes_needed, b.bytes_needed);
    EXPECT_EQ(a.bytes_decompressed, b.bytes_decompressed);
    EXPECT_EQ(a.bytes_decrypted, b.bytes_decrypted);
    EXPECT_EQ(a.ios, b.ios);
    EXPECT_EQ(a.streams_decoded, b.streams_decoded);
    EXPECT_EQ(a.checksum_mismatches, b.checksum_mismatches);
    EXPECT_EQ(a.io_errors, b.io_errors);
    EXPECT_EQ(a.decode_errors, b.decode_errors);
    EXPECT_EQ(a.stripe_retries, b.stripe_retries);
    EXPECT_EQ(a.deadline_expired, b.deadline_expired);
    EXPECT_EQ(a.dict_streams, b.dict_streams);
    EXPECT_EQ(a.dict_list_refs, b.dict_list_refs);
    EXPECT_EQ(a.dict_lists_inline, b.dict_lists_inline);
}

/** One differential input: a corpus, a spec, and what to break. */
struct DiffCase
{
    const char *name;
    /** Built fresh per run: replica health and rotation are state. */
    std::function<testing::MiniWarehouse()> corpus;
    std::function<void(SessionSpec &)> tweak = [](SessionSpec &) {};
    /** Storage damage or Master state, applied before the worker. */
    std::function<void(testing::MiniWarehouse &, Master &)> arm =
        [](testing::MiniWarehouse &, Master &) {};
    /** Hit-counted fault armed once the Master has enumerated. */
    const char *fault = nullptr;
    FaultSpec fault_spec = {};
    double split_deadline_s = 0.0;
    bool dedup = false;
    /**
     * Extract threads on the threaded side. Fault cases use one, so
     * storage sees the sync run's read sequence and a hit-counted
     * fault lands on the same read.
     */
    uint32_t extract_threads = 2;
    /** beginDrain(true) once this many stripes were extracted. */
    uint64_t handback_after_stripes = 0;
    /** Checks on the sync reference that the input bit. */
    std::function<void(const RunOutcome &)> expect;
};

RunOutcome
runDiffCase(const DiffCase &c, bool threaded)
{
    testing::MiniWarehouse mw = c.corpus();
    std::vector<PartitionId> partitions;
    for (const auto &p : mw.table().partitions())
        partitions.push_back(p.id);
    SessionSpec spec = makeSpec(mw, partitions);
    c.tweak(spec);
    // Grants must not depend on buffer occupancy, which differs
    // between the engines by design.
    AdmissionOptions admission;
    admission.shed_on_full_buffer = false;
    admission.split_deadline_s = c.split_deadline_s;

    WorkerOptions wo;
    wo.dedup_enabled = c.dedup;
    if (!threaded) {
        wo.buffer_capacity = 10000;
    } else {
        wo.num_extract_threads = c.extract_threads;
        wo.num_transform_threads = 2;
        wo.buffer_capacity = 32;
        if (c.handback_after_stripes > 0) {
            // Stall the pipeline with nothing popped: one tensor per
            // stripe fills the 1-deep buffer, the lone transformer
            // blocks on the next, the 1-deep queue holds a third, and
            // the extractor blocks pushing the fourth — having passed
            // that stripe's handback check, exactly like the sync run.
            wo.num_transform_threads = 1;
            wo.buffer_capacity = 1;
            wo.stripe_queue_capacity = 1;
        }
    }
    auto fleet = testing::oneTenantFleet(*mw.warehouse, spec, wo,
                                         admission);
    c.arm(mw, fleet->tenantMaster(0));
    std::optional<ScopedFault> fault;
    if (c.fault != nullptr)
        fault.emplace(c.fault, c.fault_spec);

    Worker &worker = fleet->workerAt(0);
    RunOutcome out;
    if (!threaded) {
        for (bool more = true; more;) {
            if (c.handback_after_stripes > 0 && !worker.draining() &&
                worker.stripePoolAllocated() +
                        worker.stripePoolReused() ==
                    c.handback_after_stripes)
                worker.beginDrain(/*release_held=*/true);
            more = worker.pump();
            while (auto t = worker.popTensor())
                out.deliver(*t);
        }
        out.collect(worker);
        return out;
    }
    worker.start();
    if (c.handback_after_stripes > 0) {
        EXPECT_TRUE(eventually([&] {
            return worker.stripePoolAllocated() +
                       worker.stripePoolReused() ==
                   c.handback_after_stripes;
        }));
        worker.beginDrain(/*release_held=*/true);
    }
    for (const auto &t : drainWorker(worker))
        out.deliver(t);
    out.collect(worker);
    return out;
}

TEST_F(DppParallelTest, ParallelWorkerMatchesSynchronousOutput)
{
    auto plain = [] {
        return testing::makeMiniWarehouse(smallParams(), 2, 4096, 2048,
                                          stripesOf(1024));
    };
    auto two_stripe_splits = [](SessionSpec &spec) {
        spec.rows_per_split = 2048;
    };
    std::vector<DiffCase> cases;

    cases.push_back({.name = "plain", .corpus = plain,
                     .expect = [](const RunOutcome &r) {
                         EXPECT_EQ(r.rows, 8192u);
                         EXPECT_EQ(r.count("worker.splits_completed"),
                                   8.0);
                     }});

    cases.push_back(
        {.name = "dedup",
         .corpus =
             [] {
                 warehouse::DupParams dup;
                 dup.pool_size = 96;
                 return testing::makeDupMiniWarehouse(
                     smallParams(), dup, 2, 4096, 2048,
                     stripesOf(1024, /*dedup=*/true));
             },
         .dedup = true,
         .expect = [](const RunOutcome &r) {
             EXPECT_EQ(r.rows, 8192u);
             EXPECT_GT(r.read.dict_list_refs, 0u);
         }});

    cases.push_back(
        {.name = "injected features",
         .corpus = plain,
         .tweak =
             [](SessionSpec &spec) {
                 warehouse::FeatureSpec dense;
                 dense.id = 900001;
                 dense.kind = warehouse::FeatureKind::Dense;
                 dense.coverage = 0.5;
                 warehouse::FeatureSpec scored;
                 scored.id = 900002;
                 scored.kind = warehouse::FeatureKind::ScoredSparse;
                 scored.coverage = 0.8;
                 scored.avg_length = 4;
                 scored.cardinality = 1000;
                 spec.injected = {dense, scored};
             },
         .expect = [](const RunOutcome &r) {
             EXPECT_EQ(r.rows, 8192u);
         }});

    cases.push_back(
        {.name = "resumed grant",
         .corpus = plain,
         .tweak = two_stripe_splits,
         // Trainers already hold split 0's first stripe.
         .arm = [](testing::MiniWarehouse &,
                   Master &master) { master.noteStripeDelivered(0, 0); },
         .expect = [](const RunOutcome &r) {
             EXPECT_EQ(r.count("worker.splits_resumed"), 1.0);
             EXPECT_EQ(r.rows, 8192u - 1024u);
         }});

    cases.push_back(
        {.name = "corrupt stripe read retried",
         .corpus = plain,
         // Hits 1-2 are the first file's tail and footer; hit 3 is its
         // first stripe read, whose flipped byte fails the CRC.
         .fault = faults::kTectonicReadCorrupt,
         .fault_spec = FaultSpec{.trigger_hit = 3},
         .extract_threads = 1,
         .expect = [](const RunOutcome &r) {
             EXPECT_EQ(r.rows, 8192u);
             EXPECT_GE(r.read.stripe_retries, 1u);
             EXPECT_GE(r.read.checksum_mismatches, 1u);
         }});

    constexpr Bytes kSmallBlock = 4_KiB;
    cases.push_back(
        {.name = "stripe unreadable for good",
         .corpus =
             [] {
                 storage::StorageOptions so;
                 so.block_size = kSmallBlock;
                 so.hdd_nodes = 4;
                 return warehouse::buildMiniCorpus(
                     smallParams(), 2, 4096, 2048, stripesOf(1024), so);
             },
         // Rot every replica of the blocks inside the first file's
         // second stripe; its footer and first stripe stay readable.
         .arm =
             [](testing::MiniWarehouse &mw, Master &) {
                 const std::string &file =
                     mw.table().partitions().front().files.front();
                 auto source = mw.cluster->open(file);
                 dwrf::FileReader reader(*source, dwrf::ReadOptions{});
                 ASSERT_TRUE(reader.valid());
                 const dwrf::StripeInfo &s = reader.footer().stripes.at(1);
                 for (uint64_t b = (s.offset + kSmallBlock - 1) /
                                   kSmallBlock;
                      (b + 1) * kSmallBlock <= s.offset + s.length; ++b)
                     for (uint32_t replica = 0; replica < 3; ++replica)
                         mw.cluster->corruptReplica(file, b, replica);
             },
         .extract_threads = 1,
         .expect = [](const RunOutcome &r) {
             // Abandoned on every attempt until the Master gives up.
             EXPECT_EQ(r.count("worker.splits_abandoned"), 3.0);
             EXPECT_EQ(r.count("worker.splits_completed"), 7.0);
             EXPECT_EQ(r.rows, 8192u - 1024u);
         }});

    cases.push_back(
        {.name = "deadline expiry",
         .corpus = plain,
         .tweak = two_stripe_splits,
         // A slow first stripe read of split 0 outlives the split's
         // budget: the next stripe boundary hands the split back, and
         // its fresh re-grant completes it.
         .fault = faults::kTectonicReadDelay,
         .fault_spec = FaultSpec{.trigger_hit = 3,
                                 .latency_seconds = 0.6},
         .split_deadline_s = 0.4,
         .extract_threads = 1,
         .expect = [](const RunOutcome &r) {
             EXPECT_EQ(r.count("worker.splits_released"), 1.0);
             EXPECT_EQ(r.count("worker.splits_completed"), 4.0);
             EXPECT_EQ(r.rows, 8192u);
         }});

    cases.push_back(
        {.name = "drain handback",
         .corpus =
             [] {
                 return testing::makeMiniWarehouse(
                     smallParams(), 1, 6144, 3072, stripesOf(1024));
             },
         .tweak =
             [](SessionSpec &spec) {
                 spec.rows_per_split = 3072; // 3 stripes per split
                 spec.batch_size = 1024;     // 1 tensor per stripe
             },
         // Preempted while holding split 1 after its first stripe.
         .extract_threads = 1,
         .handback_after_stripes = 4,
         .expect = [](const RunOutcome &r) {
             EXPECT_EQ(r.count("worker.splits_completed"), 1.0);
             EXPECT_EQ(r.count("worker.splits_released"), 1.0);
             EXPECT_EQ(r.rows, 4u * 1024u);
         }});

    FaultInjector::instance().reset();
    for (const DiffCase &c : cases) {
        SCOPED_TRACE(c.name);
        RunOutcome sync = runDiffCase(c, /*threaded=*/false);
        c.expect(sync);
        RunOutcome threaded = runDiffCase(c, /*threaded=*/true);
        EXPECT_EQ(threaded.rows, sync.rows);
        EXPECT_EQ(threaded.batches, sync.batches);
        EXPECT_EQ(threaded.lifecycle, sync.lifecycle);
        expectSameReadStats(threaded.read, sync.read);
    }
    FaultInjector::instance().reset();
}

TEST_F(DppParallelTest, ByteCapRespectedUnderConcurrentProducers)
{
    auto spec = makeSpec(mw_, {0, 1});
    WorkerOptions wo;
    wo.buffer_capacity = 10000;        // count cap out of the way
    wo.buffer_bytes_capacity = 64_KiB; // tight byte cap
    wo.num_extract_threads = 2;
    wo.num_transform_threads = 4; // many concurrent producers
    auto fleet = testing::oneTenantFleet(*mw_.warehouse, spec, wo);
    Worker &worker = fleet->workerAt(0);
    worker.start();

    // Slow consumer: observe the cap while producers race ahead.
    Bytes max_observed = 0;
    Bytes max_tensor = 0;
    uint64_t rows = 0;
    while (!worker.drained()) {
        max_observed = std::max(max_observed, worker.bufferedBytes());
        if (auto t = worker.popTensor()) {
            max_tensor = std::max(max_tensor, t->bytes);
            rows += t->data.rows;
        }
    }
    EXPECT_EQ(rows, 8192u);
    // Producers check the cap under the buffer lock before pushing
    // one tensor, so occupancy never exceeds cap + one tensor.
    EXPECT_GT(max_observed, 0u);
    EXPECT_LE(max_observed, 64_KiB + max_tensor);
}

TEST_F(DppParallelTest, DrainedOnlyAfterAllThreadsQuiesce)
{
    auto spec = makeSpec(mw_, {0});
    WorkerOptions wo;
    wo.buffer_capacity = 4; // force continual backpressure
    wo.num_extract_threads = 2;
    wo.num_transform_threads = 2;
    auto fleet = testing::oneTenantFleet(*mw_.warehouse, spec, wo);
    Worker &worker = fleet->workerAt(0);
    EXPECT_FALSE(worker.drained()); // not started: nothing produced
    worker.start();

    // While the buffer still fills, the worker must not be drained.
    ASSERT_TRUE(eventually([&] { return worker.buffered() > 0; }));
    EXPECT_FALSE(worker.drained());

    uint64_t rows = 0;
    while (!worker.drained()) {
        if (auto t = worker.popTensor())
            rows += t->data.rows;
        else
            std::this_thread::yield();
    }
    // drained() implies: every split completed, every stripe
    // transformed and served, per-thread stats folded into totals.
    EXPECT_EQ(rows, 4096u);
    EXPECT_TRUE(fleet->tenantProgress(0).done());
    EXPECT_FALSE(worker.popTensor().has_value());
    const auto &m = worker.metrics();
    EXPECT_EQ(m.counter("worker.tensors"),
              m.counter("worker.tensors_served"));
    EXPECT_EQ(m.counter("worker.rows_extracted"), 4096.0);
    EXPECT_GT(worker.transformStats().values_produced, 0u);
}

TEST_F(DppParallelTest, ConcurrentPopTensorStress)
{
    auto spec = makeSpec(mw_, {0, 1});
    WorkerOptions wo;
    wo.buffer_capacity = 8; // keep producers and consumers contending
    wo.num_extract_threads = 2;
    wo.num_transform_threads = 2;
    auto fleet = testing::oneTenantFleet(*mw_.warehouse, spec, wo);
    Worker &worker = fleet->workerAt(0);
    worker.start();

    // Many trainer threads hammer popTensor() against the producing
    // pipeline.
    constexpr int kConsumers = 4;
    std::atomic<uint64_t> rows{0};
    std::atomic<uint64_t> tensors{0};
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&] {
            while (!worker.drained()) {
                if (auto t = worker.popTensor()) {
                    EXPECT_LE(t->data.rows, 256u);
                    rows += t->data.rows;
                    ++tensors;
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (auto &t : consumers)
        t.join();
    EXPECT_EQ(rows.load(), 8192u);
    EXPECT_EQ(worker.metrics().counter("worker.tensors_served"),
              static_cast<double>(tensors.load()));
}

TEST_F(DppParallelTest, ParallelSessionDeliversEveryRow)
{
    SessionOptions so;
    so.workers = 3;
    so.clients = 2;
    so.worker.num_extract_threads = 2;
    so.worker.num_transform_threads = 2;
    InProcessSession session(*mw_.warehouse, makeSpec(mw_, {0, 1}),
                             so);
    auto result = session.run();
    EXPECT_EQ(result.rows_delivered, 8192u);
    EXPECT_GT(result.tensors_delivered, 0u);
    EXPECT_GT(result.tensor_bytes, 0u);
    EXPECT_EQ(result.worker_failures, 0u);
    EXPECT_GT(result.read_stats.bytes_read, 0u);
    EXPECT_GT(result.transform_stats.values_produced, 0u);
}

TEST_F(DppParallelTest, ParallelSessionSurvivesWorkerFailure)
{
    SessionOptions so;
    so.workers = 3;
    so.clients = 1;
    so.worker.num_extract_threads = 2;
    so.worker.num_transform_threads = 2;
    InProcessSession session(*mw_.warehouse, makeSpec(mw_, {0, 1}),
                             so);
    auto result = session.run(nullptr, /*fail_after_splits=*/2);
    EXPECT_EQ(result.worker_failures, 1u);
    // The victim loses its buffered tensors and queued stripes; its
    // requeued in-flight splits (at most one per extract thread) may
    // be reprocessed, duplicating up to that many splits of rows.
    // Every split still completes (asserted inside run()).
    EXPECT_GT(result.rows_delivered, 0u);
    EXPECT_LE(result.rows_delivered, 8192u + 2ull * 1024ull);
}

TEST_F(DppParallelTest, SingleKnobImpliesBothStages)
{
    // Setting only num_transform_threads still gives the pipeline an
    // extract thread (and vice versa).
    auto spec = makeSpec(mw_, {0});
    WorkerOptions wo;
    wo.buffer_capacity = 10000;
    wo.num_transform_threads = 2;
    auto fleet = testing::oneTenantFleet(*mw_.warehouse, spec, wo);
    Worker &worker = fleet->workerAt(0);
    ASSERT_TRUE(worker.parallel());
    worker.start();
    uint64_t rows = 0;
    for (auto &t : drainWorker(worker))
        rows += t.data.rows;
    EXPECT_EQ(rows, 4096u);
    EXPECT_EQ(worker.metrics().gauge("worker.extract_threads"), 1.0);
    EXPECT_EQ(worker.metrics().gauge("worker.transform_threads"),
              2.0);
}

} // namespace
} // namespace dsi::dpp
