/**
 * @file
 * Tests for trainer-side models (Figs. 8, Table VII) and the release
 * process / fleet scheduling (Figs. 4, 5, 6; Section VII).
 */

#include <gtest/gtest.h>

#include "sched/fleet.h"
#include "sched/model_fleet.h"
#include "sched/release.h"
#include "test_fixtures.h"
#include "trainer/gpu_model.h"
#include "trainer/trainer.h"

namespace dsi {
namespace {

using namespace trainer;
using namespace sched;

TEST(LoadingUtil, ScalesLinearlyWithRate)
{
    sim::TrainerHostSpec host;
    sim::DatacenterTax tax;
    auto u1 = loadingUtilization(host, tax, 4e9);
    auto u2 = loadingUtilization(host, tax, 8e9);
    EXPECT_NEAR(u2.cpu, 2 * u1.cpu, 1e-9);
    EXPECT_NEAR(u2.membw, 2 * u1.membw, 1e-9);
    EXPECT_NEAR(u2.nic, 2 * u1.nic, 1e-9);
}

TEST(LoadingUtil, MatchesPaperAtRm1Rate)
{
    // Section VI-B: at RM1's 16.5 GB/s pure loading needs ~40% of
    // CPU cycles and ~55% of memory bandwidth.
    sim::TrainerHostSpec host;
    sim::DatacenterTax tax;
    auto u = loadingUtilization(host, tax, 16.5e9);
    EXPECT_NEAR(u.cpu, 0.40, 0.05);
    EXPECT_NEAR(u.membw, 0.55, 0.05);
    EXPECT_GT(u.nic, 0.5); // approaching NIC saturation
}

TEST(LoadingUtil, TlsOffloadCutsMemBw)
{
    sim::TrainerHostSpec host;
    auto full =
        loadingUtilization(host, sim::DatacenterTax{}, 16.5e9);
    auto off =
        loadingUtilization(host, sim::taxWithTlsOffload(), 16.5e9);
    EXPECT_LT(off.membw, full.membw);
    EXPECT_LT(off.cpu, full.cpu);
}

TEST(OnHost, Rm1StallsMatchTableVII)
{
    // Table VII: 56% of GPU cycles stalled, 92% CPU, 54% memBW.
    auto r = onHostPreprocessing(warehouse::rm1(),
                                 sim::TrainerHostSpec{},
                                 sim::DatacenterTax{});
    EXPECT_NEAR(r.stall_fraction, 0.56, 0.08);
    EXPECT_GT(r.cpu_util, 0.85);
    EXPECT_NEAR(r.membw_util, 0.54, 0.12);
}

TEST(OnHost, StallSeverityTracksTrainerDemand)
{
    auto host = sim::TrainerHostSpec{};
    auto r1 = onHostPreprocessing(warehouse::rm1(), host,
                                  sim::DatacenterTax{});
    auto r2 = onHostPreprocessing(warehouse::rm2(), host,
                                  sim::DatacenterTax{});
    auto r3 = onHostPreprocessing(warehouse::rm3(), host,
                                  sim::DatacenterTax{});
    // RM1 and RM3 drive far more samples/s than a host can
    // preprocess; RM2's modest 4.69 GB/s demand nearly fits, so its
    // stall is the mildest of the three.
    EXPECT_GT(r1.stall_fraction, 0.40);
    EXPECT_GT(r3.stall_fraction, 0.50);
    EXPECT_LT(r2.stall_fraction, r1.stall_fraction);
    EXPECT_LT(r2.stall_fraction, r3.stall_fraction);
    EXPECT_LT(r1.supply_qps, r1.demand_qps);
    EXPECT_LT(r3.supply_qps, r3.demand_qps);
}

TEST(GpuModel, IntensityExplainsThroughputSpread)
{
    // Table VIII: throughput diversity comes from compute-per-sample
    // differences. Back out each model's FLOPs/sample and verify the
    // round trip reproduces the published GB/s.
    GpuNodeSpec node;
    for (const auto &rm : warehouse::allRms()) {
        double flops = modelFlopsPerSample(rm, node);
        EXPECT_GT(flops, 1e6) << rm.name;  // MFLOPs-scale per sample
        EXPECT_LT(flops, 1e10) << rm.name;
        double bps =
            ingestDemandBps(flops, rm.tensor_per_sample, node);
        EXPECT_NEAR(bps / 1e9, rm.trainer_node_gbps,
                    rm.trainer_node_gbps * 1e-9);
    }
    // RM3 is the lightest model per sample (hence the huge QPS).
    EXPECT_LT(modelFlopsPerSample(warehouse::rm3(), node),
              modelFlopsPerSample(warehouse::rm1(), node));
}

TEST(GpuModel, BetterAcceleratorsRaiseDsiDemand)
{
    // The paper projects ~3.5x ingestion growth partly from improved
    // hardware: doubling effective FLOPs doubles demand.
    GpuNodeSpec today;
    GpuNodeSpec next = today;
    next.efficiency *= 1.4;
    next.peak_flops_per_gpu *= 2.0;
    auto rm = warehouse::rm1();
    double flops = modelFlopsPerSample(rm, today);
    double d0 = ingestDemandBps(flops, rm.tensor_per_sample, today);
    double d1 = ingestDemandBps(flops, rm.tensor_per_sample, next);
    EXPECT_NEAR(d1 / d0, 2.8, 1e-9);
}

TEST(StallProbe, MoreWorkersReduceStalls)
{
    warehouse::SchemaParams p;
    p.name = "tbl";
    p.float_features = 16;
    p.sparse_features = 8;
    p.avg_length = 6;
    p.seed = 3;
    // 8 files of 1024 rows -> 8 splits; each pump yields 8 tensors.
    auto mw = testing::makeMiniWarehouse(p, 1, 8192, 1024);

    dpp::SessionSpec spec;
    spec.table = "tbl";
    spec.partitions = {0};
    spec.projection = warehouse::chooseProjection(
        mw.schema, mw.popularity, 8, 4, 5);
    spec.setTransforms(transforms::makeModelGraph(
        mw.schema, spec.projection, transforms::ModelGraphParams{}));
    spec.batch_size = 128;
    spec.rows_per_split = 512;

    // One worker produces 8 tensors/round against a demand of 12: it
    // stalls. Four workers produce 32/round: no stalls.
    auto starved = measureStallRounds(*mw.warehouse, spec, 1, 12);
    auto fed = measureStallRounds(*mw.warehouse, spec, 4, 12);
    EXPECT_GT(starved.stallFraction(), fed.stallFraction());
    EXPECT_GT(starved.tensors, 0u);
    EXPECT_EQ(fed.tensors, starved.tensors); // same dataset
    // Pinned: 8 splits x 8 tensors. The lone worker misses the demand
    // in every round; four workers meet it until the last, which
    // drains the dataset and so is no stall.
    EXPECT_EQ(starved.rounds, 8u);
    EXPECT_EQ(starved.stalled_rounds, 8u);
    EXPECT_EQ(starved.tensors, 64u);
    EXPECT_EQ(fed.rounds, 6u);
    EXPECT_EQ(fed.stalled_rounds, 0u);
    EXPECT_EQ(fed.tensors, 64u);
}

TEST(Release, JobCountsAndPhases)
{
    ReleaseParams params;
    auto jobs = generateIteration("RM1", params, 0.0, 42);
    uint32_t explore = 0, combo = 0, rc = 0;
    for (const auto &j : jobs) {
        switch (j.phase) {
          case JobPhase::Exploratory:
            ++explore;
            break;
          case JobPhase::Combo:
            ++combo;
            break;
          case JobPhase::ReleaseCandidate:
            ++rc;
            break;
        }
        EXPECT_GE(j.start_day, j.submit_day);
        EXPECT_GT(j.end_day, j.start_day);
    }
    EXPECT_EQ(explore, params.exploratory_jobs);
    EXPECT_EQ(combo, params.combo_jobs);
    EXPECT_EQ(rc, params.release_candidates);
}

TEST(Release, ComboJobsShowFig4Shape)
{
    ReleaseParams params;
    auto jobs = generateIteration("RM1", params, 0.0, 42);
    std::vector<const TrainingJob *> combos;
    for (const auto &j : jobs)
        if (j.phase == JobPhase::Combo)
            combos.push_back(&j);
    ASSERT_EQ(combos.size(), 82u);

    // Status mix: many jobs fail or are killed.
    uint32_t bad = 0;
    double max_dur = 0, min_start = 1e9, max_start = 0;
    for (const auto *j : combos) {
        bad += j->status != JobStatus::Succeeded;
        max_dur = std::max(max_dur, j->duration());
        min_start = std::min(min_start, j->start_day);
        max_start = std::max(max_start, j->start_day);
    }
    EXPECT_GT(bad, 82u * 0.35);
    EXPECT_LT(bad, 82u * 0.75);
    // Long-tail durations: some jobs run past 10 days.
    EXPECT_GT(max_dur, 10.0);
    // Large temporal skew between starts (asynchronous launches).
    EXPECT_GT(max_start - min_start, 7.0);
}

TEST(Release, ExploratoryJobsReadSmallTableFraction)
{
    auto jobs = generateIteration("RM1", ReleaseParams{}, 0.0, 7);
    for (const auto &j : jobs) {
        if (j.phase == JobPhase::Exploratory)
            EXPECT_LT(j.table_fraction, 0.07);
        if (j.phase == JobPhase::Combo)
            EXPECT_GT(j.table_fraction, 0.5);
    }
}

TEST(DemandSeries, IntegratesJobIntervals)
{
    DemandSeries series(0.0, 10.0, 1.0);
    TrainingJob job;
    job.start_day = 2.0;
    job.end_day = 5.0;
    job.compute_demand = 2.0;
    series.addJob(job);
    EXPECT_DOUBLE_EQ(series.demand()[1], 0.0);
    EXPECT_DOUBLE_EQ(series.demand()[2], 2.0);
    EXPECT_DOUBLE_EQ(series.demand()[4], 2.0);
    EXPECT_DOUBLE_EQ(series.demand()[5], 0.0);
    EXPECT_DOUBLE_EQ(series.peak(), 2.0);
}

TEST(DemandSeries, ComboWindowsCreatePeaks)
{
    // Fig. 5: the fleet demand curve is bursty, peaking during the
    // (periodically aligned) combo windows.
    DemandSeries series(0.0, 365.0);
    for (int model = 0; model < 10; ++model) {
        double day = (model % 4) * 9.0; // staggered starts
        uint64_t seed = 100 + model;
        while (day < 365.0) {
            auto jobs = generateIteration(
                "M" + std::to_string(model), ReleaseParams{}, day,
                seed++);
            series.addJobs(jobs);
            day += iterationLengthDays(ReleaseParams{});
        }
    }
    EXPECT_GT(series.burstiness(), 1.4);
}

// Uses the shared reference fleet (sched/model_fleet.h).
std::vector<ModelDemand>
tenModels()
{
    return tenModelFleet();
}

TEST(GlobalScheduler, BalancePutsEveryModelEverywhere)
{
    GlobalScheduler sched(fiveRegions());
    auto placement = sched.place(tenModels(),
                                 PlacementPolicy::BalanceAllRegions);
    EXPECT_TRUE(placement.feasible);
    for (const auto &m : tenModels()) {
        EXPECT_EQ(placement.replicaCount(m.model), 5u) << m.model;
        double placed = 0;
        for (const auto &[region, d] : placement.demand.at(m.model))
            placed += d;
        EXPECT_NEAR(placed, m.mean_demand, 1e-9);
    }
}

TEST(GlobalScheduler, BinPackReducesReplicasAndStorage)
{
    GlobalScheduler sched(fiveRegions());
    auto models = tenModels();
    auto balance =
        sched.place(models, PlacementPolicy::BalanceAllRegions);
    auto packed = sched.place(models, PlacementPolicy::BinPack);
    EXPECT_TRUE(packed.feasible);
    EXPECT_LT(packed.total_storage_pb, balance.total_storage_pb);
    for (const auto &m : models)
        EXPECT_LE(packed.replicaCount(m.model), 5u);
    // At least one small model fits in a single region.
    uint32_t min_replicas = 5;
    for (const auto &m : models)
        min_replicas =
            std::min(min_replicas, packed.replicaCount(m.model));
    EXPECT_EQ(min_replicas, 1u);
}

TEST(GlobalScheduler, InfeasiblePeakReported)
{
    GlobalScheduler sched({{"R1", 10}});
    std::vector<ModelDemand> models{{"huge", 50.0, 20.0, 1.0}};
    auto placement = sched.place(models, PlacementPolicy::BinPack);
    EXPECT_FALSE(placement.feasible);
}

TEST(Growth, MatchesFig2Rates)
{
    // Over 8 quarters (two years) dataset > 2x, bandwidth > 4x.
    EXPECT_GT(datasetGrowthFactor(8), 2.0);
    EXPECT_LT(datasetGrowthFactor(8), 2.6);
    EXPECT_GT(bandwidthGrowthFactor(8), 4.0);
    EXPECT_LT(bandwidthGrowthFactor(8), 5.0);
    // Monotone growth.
    EXPECT_GT(datasetGrowthFactor(4), datasetGrowthFactor(2));
    EXPECT_DOUBLE_EQ(datasetGrowthFactor(0), 1.0);
}

} // namespace
} // namespace dsi
