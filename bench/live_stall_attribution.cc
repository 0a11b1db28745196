/**
 * @file
 * Table VII-style stall attribution measured from a *live* traced
 * session, not the analytic trainer model: a parallel DPP session
 * runs with tracing on, and the span forest is rolled up into the
 * read / transform / deliver wall-clock split (trace::StallReport).
 *
 * Also reports the tracing overhead: the same session is run with
 * tracing off and the throughput delta printed — the budget is < 2%
 * (the disabled path is one relaxed atomic load per emission point).
 */

#include <chrono>
#include <cstdio>

#include "common/table_printer.h"
#include "common/trace.h"
#include "common/trace_query.h"
#include "dpp/session.h"
#include "test_fixtures_bench.h"
#include "transforms/graph.h"
#include "warehouse/datagen.h"

using namespace dsi;

namespace {

warehouse::SchemaParams
stallParams()
{
    warehouse::SchemaParams p;
    p.name = "stalls";
    p.float_features = 48;
    p.sparse_features = 24;
    p.avg_length = 8;
    p.coverage_u = 0.5;
    p.seed = 59;
    return p;
}

dpp::SessionSpec
makeSpec(const benchfix::MiniWarehouse &mw)
{
    dpp::SessionSpec spec;
    spec.table = mw.name;
    spec.partitions = {0, 1};
    spec.projection = warehouse::chooseProjection(
        mw.schema, mw.popularity, 12, 8, 7);
    transforms::ModelGraphParams gp;
    gp.derived_features = 6;
    spec.setTransforms(
        transforms::makeModelGraph(mw.schema, spec.projection, gp));
    spec.batch_size = 512;
    spec.rows_per_split = 4096;
    return spec;
}

struct RunOutcome
{
    double seconds = 0.0;
    uint64_t rows = 0;
    std::vector<trace::TraceEvent> events;
};

RunOutcome
runSession(const benchfix::MiniWarehouse &mw, bool traced)
{
    dpp::SessionOptions so;
    so.workers = 2;
    so.clients = 2;
    so.worker.num_extract_threads = 2;
    so.worker.num_transform_threads = 2;
    so.worker.buffer_capacity = 64;
    so.trace.enabled = traced;
    dpp::InProcessSession session(*mw.warehouse, makeSpec(mw), so);

    auto t0 = std::chrono::steady_clock::now();
    auto result = session.run();
    auto t1 = std::chrono::steady_clock::now();

    RunOutcome out;
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    out.rows = result.rows_delivered;
    out.events = session.traceEvents();
    return out;
}

} // namespace

int
main()
{
    auto mw = benchfix::makeMiniWarehouse(stallParams(), 2,
                                          4 * 8192, 2 * 8192);

    // Warm-up (page in the generated files, settle allocators), then
    // one traced run for attribution and untraced runs for overhead.
    runSession(mw, false);
    RunOutcome traced = runSession(mw, true);
    RunOutcome plain = runSession(mw, false);

    std::printf("== live stall attribution (Table VII rollup) ==\n");
    std::printf("rows delivered: %llu in %.3f s (traced run)\n\n",
                static_cast<unsigned long long>(traced.rows),
                traced.seconds);

    trace::TraceQuery query(traced.events);
    trace::StallReport report = query.stallReport();
    std::printf("%s\n", report.render().c_str());

    std::printf("spans: %zu grants, %zu stripe reads, %zu storage "
                "IOs, %zu deliveries\n\n",
                query.count(trace::spans::kMasterGrant),
                query.count(trace::spans::kReaderStripe),
                query.count(trace::spans::kStorageRead),
                query.count(trace::spans::kFleetDeliver));

    double traced_rate = traced.rows / traced.seconds;
    double plain_rate = plain.rows / plain.seconds;
    double overhead_pct =
        100.0 * (plain_rate - traced_rate) / plain_rate;
    TablePrinter overhead({"mode", "rows_per_s", "overhead_pct"});
    overhead.addRow({"untraced", TablePrinter::num(plain_rate, 0),
                     "0.00"});
    overhead.addRow({"traced", TablePrinter::num(traced_rate, 0),
                     TablePrinter::num(overhead_pct, 2)});
    std::printf("%s\n", overhead.render().c_str());
    return 0;
}
