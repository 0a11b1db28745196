/**
 * @file
 * The repository's pipeline benchmark.
 *
 *   pipeline_bench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--source <id>] [--out-dir <dir>]
 *
 * One process runs one named workload through the public API
 * (warehouse::build*Corpus -> dwrf::FileWriter / TectonicCluster ->
 * dpp::InProcessSession::run with a closed-loop trainer sink) and
 * prints, as the last line of stdout, one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * With --trace 0 the metrics are the end-to-end figures; with
 * --trace 1 they are the per-layer figures of a separate,
 * single-threaded replay that times, from this file, each call into
 * a layer's public functions. perfbench/README.md documents every
 * metric, workload and caveat.
 *
 * Every run checks its outputs: exactly-once delivery in every timed
 * pass, an order-independent bitwise digest of one untimed session
 * pass against the digest of the replay, and (ingest) a read-back of
 * the written files against the input rows. A failed check prints
 * the result with correct=false and exits non-zero.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench_core.h"
#include "dpp/session.h"
#include "dwrf/checksum.h"
#include "dwrf/cipher.h"
#include "dwrf/compress.h"
#include "dwrf/reader.h"
#include "dwrf/writer.h"
#include "storage/tectonic.h"
#include "transforms/dedup.h"
#include "transforms/graph.h"
#include "warehouse/corpus.h"

using namespace dsi;
using perfbench::Digest;
using perfbench::nowNs;
using perfbench::Scope;
using perfbench::SpanLog;

namespace {

// ---------------------------------------------------------------
// Process accounting and provenance
// ---------------------------------------------------------------

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
seconds(int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char *>(regs), 48);
        s = s.c_str();
        auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

/**
 * Moves the calling thread round-robin over the CPUs it may run on,
 * one CPU per next(), and restores its CPU mask when destroyed.
 *
 * On a shared host the vCPUs do not run at one speed: a plain compute
 * loop ran up to 1.5x slower on one vCPU than on another at the same
 * moment, and the gap moves as the host places its other tenants. A
 * single busy thread tends to stay on the vCPU it started on, so a
 * single-threaded workload measured the speed of whichever vCPU each
 * run happened to get. Rotating it samples every vCPU in every run,
 * as a threaded workload does by itself. Only threads that start no
 * others may rotate: a thread started while the caller is pinned
 * would inherit the one-CPU mask.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&saved_);
        if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &saved_))
                cpus_.push_back(cpu);
    }
    ~CpuRotation()
    {
        if (moved_)
            sched_setaffinity(0, sizeof(saved_), &saved_);
    }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        moved_ = sched_setaffinity(0, sizeof(one), &one) == 0 || moved_;
    }

  private:
    cpu_set_t saved_;
    std::vector<int> cpus_;
    size_t next_ = 0;
    bool moved_ = false;
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

// ---------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------

/**
 * One workload's fixed shape. The schema, projection and transform
 * graph are pinned per workload; --seed drives the row contents
 * only, so runs with different seeds measure the same amount of work
 * on different data.
 */
struct Workload
{
    std::string name;
    warehouse::SchemaParams schema;
    bool duplicated = false;
    warehouse::DupParams dup;
    dwrf::WriterOptions writer;
    uint32_t partitions = 2;
    uint64_t rows_per_partition = 16384;
    uint64_t rows_per_file = 8192;
    /** Projection size; 0/0 projects every stored feature. */
    uint32_t dense_used = 0;
    uint32_t sparse_used = 0;
    transforms::ModelGraphParams graph;
    uint32_t batch_size = 512;
    uint64_t rows_per_split = 4096;
    dpp::WorkerOptions worker;
    /** ingest: write files instead of training from a corpus. */
    bool ingest = false;
    uint32_t ingest_chunks = 32;
    uint32_t ingest_rows_per_file = 96;
    /** Files kept in storage while ingesting (older ones removed). */
    uint32_t ingest_keep = 4;
};

/** The paper's Table V shape: ~180 features, 10-20% projected. */
Workload
readWide()
{
    Workload w;
    w.name = "read_wide";
    w.schema.name = "read_wide";
    w.schema.float_features = 120;
    w.schema.sparse_features = 60;
    w.schema.avg_length = 10;
    w.schema.coverage_u = 0.45;
    w.schema.seed = 42;
    w.writer.codec = dwrf::Codec::Lz;
    w.writer.encrypt = true;
    w.writer.rows_per_stripe = 2048;
    w.partitions = 2;
    w.rows_per_partition = 16384;
    w.rows_per_file = 8192;
    w.dense_used = 18;
    w.sparse_used = 9;
    // A light graph, so that the read path stays the largest layer.
    w.graph.derived_features = 2;
    w.graph.normalize_fraction = 0.5;
    w.rows_per_split = 4096;
    w.worker.num_extract_threads = 2;
    w.worker.num_transform_threads = 1;
    return w;
}

/** Narrow table, whole projection, heavy Table XI graph, sync engine. */
Workload
transformHeavy()
{
    Workload w;
    w.name = "transform_heavy";
    w.schema.name = "transform_heavy";
    w.schema.float_features = 16;
    w.schema.sparse_features = 8;
    w.schema.avg_length = 12;
    w.schema.coverage_u = 0.6;
    w.schema.seed = 43;
    w.writer.encrypt = true;
    // One batch per stripe: the synchronous engine delivers a stripe's
    // batches back to back, so with several per stripe the median gap
    // would time only the client's pop between them.
    w.writer.rows_per_stripe = 512;
    w.partitions = 2;
    w.rows_per_partition = 8192;
    w.rows_per_file = 8192;
    w.graph.derived_features = 16;
    w.rows_per_split = 4096;
    // WorkerOptions{}: the library-default synchronous pump() engine.
    return w;
}

/** RecD shape: Zipf-duplicated payloads, dict encoding, batch dedup. */
Workload
dupZipf()
{
    Workload w;
    w.name = "dup_zipf";
    w.schema.name = "dup_zipf";
    w.schema.float_features = 12;
    w.schema.sparse_features = 10;
    w.schema.avg_length = 16;
    w.schema.coverage_u = 0.6;
    w.schema.seed = 44;
    w.duplicated = true;
    w.dup.pool_size = 384;
    w.dup.alpha = 1.05;
    w.writer.encrypt = true;
    w.writer.rows_per_stripe = 2048;
    w.writer.dedup = true;
    w.partitions = 2;
    w.rows_per_partition = 16384;
    w.rows_per_file = 8192;
    w.graph.derived_features = 8;
    w.rows_per_split = 4096;
    w.worker.num_extract_threads = 1;
    w.worker.num_transform_threads = 2;
    w.worker.dedup_enabled = true;
    return w;
}

/** read_wide's table shape, written as new files on one thread. */
Workload
ingest()
{
    Workload w = readWide();
    w.name = "ingest";
    w.schema.name = "ingest";
    w.ingest = true;
    // Small files, so that a run commits well over a thousand of them
    // and the p99 commit gap has ten or more samples beyond it; 32
    // distinct chunks, so that consecutive commits write different
    // data and set-up is not dominated by fixed costs.
    w.ingest_chunks = 32;
    w.ingest_rows_per_file = 96;
    w.ingest_keep = 4;
    return w;
}

std::optional<Workload>
findWorkload(const std::string &name)
{
    for (auto make : {readWide, transformHeavy, dupZipf, ingest}) {
        Workload w = make();
        if (w.name == name)
            return w;
    }
    return std::nullopt;
}

// ---------------------------------------------------------------
// Storage wrapper: times every readChecked call of a replay
// ---------------------------------------------------------------

struct StorageCounters
{
    uint64_t calls = 0;
    uint64_t bytes = 0;
    uint64_t failures = 0;
};

class TimedSource : public dwrf::RandomAccessSource
{
  public:
    TimedSource(std::unique_ptr<storage::TectonicSource> inner,
                SpanLog &log, StorageCounters &counters)
        : inner_(std::move(inner)), log_(log), counters_(counters)
    {
    }

    Bytes size() const override { return inner_->size(); }

    void read(Bytes offset, Bytes len, dwrf::Buffer &out) const override
    {
        Scope s(log_, "storage.read");
        inner_->read(offset, len, out);
        ++counters_.calls;
        counters_.bytes += out.size();
    }

    dwrf::IoStatus readChecked(Bytes offset, Bytes len,
                               dwrf::Buffer &out) const override
    {
        dwrf::IoStatus st;
        {
            Scope s(log_, "storage.read");
            st = inner_->readChecked(offset, len, out);
        }
        ++counters_.calls;
        if (st == dwrf::IoStatus::Ok)
            counters_.bytes += out.size();
        else
            ++counters_.failures;
        return st;
    }

    void reportCorruption(Bytes offset, Bytes len) const override
    {
        inner_->reportCorruption(offset, len);
    }

    const dwrf::IoTrace &trace() const override { return inner_->trace(); }
    void clearTrace() override { inner_->clearTrace(); }

  private:
    std::unique_ptr<storage::TectonicSource> inner_;
    SpanLog &log_;
    StorageCounters &counters_;
};

// ---------------------------------------------------------------
// Corpus + session spec
// ---------------------------------------------------------------

struct Corpus
{
    warehouse::MiniCorpus mc; ///< owner of the data (training)
    const warehouse::Warehouse *wh = nullptr;
    dpp::SessionSpec spec;
    transforms::TransformGraph graph;
    uint64_t rows = 0;
    Bytes stored_bytes = 0;
    uint64_t splits = 0;
};

uint64_t
rowSeed(uint64_t seed)
{
    return seed * 0x9e3779b97f4a7c15ULL + 0x5eed;
}

/** Session spec over every partition of the workload's table. */
dpp::SessionSpec
makeSpec(const Workload &w, const warehouse::Warehouse &wh,
         transforms::TransformGraph &graph)
{
    const warehouse::Table &table = *wh.findTable(w.schema.name);
    const warehouse::TableSchema &schema = table.schema();
    dpp::SessionSpec spec;
    spec.table = w.schema.name;
    for (const auto &p : table.partitions())
        spec.partitions.push_back(p.id);
    if (w.dense_used + w.sparse_used > 0) {
        // Same popularity weights as warehouse::buildCorpusFrom draws.
        auto pop = warehouse::featurePopularity(
            schema, w.schema.popularity_alpha, w.schema.seed ^ 0x9999);
        spec.projection = warehouse::chooseProjection(
            schema, pop, w.dense_used, w.sparse_used,
            w.schema.seed ^ 0x77);
    } else {
        for (const auto &f : schema.features)
            spec.projection.push_back(f.id);
    }
    transforms::ModelGraphParams gp = w.graph;
    gp.seed = w.schema.seed ^ 0x33;
    graph = transforms::makeModelGraph(schema, spec.projection, gp);
    spec.setTransforms(graph);
    spec.batch_size = w.batch_size;
    spec.rows_per_split = w.rows_per_split;
    return spec;
}

/** A split as the Master packs it: consecutive stripes of one file. */
struct ReplaySplit
{
    std::string file;
    uint32_t first_stripe = 0;
    uint32_t stripe_count = 0;
};

std::vector<ReplaySplit>
packSplits(const warehouse::Warehouse &wh, const dpp::SessionSpec &spec)
{
    std::vector<ReplaySplit> out;
    const warehouse::Table *table = wh.findTable(spec.table);
    for (PartitionId pid : spec.partitions) {
        for (const auto &file : table->findPartition(pid)->files) {
            auto source = wh.cluster().open(file);
            dwrf::FileReader reader(*source, dwrf::ReadOptions{});
            const auto &stripes = reader.footer().stripes;
            uint32_t begin = 0;
            uint64_t rows = 0;
            for (uint32_t s = 0; s < stripes.size(); ++s) {
                rows += stripes[s].rows;
                if (rows >= spec.rows_per_split ||
                    s + 1 == stripes.size()) {
                    out.push_back({file, begin, s - begin + 1});
                    begin = s + 1;
                    rows = 0;
                }
            }
        }
    }
    return out;
}

dpp::SessionOptions
sessionOptions(const Workload &w)
{
    dpp::SessionOptions o;
    o.workers = 1;
    o.clients = 1;
    o.worker = w.worker;
    return o;
}

Corpus
buildTrainingCorpus(const Workload &w, uint64_t seed)
{
    Corpus c;
    if (w.duplicated) {
        warehouse::DupParams dp = w.dup;
        dp.seed = rowSeed(seed);
        c.mc = warehouse::buildDupMiniCorpus(
            w.schema, dp, w.partitions, w.rows_per_partition,
            w.rows_per_file, w.writer);
    } else {
        uint64_t rs = rowSeed(seed);
        c.mc = warehouse::buildCorpusFrom(
            w.schema,
            [rs](const warehouse::TableSchema &schema) {
                return warehouse::RowGenerator(schema, rs);
            },
            w.partitions, w.rows_per_partition, w.rows_per_file,
            w.writer, storage::StorageOptions{});
    }
    c.wh = c.mc.warehouse.get();
    c.spec = makeSpec(w, *c.wh, c.graph);
    c.rows = c.mc.table().totalRows();
    c.stored_bytes = c.mc.table().totalBytes();
    c.splits = packSplits(*c.wh, c.spec).size();
    return c;
}

// ---------------------------------------------------------------
// Timed session passes
// ---------------------------------------------------------------

/** What one session pass delivered, as the trainer saw it. */
struct PassResult
{
    double wall_s = 0;
    double cpu_s = 0;
    uint64_t rows = 0;
    uint64_t batches = 0;
    std::vector<double> gaps_us;
    bool exactly_once = true;
    dpp::SessionResult session;
};

/**
 * Run one session over the corpus. The sink is the closed-loop
 * trainer: the session calls it once per delivered batch and asks
 * for the next only after it returns. The gap before each delivery
 * is measured from the end of the previous one (for the first, from
 * the start of the pass).
 */
PassResult
runPass(const Corpus &c, const Workload &w,
        std::unique_ptr<dpp::InProcessSession> session, Digest *digest)
{
    PassResult r;
    std::vector<uint64_t> keys;
    keys.reserve(c.rows / w.batch_size + 16);
    double cpu0 = cpuSeconds();
    int64_t t0 = nowNs();
    if (!session)
        session = std::make_unique<dpp::InProcessSession>(
            *c.wh, c.spec, sessionOptions(w));
    int64_t last = nowNs();
    r.session = session->run([&](ClientId, const dpp::TensorBatch &t) {
        int64_t now = nowNs();
        r.gaps_us.push_back(static_cast<double>(now - last) * 1e-3);
        keys.push_back(t.split_id << 32 | t.first_row);
        r.rows += t.data.rows;
        ++r.batches;
        if (digest)
            digest->add(t.data);
        last = nowNs();
    });
    r.wall_s = seconds(nowNs() - t0);
    r.cpu_s = cpuSeconds() - cpu0;
    std::sort(keys.begin(), keys.end());
    r.exactly_once =
        std::adjacent_find(keys.begin(), keys.end()) == keys.end() &&
        r.rows == c.rows && r.session.splits_failed == 0;
    return r;
}

// ---------------------------------------------------------------
// Replay: the worker's per-split calls, single-threaded, timed here
// ---------------------------------------------------------------

struct ReplayResult
{
    Digest digest;
    double wall_s = 0; ///< replay time minus benchmark-owned work
    double cpu_s = 0;
    dwrf::ReadStats read;
    StorageCounters storage;
    uint64_t rows_in = 0;        ///< rows handed to CompiledGraph::apply
    uint64_t dedup_rows = 0;     ///< rows planned for dedup
    uint64_t dedup_unique = 0;   ///< unique rows among them
};

/**
 * Replay the corpus once as one worker would: per split, open the
 * file through storage and construct a FileReader; per stripe,
 * readStripe; per mini-batch, sliceBatch then (when `dedup`) plan /
 * gather / apply once / expand, else apply. Digest time is measured
 * and excluded from wall_s and cpu_s.
 */
ReplayResult
replayRead(const warehouse::Warehouse &wh, const dpp::SessionSpec &spec,
           const transforms::TransformGraph &tg, bool dedup, SpanLog &log)
{
    ReplayResult r;
    auto splits = packSplits(wh, spec);
    transforms::CompiledGraph graph(tg);
    const bool row_local = dedup && transforms::rowLocal(graph);
    dwrf::ReadOptions read = spec.read;
    read.projection = spec.projection;
    auto apply = [&](dwrf::RowBatch &b) {
        r.rows_in += b.rows;
        Scope s(log, "transforms.apply");
        graph.apply(b);
    };
    dwrf::RowBatch stripe;
    int64_t bench_ns = 0;
    double cpu0 = cpuSeconds();
    int64_t t0 = nowNs();
    Scope root(log, "replay");
    for (const auto &split : splits) {
        TimedSource source(wh.cluster().open(split.file), log,
                           r.storage);
        std::optional<dwrf::FileReader> reader;
        {
            Scope s(log, "dwrf.open");
            reader.emplace(source, read);
        }
        for (uint32_t k = 0; k < split.stripe_count; ++k) {
            dwrf::ReadStatus st;
            {
                Scope s(log, "dwrf.read_stripe");
                st = reader->readStripe(split.first_stripe + k,
                                        stripe);
            }
            if (st != dwrf::ReadStatus::Ok)
                break;
            for (uint32_t start = 0; start < stripe.rows;
                 start += spec.batch_size) {
                dwrf::RowBatch batch;
                {
                    Scope s(log, "dpp.slice");
                    batch = dwrf::sliceBatch(stripe, start,
                                             spec.batch_size);
                }
                if (row_local) {
                    transforms::BatchDedupPlan plan;
                    {
                        Scope s(log, "transforms.dedup_plan");
                        plan = transforms::planBatchDedup(batch);
                    }
                    r.dedup_rows += batch.rows;
                    r.dedup_unique += plan.unique_rows.size();
                    if (plan.collapsed()) {
                        std::vector<float> labels =
                            std::move(batch.labels);
                        dwrf::RowBatch unique;
                        {
                            Scope s(log, "transforms.dedup_gather");
                            unique = transforms::gatherRows(
                                batch, plan.unique_rows);
                        }
                        apply(unique);
                        Scope s(log, "transforms.dedup_expand");
                        batch = labels.empty()
                            ? transforms::gatherRows(unique,
                                                     plan.inverse)
                            : transforms::expandBatch(unique, plan,
                                                      labels);
                    } else {
                        apply(batch);
                    }
                } else {
                    apply(batch);
                }
                int64_t d0 = nowNs();
                {
                    Scope s(log, "bench.digest");
                    r.digest.add(batch);
                }
                bench_ns += nowNs() - d0;
            }
        }
        r.read.merge(reader->stats());
    }
    r.wall_s = seconds(nowNs() - t0 - bench_ns);
    r.cpu_s = cpuSeconds() - cpu0 - seconds(bench_ns);
    return r;
}

void
merge(ReplayResult &into, const ReplayResult &r)
{
    into.digest.lane_a += r.digest.lane_a;
    into.digest.lane_b += r.digest.lane_b;
    into.digest.batches += r.digest.batches;
    into.digest.rows += r.digest.rows;
    into.wall_s += r.wall_s;
    into.cpu_s += r.cpu_s;
    into.read.merge(r.read);
    into.storage.calls += r.storage.calls;
    into.storage.bytes += r.storage.bytes;
    into.storage.failures += r.storage.failures;
    into.rows_in += r.rows_in;
    into.dedup_rows += r.dedup_rows;
    into.dedup_unique += r.dedup_unique;
}

/** Replay passes of a traced run; per-layer totals cover all of them. */
constexpr int kReplayPasses = 3;

/** Untraced and traced replays of one traced run. */
struct ReplayPair
{
    ReplayResult off;
    ReplayResult on;
};

/**
 * kReplayPasses untraced and traced replays, alternating, so that
 * their difference (the tracing overhead) is not swamped by drift in
 * host speed between two separate batches.
 */
ReplayPair
replayPair(const warehouse::Warehouse &wh, const dpp::SessionSpec &spec,
           const transforms::TransformGraph &tg, bool dedup, SpanLog &log)
{
    ReplayPair p;
    SpanLog off(false);
    for (int i = 0; i < kReplayPasses; ++i) {
        merge(p.off, replayRead(wh, spec, tg, dedup, off));
        merge(p.on, replayRead(wh, spec, tg, dedup, log));
    }
    return p;
}

/**
 * Sub-step probes of the read path. FileReader::readStripe does CRC
 * verification, decryption and decompression internally; here the
 * same stored stream bytes (located through footer() and
 * planStripeReads, fetched outside any span) go through
 * dwrf::crc32, StreamCipher::apply and dwrf::decompress one by one,
 * split by split as the replay reads them (shared dictionaries once
 * per split, as each split's fresh reader loads them). When
 * `dedup_probe`, each mini-batch also goes through plan / gather /
 * expand, which the worker skips on workloads that bypass dedup.
 */
struct ProbeCounters
{
    uint64_t failures = 0; ///< streams that failed fetch, CRC or codec
    uint64_t dedup_rows = 0;
    uint64_t dedup_unique = 0;
};

void
probeRead(const warehouse::Warehouse &wh, const dpp::SessionSpec &spec,
          bool dedup_probe, SpanLog &log, ProbeCounters &counters)
{
    uint64_t &failures = counters.failures;
    auto splits = packSplits(wh, spec);
    dwrf::ReadOptions read = spec.read;
    read.projection = spec.projection;
    dwrf::StreamCipher cipher(read.cipher_key);
    std::vector<FeatureId> proj = spec.projection;
    std::sort(proj.begin(), proj.end());
    auto projected = [&](FeatureId f) {
        return proj.empty() ||
               std::binary_search(proj.begin(), proj.end(), f);
    };
    dwrf::RowBatch stripe;
    for (const auto &split : splits) {
        auto source = wh.cluster().open(split.file);
        dwrf::FileReader reader(*source, read);
        const dwrf::FileFooter &footer = reader.footer();
        std::vector<FeatureId> dicts_loaded;
        for (uint32_t k = 0; k < split.stripe_count; ++k) {
            const auto &si = footer.stripes[split.first_stripe + k];
            std::vector<size_t> wanted;
            for (size_t i = 0; i < si.streams.size(); ++i)
                if (si.streams[i].feature == dwrf::kNoFeature ||
                    projected(si.streams[i].feature))
                    wanted.push_back(i);
            std::vector<const dwrf::StreamInfo *> infos;
            std::vector<dwrf::Buffer> stored;
            auto plan = dwrf::planStripeReads(si, wanted, read.coalesce,
                                              read.coalesce_gap);
            bool fetched = true;
            for (const auto &io : plan) {
                dwrf::Buffer data;
                if (source->readChecked(io.offset, io.length, data) !=
                        dwrf::IoStatus::Ok ||
                    data.size() != io.length) {
                    fetched = false;
                    break;
                }
                for (size_t idx : io.stream_indices) {
                    const auto &s = si.streams[idx];
                    auto rel = static_cast<ptrdiff_t>(s.offset - io.offset);
                    stored.emplace_back(
                        data.begin() + rel,
                        data.begin() + rel +
                            static_cast<ptrdiff_t>(s.length));
                    infos.push_back(&s);
                    if (s.kind == dwrf::StreamKind::SparseListDict &&
                        std::find(dicts_loaded.begin(),
                                  dicts_loaded.end(),
                                  s.feature) == dicts_loaded.end()) {
                        dicts_loaded.push_back(s.feature);
                        const auto *d = footer.sharedDictFor(s.feature);
                        dwrf::Buffer dict;
                        if (d != nullptr &&
                            source->readChecked(d->offset, d->length,
                                                dict) == dwrf::IoStatus::Ok) {
                            stored.push_back(std::move(dict));
                            infos.push_back(d);
                        }
                    }
                }
            }
            if (!fetched) {
                ++failures;
                continue;
            }
            {
                Scope s(log, "probe.crc");
                for (size_t i = 0; i < stored.size(); ++i)
                    failures += dwrf::crc32(stored[i]) != infos[i]->checksum;
            }
            if (footer.encrypted) {
                Scope s(log, "probe.decrypt");
                for (size_t i = 0; i < stored.size(); ++i)
                    cipher.apply(infos[i]->offset, stored[i]);
            }
            {
                Scope s(log, "probe.decompress");
                for (auto &b : stored) {
                    auto raw = dwrf::decompress(footer.codec, b);
                    if (raw)
                        b.swap(*raw);
                    else
                        ++failures;
                }
            }
            if (!dedup_probe)
                continue;
            if (reader.readStripe(split.first_stripe + k, stripe) !=
                dwrf::ReadStatus::Ok)
                continue;
            for (uint32_t start = 0; start < stripe.rows;
                 start += spec.batch_size) {
                dwrf::RowBatch batch =
                    dwrf::sliceBatch(stripe, start, spec.batch_size);
                transforms::BatchDedupPlan plan;
                {
                    Scope s(log, "probe.dedup_plan");
                    plan = transforms::planBatchDedup(batch);
                }
                counters.dedup_rows += batch.rows;
                counters.dedup_unique += plan.unique_rows.size();
                dwrf::RowBatch unique;
                {
                    Scope s(log, "probe.dedup_gather");
                    unique = transforms::gatherRows(batch,
                                                    plan.unique_rows);
                }
                Scope s(log, "probe.dedup_expand");
                dwrf::RowBatch full =
                    transforms::expandBatch(unique, plan, batch.labels);
            }
        }
    }
}

// ---------------------------------------------------------------
// Write path: timed FileWriter / put calls
// ---------------------------------------------------------------

/**
 * CRC32 of every stored stream of a finished file (the writer probe),
 * checked against the footer; returns the streams that disagree.
 */
uint64_t
crcWrittenStreams(const dwrf::FileFooter &footer, const dwrf::Buffer &file)
{
    uint64_t bad = 0;
    auto one = [&](const dwrf::StreamInfo &s) {
        if (s.offset + s.length > file.size()) {
            ++bad;
            return;
        }
        bad += dwrf::crc32(dwrf::ByteSpan(file.data() + s.offset,
                                          s.length)) != s.checksum;
    };
    for (const auto &st : footer.stripes)
        for (const auto &s : st.streams)
            one(s);
    for (const auto &s : footer.shared_dicts)
        one(s);
    return bad;
}

/** Bytes a traced write path stored, and streams whose CRC failed. */
struct WriteTotals
{
    Bytes bytes = 0;
    uint64_t crc_failures = 0;
};

/**
 * Write one file of `rows` as buildCorpusFrom and ingest do. With
 * a recording log, the written streams also go through the CRC probe
 * (counted in `totals`).
 */
Bytes
writeFile(storage::TectonicCluster &cluster, const std::string &name,
          const std::vector<dwrf::Row> &rows,
          const dwrf::WriterOptions &options, SpanLog &log,
          WriteTotals *totals = nullptr)
{
    dwrf::FileWriter writer(options);
    {
        Scope s(log, "dwrf.write_append");
        writer.appendRows(rows);
    }
    dwrf::Buffer bytes;
    {
        Scope s(log, "dwrf.write_finish");
        bytes = writer.finish();
    }
    if (totals != nullptr) {
        Scope s(log, "probe.write_crc");
        totals->crc_failures += crcWrittenStreams(writer.footer(), bytes);
        totals->bytes += bytes.size();
    }
    {
        Scope s(log, "storage.put");
        cluster.put(name, bytes);
    }
    return bytes.size();
}

/**
 * Re-build a training corpus with every datagen, append, finish and
 * put call timed (the set-up's write path, layer by layer). Rows and
 * file layout match buildTrainingCorpus.
 */
void
traceCorpusWrite(const Workload &w, uint64_t seed, SpanLog &log,
                 WriteTotals &totals)
{
    storage::TectonicCluster cluster{storage::StorageOptions{}};
    auto schema = warehouse::makeSchema(w.schema);
    std::optional<warehouse::RowGenerator> plain;
    std::optional<warehouse::DupRowGenerator> dup;
    if (w.duplicated) {
        warehouse::DupParams dp = w.dup;
        dp.seed = rowSeed(seed);
        dup.emplace(schema, dp);
    } else {
        plain.emplace(schema, rowSeed(seed));
    }
    Scope root(log, "write");
    // Generated rows are freed inside the next datagen span (the
    // assignment drops them), so their teardown counts as datagen.
    std::vector<dwrf::Row> rows;
    for (uint32_t p = 0; p < w.partitions; ++p) {
        uint64_t remaining = w.rows_per_partition;
        uint32_t f = 0;
        while (remaining > 0) {
            auto n = static_cast<uint32_t>(
                std::min(remaining, w.rows_per_file));
            {
                Scope s(log, "warehouse.datagen");
                rows = dup ? dup->batch(n) : plain->batch(n);
            }
            writeFile(cluster,
                      "t/p" + std::to_string(p) + "/f" + std::to_string(f++),
                      rows, w.writer, log, &totals);
            remaining -= n;
        }
    }
    Scope s(log, "warehouse.datagen");
    rows = {};
}

// ---------------------------------------------------------------
// Results
// ---------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes; ///< human-readable report lines
    /** Span logs of the traced run, written out at exit. */
    std::vector<std::pair<std::string, std::vector<perfbench::Span>>>
        span_logs;
};

void
note(Outcome &o, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
note(Outcome &o, const char *fmt, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    o.notes.emplace_back(buf);
}

/** Layer of a span name: the part before the first '.'. */
std::string
layerOf(const std::string &name)
{
    auto dot = name.find('.');
    return dot == std::string::npos ? "unattributed" : name.substr(0, dot);
}

/**
 * Per-layer self-time table of one replay phase. Spans named
 * "bench.*" and "probe.*" are the benchmark's own work and are left
 * out of both the layer sums and the phase's wall time; the root
 * span's self time is the unattributed remainder.
 */
void
layerTable(Outcome &o, const std::string &phase, const SpanLog &log,
           double *unattributed_frac = nullptr,
           std::string *dominant = nullptr)
{
    auto totals = perfbench::totalsByName(log.spans());
    std::map<std::string, double> layers;
    double excluded = 0, root_total = 0, root_self = 0;
    for (const auto &[name, t] : totals) {
        std::string layer = layerOf(name);
        if (layer == "bench" || layer == "probe") {
            excluded += t.total_s;
        } else if (layer == "unattributed") {
            root_total += t.total_s;
            root_self += t.self_s;
        } else {
            layers[layer] += t.self_s;
        }
    }
    double wall = root_total - excluded;
    double sum = 0;
    note(o, "[%s] wall %.4f s (benchmark-owned work excluded)",
         phase.c_str(), wall);
    std::string top;
    for (const auto &[layer, s] : layers) {
        sum += s;
        note(o, "[%s]   %-12s self %.4f s  %5.1f%%", phase.c_str(),
             layer.c_str(), s, wall > 0 ? 100 * s / wall : 0);
        if (top.empty() || s > layers[top])
            top = layer;
    }
    // bench.* and probe.* spans are children of the root, so its self
    // time already leaves them out.
    double unattr = root_self;
    note(o, "[%s]   %-12s      %.4f s  %5.1f%%  (layer sum %.4f s)",
         phase.c_str(), "unattributed", unattr,
         wall > 0 ? 100 * unattr / wall : 0, sum);
    for (const auto &[name, t] : totals)
        note(o, "[%s]     span %-26s n=%-6llu total %.4f s self %.4f s",
             phase.c_str(), name.c_str(),
             static_cast<unsigned long long>(t.count), t.total_s,
             t.self_s);
    if (unattributed_frac)
        *unattributed_frac = wall > 0 ? unattr / wall : 0;
    if (dominant)
        *dominant = top;
}

double
spanSelf(const SpanLog &log, const char *name)
{
    auto totals = perfbench::totalsByName(log.spans());
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
}

double
medianOf(const std::vector<double> &v)
{
    return perfbench::quartiles(v).median;
}

/** Dispersion line for a per-round series. */
void
noteSeries(Outcome &o, const char *name, const std::vector<double> &v)
{
    auto q = perfbench::quartiles(v);
    note(o, "%-22s median %.6g  q1 %.6g  q3 %.6g  (n=%zu)", name, q.median,
         q.q1, q.q3, q.samples);
}

/**
 * Gap figures of the timed section. `unit_gaps_us` holds each pass's
 * (round's) gaps. The end-to-end p50 is each unit's median gap
 * averaged over the units (perfbench::meanOfUnitMedians says why);
 * the end-to-end tail is the pooled p90. The pooled p99 is a per-layer
 * figure of the traced run: where every unit does the same work (the
 * synchronous engine, ingest) the slowest 1% are the units the host
 * preempted, so the p99 reads the host and spread by 40-57% between
 * runs, while p90 stays in the program's own distribution.
 */
void
gapMetrics(Outcome &o, const std::vector<std::vector<double>> &unit_gaps_us,
           bool trace)
{
    std::vector<double> pooled;
    for (const auto &g : unit_gaps_us)
        pooled.insert(pooled.end(), g.begin(), g.end());
    auto p50 = perfbench::percentile(pooled, 50);
    auto p90 = perfbench::percentile(pooled, 90);
    auto p99 = perfbench::percentile(pooled, 99);
    double p50_mean = perfbench::meanOfUnitMedians(unit_gaps_us);
    note(o, "batch gaps: %zu samples in %zu units; unit-median mean "
            "%.3f us; pooled p50 %.3f us (%zu beyond), p90 %.3f us "
            "(%zu beyond), p99 %.3f us (%zu beyond%s)",
         p50.samples, unit_gaps_us.size(), p50_mean, p50.value,
         p50.beyond, p90.value, p90.beyond, p99.value, p99.beyond,
         p99.resolved() ? "" : ", UNRESOLVED: fewer than 10 beyond");
    if (trace) {
        o.metrics.push_back({"dpp.batch_gap_p99_us", p99.value, "us"});
    } else {
        o.metrics.push_back({"batch_gap_p50_us", p50_mean, "us"});
        o.metrics.push_back({"batch_gap_p90_us", p90.value, "us"});
    }
}

void
setupMetric(Outcome &o, const std::vector<double> &setups)
{
    noteSeries(o, "setup_s", setups);
    o.metrics.push_back({"setup_s", medianOf(setups), "s"});
}

void
readLayerMetrics(Outcome &o, const SpanLog &replay, const SpanLog &probe,
                 const ReplayResult &r, const ProbeCounters &pc,
                 bool dedup_in_worker)
{
    auto &m = o.metrics;
    double crc = spanSelf(probe, "probe.crc");
    double dec = spanSelf(probe, "probe.decrypt");
    double dcmp = spanSelf(probe, "probe.decompress");
    double stripe_self = spanSelf(replay, "dwrf.read_stripe");
    m.push_back({"dwrf.read_s",
                 stripe_self + spanSelf(replay, "dwrf.open"), "s"});
    m.push_back({"dwrf.crc_s", crc, "s"});
    m.push_back({"dwrf.decrypt_s", dec, "s"});
    m.push_back({"dwrf.decompress_s", dcmp, "s"});
    m.push_back({"dwrf.decode_s", stripe_self - crc - dec - dcmp, "s"});
    m.push_back({"dwrf.streams",
                 static_cast<double>(r.read.streams_decoded), "count"});
    m.push_back({"dwrf.bytes_decompressed",
                 static_cast<double>(r.read.bytes_decompressed), "bytes"});
    m.push_back({"dwrf.read_amplification",
                 r.read.bytes_needed
                     ? static_cast<double>(r.read.bytes_read) /
                           static_cast<double>(r.read.bytes_needed)
                     : 0.0,
                 "ratio"});
    m.push_back({"dwrf.stripe_retries",
                 static_cast<double>(r.read.stripe_retries), "count"});
    m.push_back({"dwrf.checksum_mismatches",
                 static_cast<double>(r.read.checksum_mismatches), "count"});
    m.push_back({"dwrf.dict_streams",
                 static_cast<double>(r.read.dict_streams), "count"});
    uint64_t lists = r.read.dict_list_refs + r.read.dict_lists_inline;
    m.push_back({"dwrf.dict_ref_frac",
                 lists ? static_cast<double>(r.read.dict_list_refs) /
                             static_cast<double>(lists)
                       : 0.0,
                 "ratio"});
    m.push_back({"storage.read_calls",
                 static_cast<double>(r.storage.calls), "count"});
    m.push_back({"storage.read_bytes",
                 static_cast<double>(r.storage.bytes), "bytes"});
    m.push_back({"storage.read_s", spanSelf(replay, "storage.read"), "s"});
    m.push_back({"storage.read_failures",
                 static_cast<double>(r.storage.failures), "count"});
    m.push_back({"transforms.apply_s",
                 spanSelf(replay, "transforms.apply"), "s"});
    m.push_back({"transforms.rows_in", static_cast<double>(r.rows_in),
                 "count"});
    m.push_back({"dpp.slice_s", spanSelf(replay, "dpp.slice"), "s"});
    // Dedup: the replay's own spans where the worker runs dedup, the
    // probe's where it bypasses it.
    const SpanLog &dl = dedup_in_worker ? replay : probe;
    const char *pre = dedup_in_worker ? "transforms." : "probe.";
    m.push_back({"transforms.dedup_plan_s",
                 spanSelf(dl, (std::string(pre) + "dedup_plan").c_str()),
                 "s"});
    m.push_back({"transforms.dedup_gather_s",
                 spanSelf(dl, (std::string(pre) + "dedup_gather").c_str()),
                 "s"});
    m.push_back({"transforms.dedup_expand_s",
                 spanSelf(dl, (std::string(pre) + "dedup_expand").c_str()),
                 "s"});
    uint64_t planned = dedup_in_worker ? r.dedup_rows : pc.dedup_rows;
    uint64_t unique = dedup_in_worker ? r.dedup_unique : pc.dedup_unique;
    m.push_back({"transforms.dedup_unique_frac",
                 planned ? static_cast<double>(unique) /
                               static_cast<double>(planned)
                         : 0.0,
                 "ratio"});
}

void
writeLayerMetrics(Outcome &o, const SpanLog &write, Bytes put_bytes,
                  double datagen_s)
{
    auto &m = o.metrics;
    double append = spanSelf(write, "dwrf.write_append");
    double finish = spanSelf(write, "dwrf.write_finish");
    double put = spanSelf(write, "storage.put");
    m.push_back({"dwrf.write_append_s", append, "s"});
    m.push_back({"dwrf.write_finish_s", finish, "s"});
    m.push_back({"dwrf.write_crc_s", spanSelf(write, "probe.write_crc"),
                 "s"});
    m.push_back({"storage.put_s", put, "s"});
    m.push_back({"storage.put_bytes", static_cast<double>(put_bytes),
                 "bytes"});
    m.push_back({"warehouse.datagen_s", datagen_s, "s"});
    m.push_back({"warehouse.write_s", append + finish + put, "s"});
}

void
sessionLayerMetrics(Outcome &o, const std::vector<PassResult> &passes,
                    double overhead_cpu_s_per_mrow)
{
    double wait = 0;
    uint64_t batches = 0, failed = 0, dup = 0, wf = 0, dl = 0;
    for (const auto &p : passes) {
        for (double g : p.gaps_us)
            wait += g * 1e-6;
        batches += p.batches;
        failed += p.session.splits_failed;
        dup += p.session.duplicates_suppressed;
        wf += p.session.worker_failures;
        dl += p.session.deadline_expirations;
    }
    auto &m = o.metrics;
    m.push_back({"dpp.trainer_wait_s", wait, "s"});
    m.push_back({"dpp.batches", static_cast<double>(batches), "count"});
    m.push_back({"dpp.splits_failed", static_cast<double>(failed), "count"});
    m.push_back({"dpp.duplicates_suppressed", static_cast<double>(dup),
                 "count"});
    m.push_back({"dpp.worker_failures", static_cast<double>(wf), "count"});
    m.push_back({"dpp.deadline_expirations", static_cast<double>(dl),
                 "count"});
    m.push_back({"dpp.overhead_cpu_s_per_Mrow", overhead_cpu_s_per_mrow,
                 "s"});
}

/** The main phase's wall time, unattributed share and tracing cost. */
void
benchMetrics(Outcome &o, const char *phase, double wall_off, double wall_on,
             double unattributed_frac)
{
    double overhead = wall_on / wall_off - 1;
    note(o, "%s wall: tracing off %.4f s, on %.4f s; tracing overhead "
            "%+.2f%%",
         phase, wall_off, wall_on, 100 * overhead);
    o.metrics.push_back({"bench.replay_wall_s", wall_on, "s"});
    o.metrics.push_back(
        {"bench.unattributed_frac", unattributed_frac, "ratio"});
    o.metrics.push_back({"bench.trace_overhead_frac", overhead, "ratio"});
}

// ---------------------------------------------------------------
// Training workloads
// ---------------------------------------------------------------

/**
 * Set-up repeats: at least kMinSetups, then more while their total
 * stays under kSetupBudgetS (at most kMaxSetups), so that the median
 * of fast set-ups rests on more samples without slowing slow ones.
 */
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr double kSetupBudgetS = 2.0;

bool
moreSetups(const std::vector<double> &done)
{
    double total = 0;
    for (double s : done)
        total += s;
    return done.size() < kMinSetups ||
           (done.size() < kMaxSetups &&
            total + total / static_cast<double>(done.size()) <
                kSetupBudgetS);
}

Outcome
runTraining(const Workload &w, uint64_t seed, double budget_s, bool trace)
{
    Outcome o;
    // Set-up: corpus generation + write + session construction,
    // repeated; the last corpus and its session are kept.
    std::vector<double> setups;
    std::optional<Corpus> corpus;
    std::unique_ptr<dpp::InProcessSession> first;
    while (moreSetups(setups)) {
        first.reset();
        corpus.reset();
        int64_t t0 = nowNs();
        corpus.emplace(buildTrainingCorpus(w, seed));
        first = std::make_unique<dpp::InProcessSession>(
            *corpus->wh, corpus->spec, sessionOptions(w));
        setups.push_back(seconds(nowNs() - t0));
    }
    Corpus &c = *corpus;
    note(o, "corpus: %llu rows, %llu splits, %.1f MiB stored, %zu "
            "projected features",
         static_cast<unsigned long long>(c.rows),
         static_cast<unsigned long long>(c.splits),
         static_cast<double>(c.stored_bytes) / (1 << 20),
         c.spec.projection.size());

    // Warm-up pass on the set-up's session (untimed).
    PassResult warm = runPass(c, w, std::move(first), nullptr);
    bool correct = warm.exactly_once;

    // Timed section: whole passes until the budget is spent. The
    // synchronous engine runs a pass on this thread alone, so its
    // passes rotate over the CPUs (see CpuRotation).
    std::vector<PassResult> passes;
    bool sync = w.worker.num_extract_threads == 0 &&
                w.worker.num_transform_threads == 0;
    std::optional<CpuRotation> rotation;
    if (sync)
        rotation.emplace();
    int64_t deadline = nowNs() + static_cast<int64_t>(budget_s * 1e9);
    do {
        if (rotation)
            rotation->next();
        passes.push_back(runPass(c, w, nullptr, nullptr));
    } while (nowNs() < deadline);
    rotation.reset();
    double peak_rss = peakRssMiB();

    std::vector<double> rate, cpu;
    std::vector<std::vector<double>> gaps;
    double wall_total = 0, cpu_total = 0, rows_total = 0;
    uint64_t failed = 0;
    for (const auto &p : passes) {
        rate.push_back(static_cast<double>(p.rows) / p.wall_s);
        cpu.push_back(p.cpu_s / (static_cast<double>(p.rows) * 1e-6));
        gaps.push_back(p.gaps_us);
        wall_total += p.wall_s;
        cpu_total += p.cpu_s;
        rows_total += static_cast<double>(p.rows);
        failed += p.session.splits_failed;
        if (!p.exactly_once) {
            correct = false;
            note(o, "FAIL: a timed pass broke exactly-once delivery "
                    "(%llu of %llu rows)",
                 static_cast<unsigned long long>(p.rows),
                 static_cast<unsigned long long>(c.rows));
        }
    }
    o.attempted = c.splits * (passes.size() + 1);

    // Correctness: one untimed digest pass against the replay.
    Digest delivered;
    PassResult dp = runPass(c, w, nullptr, &delivered);
    correct = correct && dp.exactly_once;
    failed += dp.session.splits_failed;
    SpanLog off(false);
    ReplayResult ref = replayRead(*c.wh, c.spec, c.graph,
                                  w.worker.dedup_enabled, off);
    Digest expected = ref.digest;
    if (w.worker.dedup_enabled) {
        // The lossless reference: the same replay without dedup.
        Digest plain =
            replayRead(*c.wh, c.spec, c.graph, false, off).digest;
        if (!(plain == ref.digest)) {
            correct = false;
            note(o, "FAIL: dedup replay digest %s != plain replay %s",
                 ref.digest.hex().c_str(), plain.hex().c_str());
        }
        expected = plain;
    }
    if (!(delivered == expected)) {
        correct = false;
        note(o, "FAIL: session digest %s (%llu batches) != replay "
                "digest %s (%llu batches)",
             delivered.hex().c_str(),
             static_cast<unsigned long long>(delivered.batches),
             expected.hex().c_str(),
             static_cast<unsigned long long>(expected.batches));
    } else {
        note(o, "digest: session == replay %s (%llu batches, %llu rows)",
             expected.hex().c_str(),
             static_cast<unsigned long long>(expected.batches),
             static_cast<unsigned long long>(expected.rows));
    }
    o.correct = correct;
    o.failed = correct ? failed : o.attempted;

    note(o, "timed section: %zu passes, %.3f s", passes.size(), wall_total);
    noteSeries(o, "rows_per_s", rate);
    noteSeries(o, "cpu_s_per_Mrow", cpu);
    double cpu_per_mrow = cpu_total / (rows_total * 1e-6);
    gapMetrics(o, gaps, trace);

    if (!trace) {
        o.metrics.push_back({"rows_per_s", rows_total / wall_total, "rows/s"});
        o.metrics.push_back({"cpu_s_per_Mrow", cpu_per_mrow, "s"});
        setupMetric(o, setups);
        o.metrics.push_back({"peak_rss_mb", peak_rss, "MiB"});
        o.metrics.push_back(
            {"stored_bytes_per_row",
             static_cast<double>(c.stored_bytes) /
                 static_cast<double>(c.rows),
             "B"});
        return o;
    }

    // Traced run: the replay again with spans on, the read-path
    // probes, and the set-up's write path.
    SpanLog replay_log(true), probe_log(true), write_log(true);
    ReplayPair pair = replayPair(*c.wh, c.spec, c.graph,
                                 w.worker.dedup_enabled, replay_log);
    const ReplayResult &on = pair.on;
    if (!(on.digest == pair.off.digest)) {
        o.correct = false;
        o.failed = o.attempted;
        note(o, "FAIL: traced replay digest differs from untraced");
    }
    ProbeCounters probe;
    for (int i = 0; i < kReplayPasses; ++i)
        probeRead(*c.wh, c.spec, !w.worker.dedup_enabled, probe_log, probe);
    if (probe.failures) {
        o.correct = false;
        o.failed = o.attempted;
        note(o, "FAIL: %llu stored streams failed to fetch, verify or "
                "decompress in the probe",
             static_cast<unsigned long long>(probe.failures));
    }
    WriteTotals written;
    traceCorpusWrite(w, seed, write_log, written);
    if (written.crc_failures) {
        o.correct = false;
        o.failed = o.attempted;
        note(o, "FAIL: %llu written streams disagree with their footer CRC",
             static_cast<unsigned long long>(written.crc_failures));
    }

    double unattr = 0;
    std::string top;
    layerTable(o, "replay", replay_log, &unattr, &top);
    note(o, "replay dominant layer: %s; unattributed %.2f%% of wall "
            "(tolerance 10%%)",
         top.c_str(), 100 * unattr);
    layerTable(o, "write", write_log);
    double replay_cpu_per_mrow =
        pair.off.cpu_s /
        (static_cast<double>(c.rows) * kReplayPasses * 1e-6);
    note(o, "cpu per Mrow: timed session %.4f s, single-thread replay "
            "%.4f s",
         cpu_per_mrow, replay_cpu_per_mrow);

    readLayerMetrics(o, replay_log, probe_log, on, probe,
                     w.worker.dedup_enabled);
    writeLayerMetrics(o, write_log, written.bytes,
                      spanSelf(write_log, "warehouse.datagen"));
    sessionLayerMetrics(o, passes, cpu_per_mrow - replay_cpu_per_mrow);
    benchMetrics(o, "replay", pair.off.wall_s, on.wall_s, unattr);
    o.span_logs = {{"replay", replay_log.spans()},
                   {"probe", probe_log.spans()},
                   {"write", write_log.spans()}};
    return o;
}

// ---------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------

/**
 * Read every stripe of a written file back (no projection) and
 * compare it bitwise with the rows it was written from.
 */
bool
verifyFile(const storage::TectonicCluster &cluster, const std::string &name,
           const std::vector<dwrf::Row> &rows)
{
    auto source = cluster.open(name);
    dwrf::FileReader reader(*source, dwrf::ReadOptions{});
    if (!reader.valid() || reader.totalRows() != rows.size())
        return false;
    for (size_t s = 0; s < reader.stripeCount(); ++s) {
        dwrf::RowBatch got;
        if (reader.readStripe(s, got) != dwrf::ReadStatus::Ok)
            return false;
        const auto &info = reader.footer().stripes[s];
        if (info.first_row + info.rows > rows.size())
            return false;
        std::vector<dwrf::Row> slice(
            rows.begin() + static_cast<ptrdiff_t>(info.first_row),
            rows.begin() +
                static_cast<ptrdiff_t>(info.first_row + info.rows));
        dwrf::RowBatch want = dwrf::batchFromRows(slice);
        if (perfbench::hashBatch(got, 7) != perfbench::hashBatch(want, 7))
            return false;
    }
    return true;
}

Outcome
runIngest(const Workload &w, uint64_t seed, double budget_s, bool trace)
{
    Outcome o;
    // Set-up: generate the input rows once (repeated for the median)
    // and stand up an empty cluster + warehouse table.
    std::vector<double> setups, datagen;
    std::vector<std::vector<dwrf::Row>> chunks;
    std::unique_ptr<storage::TectonicCluster> cluster;
    std::unique_ptr<warehouse::Warehouse> wh;
    warehouse::TableSchema schema;
    // Set-up and the timed section start no threads, so they rotate
    // over the CPUs (see CpuRotation). The traced read-back below runs
    // a threaded session, so the rotation ends before it.
    std::optional<CpuRotation> rotation;
    rotation.emplace();
    while (moreSetups(setups)) {
        rotation->next();
        chunks.clear();
        wh.reset();
        cluster.reset();
        int64_t t0 = nowNs();
        cluster = std::make_unique<storage::TectonicCluster>(
            storage::StorageOptions{});
        wh = std::make_unique<warehouse::Warehouse>(*cluster);
        schema = warehouse::makeSchema(w.schema);
        wh->createTable(w.schema.name, schema);
        warehouse::RowGenerator gen(wh->findTable(w.schema.name)->schema(),
                                    rowSeed(seed));
        int64_t g0 = nowNs();
        for (uint32_t k = 0; k < w.ingest_chunks; ++k)
            chunks.push_back(gen.batch(w.ingest_rows_per_file));
        int64_t t1 = nowNs();
        datagen.push_back(seconds(t1 - g0));
        setups.push_back(seconds(t1 - t0));
    }
    const uint64_t rows_per_file = w.ingest_rows_per_file;

    SpanLog off(false);
    std::vector<Bytes> expected_size(chunks.size(), 0);
    uint64_t commit = 0;
    auto name = [](uint64_t i) { return "ingest/c" + std::to_string(i); };
    bool sizes_ok = true;
    auto commitOne = [&](SpanLog &log) {
        size_t k = commit % chunks.size();
        Bytes n = writeFile(*cluster, name(commit), chunks[k], w.writer, log);
        if (expected_size[k] == 0)
            expected_size[k] = n;
        sizes_ok = sizes_ok && n == expected_size[k];
        if (commit >= w.ingest_keep)
            cluster->remove(name(commit - w.ingest_keep));
        ++commit;
        return n;
    };

    // Warm-up: one round over every chunk (untimed).
    for (size_t k = 0; k < chunks.size(); ++k)
        commitOne(off);

    // Timed section: rounds of commits until the budget is spent.
    constexpr uint32_t kRound = 16;
    std::vector<double> rate, cpu;
    std::vector<std::vector<double>> gaps;
    double wall_total = 0, cpu_total = 0;
    uint64_t timed_commits = 0;
    int64_t deadline = nowNs() + static_cast<int64_t>(budget_s * 1e9);
    int64_t last = nowNs();
    do {
        rotation->next();
        double cpu0 = cpuSeconds();
        int64_t r0 = nowNs();
        std::vector<double> &round_gaps = gaps.emplace_back();
        for (uint32_t i = 0; i < kRound; ++i) {
            commitOne(off);
            int64_t now = nowNs();
            round_gaps.push_back(static_cast<double>(now - last) * 1e-3);
            last = now;
        }
        double wall = seconds(nowNs() - r0);
        double cpu_s = cpuSeconds() - cpu0;
        double rows = static_cast<double>(kRound * rows_per_file);
        rate.push_back(rows / wall);
        cpu.push_back(cpu_s / (rows * 1e-6));
        wall_total += wall;
        cpu_total += cpu_s;
        timed_commits += kRound;
    } while (nowNs() < deadline);
    rotation.reset();
    double rows_total = static_cast<double>(timed_commits * rows_per_file);
    double peak_rss = peakRssMiB();
    Bytes stored = 0;
    for (Bytes b : expected_size)
        stored += b;

    // Correctness: every commit wrote the size its chunk wrote first,
    // and the files still in storage read back bitwise-equal to
    // their input rows.
    bool correct = sizes_ok;
    if (!sizes_ok)
        note(o, "FAIL: a commit wrote a different size than its chunk");
    for (uint64_t i = commit - w.ingest_keep; i < commit; ++i) {
        if (!verifyFile(*cluster, name(i), chunks[i % chunks.size()])) {
            correct = false;
            note(o, "FAIL: %s does not read back as its input rows",
                 name(i).c_str());
        }
    }
    o.attempted = timed_commits;
    o.correct = correct;
    o.failed = correct ? 0 : o.attempted;
    note(o, "timed section: %llu commits of %llu rows, %zu rounds, %.3f s",
         static_cast<unsigned long long>(timed_commits),
         static_cast<unsigned long long>(rows_per_file), rate.size(),
         wall_total);
    if (correct)
        note(o, "read-back: last %u files equal their input rows",
             w.ingest_keep);
    noteSeries(o, "rows_per_s", rate);
    noteSeries(o, "cpu_s_per_Mrow", cpu);
    double cpu_per_mrow = cpu_total / (rows_total * 1e-6);
    gapMetrics(o, gaps, trace);

    if (!trace) {
        o.metrics.push_back({"rows_per_s", rows_total / wall_total, "rows/s"});
        o.metrics.push_back({"cpu_s_per_Mrow", cpu_per_mrow, "s"});
        setupMetric(o, setups);
        o.metrics.push_back({"peak_rss_mb", peak_rss, "MiB"});
        o.metrics.push_back(
            {"stored_bytes_per_row",
             static_cast<double>(stored) /
                 static_cast<double>(rows_per_file * chunks.size()),
             "B"});
        return o;
    }

    // Traced run. Write phase: every chunk written again as new files,
    // in rounds that alternate between untraced (partition 0) and
    // traced (partition 1) writes, which gives the tracing overhead.
    for (uint64_t i = commit - w.ingest_keep; i < commit; ++i)
        cluster->remove(name(i));
    constexpr uint32_t kTraceRounds = 2;
    warehouse::Partition parts[2];
    double wall_phase[2] = {0, 0}, cpu_phase[2] = {0, 0};
    SpanLog write_log(true);
    WriteTotals written;
    for (uint32_t r = 0; r < kTraceRounds; ++r) {
        for (PartitionId pid : {0u, 1u}) {
            SpanLog &log = pid ? write_log : off;
            warehouse::Partition &part = parts[pid];
            part.id = pid;
            double cpu0 = cpuSeconds();
            int64_t t0 = nowNs();
            int64_t probe0 = 0;
            {
                Scope root(log, "write");
                for (size_t k = 0; k < chunks.size(); ++k) {
                    std::string fname = "t/p" + std::to_string(pid) +
                                        "/f" +
                                        std::to_string(part.files.size());
                    part.stored_bytes +=
                        writeFile(*cluster, fname, chunks[k], w.writer, log,
                                  pid ? &written : nullptr);
                    part.files.push_back(fname);
                    part.rows += chunks[k].size();
                }
            }
            for (const auto &sp : log.spans())
                if (layerOf(sp.name) == "probe" && sp.start_ns >= t0)
                    probe0 += sp.end_ns - sp.start_ns;
            wall_phase[pid] += seconds(nowNs() - t0 - probe0);
            cpu_phase[pid] += cpuSeconds() - cpu0 - seconds(probe0);
        }
    }
    double wall_off = wall_phase[0], wall_on = wall_phase[1];
    double cpu_off = cpu_phase[0];
    double write_rows = static_cast<double>(parts[0].rows);
    for (auto &p : parts)
        wh->findTable(w.schema.name)->addPartition(p);

    // Read-back phase: read_wide's read spec and graph over the
    // written files, replayed and probed like a training corpus, and
    // one session pass (checked against the replay) for the dpp
    // counters.
    Corpus c;
    c.wh = wh.get();
    c.spec = makeSpec(w, *wh, c.graph);
    c.rows = parts[0].rows + parts[1].rows;
    c.splits = packSplits(*wh, c.spec).size();
    ReplayResult ref = replayRead(*wh, c.spec, c.graph, false, off);
    Digest delivered;
    PassResult pass = runPass(c, w, nullptr, &delivered);
    if (!pass.exactly_once || !(delivered == ref.digest)) {
        o.correct = false;
        o.failed = o.attempted;
        note(o, "FAIL: read-back session %s != replay %s",
             delivered.hex().c_str(), ref.digest.hex().c_str());
    }
    SpanLog replay_log(true), probe_log(true);
    ReplayPair pair = replayPair(*wh, c.spec, c.graph, false, replay_log);
    const ReplayResult &on = pair.on;
    ProbeCounters probe;
    for (int i = 0; i < kReplayPasses; ++i)
        probeRead(*wh, c.spec, true, probe_log, probe);
    if (probe.failures || written.crc_failures ||
        !(on.digest == pair.off.digest)) {
        o.correct = false;
        o.failed = o.attempted;
        note(o, "FAIL: traced write or read-back failed its checks");
    }

    double unattr = 0;
    std::string top;
    layerTable(o, "write", write_log, &unattr, &top);
    note(o, "write dominant layer: %s; unattributed %.2f%% of wall "
            "(tolerance 10%%)",
         top.c_str(), 100 * unattr);
    layerTable(o, "readback", replay_log);
    double replay_cpu_per_mrow = cpu_off / (write_rows * 1e-6);
    note(o, "cpu per Mrow: timed ingest %.4f s, untraced write rounds "
            "%.4f s",
         cpu_per_mrow, replay_cpu_per_mrow);

    readLayerMetrics(o, replay_log, probe_log, on, probe, false);
    writeLayerMetrics(o, write_log, written.bytes, medianOf(datagen));
    sessionLayerMetrics(o, {pass}, cpu_per_mrow - replay_cpu_per_mrow);
    benchMetrics(o, "write", wall_off, wall_on, unattr);
    o.span_logs = {{"write", write_log.spans()},
                   {"readback", replay_log.spans()},
                   {"probe", probe_log.spans()}};
    return o;
}

// ---------------------------------------------------------------
// Output
// ---------------------------------------------------------------

struct Provenance
{
    std::string source;
    std::string compiler = PERFBENCH_COMPILER;
    std::string build_type = PERFBENCH_BUILD_TYPE;
    std::string flags = PERFBENCH_BUILD_FLAGS;
    unsigned nproc = onlineCpus();
    std::string cpu = cpuModel();
};

void
writeResultFile(const std::filesystem::path &dir, const Workload &w,
                uint64_t seed, bool trace, const Provenance &pv,
                const Outcome &o)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string stem = w.name + "-seed" + std::to_string(seed) +
                       (trace ? "-trace" : "");
    std::ofstream f(dir / (stem + ".json"));
    f << "{\n  \"workload\": \"" << w.name << "\",\n  \"seed\": " << seed
      << ",\n  \"trace\": " << (trace ? 1 : 0)
      << ",\n  \"provenance\": {\"source\": \"" << jsonEscape(pv.source)
      << "\", \"compiler\": \"" << jsonEscape(pv.compiler)
      << "\", \"build_type\": \"" << jsonEscape(pv.build_type)
      << "\", \"flags\": \"" << jsonEscape(pv.flags)
      << "\", \"nproc\": " << pv.nproc << ", \"cpu\": \""
      << jsonEscape(pv.cpu) << "\"},\n  \"report\": [\n";
    for (size_t i = 0; i < o.notes.size(); ++i)
        f << "    \"" << jsonEscape(o.notes[i]) << "\""
          << (i + 1 < o.notes.size() ? ",\n" : "\n");
    f << "  ]\n}\n";
    if (o.span_logs.empty())
        return;
    // Spans: one record per span, times in ns from the first span.
    std::ofstream s(dir / (stem + ".spans.json"));
    s << "{\"unit\": \"ns\", \"logs\": {\n";
    for (size_t l = 0; l < o.span_logs.size(); ++l) {
        const auto &[log_name, spans] = o.span_logs[l];
        int64_t base = spans.empty() ? 0 : spans.front().start_ns;
        s << "\"" << log_name << "\": [\n";
        for (size_t i = 0; i < spans.size(); ++i) {
            s << "[\"" << spans[i].name << "\"," << spans[i].start_ns - base
              << "," << spans[i].end_ns - base << "," << spans[i].parent
              << "]" << (i + 1 < spans.size() ? ",\n" : "\n");
        }
        s << "]" << (l + 1 < o.span_logs.size() ? ",\n" : "\n");
    }
    s << "}}\n";
}

void
printResult(const Outcome &o)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                o.correct ? "true" : "false",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed));
    for (size_t i = 0; i < o.metrics.size(); ++i) {
        // JSON has no NaN or infinity; a non-finite value prints as null.
        char value[32] = "null";
        if (std::isfinite(o.metrics[i].value))
            std::snprintf(value, sizeof(value), "%.17g", o.metrics[i].value);
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", o.metrics[i].name.c_str(), value,
                    o.metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pipeline_bench: %s\nusage: pipeline_bench --workload "
                 "read_wide|transform_heavy|dup_zipf|ingest --seed N "
                 "--seconds S --trace 0|1 [--source ID] [--out-dir DIR]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) ||              \
    defined(__SANITIZE_THREAD__)
    std::fprintf(stderr, "pipeline_bench: refusing to time a "
                         "non-optimized or sanitizer build\n");
    return 3;
#endif
    // Pin glibc's allocator thresholds. By default glibc adapts its
    // mmap threshold at run time and trims the heap top, so the same
    // binary switches, at unpredictable points of a run, between
    // serving stripe-sized buffers from the heap and mmap/munmap plus
    // page faults per buffer; that alone moved rows_per_s of the
    // threaded workloads by ~20% between identical runs. Fixed
    // thresholds keep allocation cost in the measurement but make it
    // the same in every run.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    std::string workload, out_dir = ".bench_build/results";
    std::optional<uint64_t> seed;
    double budget = -1;
    int trace = -1;
    Provenance pv;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0' || v.empty())
                usage("--seed takes a whole number");
        } else if (a == "--seconds") {
            budget = std::strtod(v.c_str(), &end);
            if (*end != '\0' || !(budget > 0 && budget <= 600))
                usage("--seconds takes a number in (0, 600]");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            trace = v == "1";
        } else if (a == "--source") {
            pv.source = v;
        } else if (a == "--out-dir") {
            out_dir = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (workload.empty() || !seed || budget < 0 || trace < 0)
        usage("--workload, --seed, --seconds and --trace are required");
    auto w = findWorkload(workload);
    if (!w)
        usage(("unknown workload " + workload).c_str());

    std::printf("pipeline_bench workload=%s seed=%llu seconds=%g trace=%d\n",
                w->name.c_str(), static_cast<unsigned long long>(*seed),
                budget, trace);
    std::printf("provenance: source=%s compiler=\"%s\" build=%s "
                "flags=\"%s\" nproc=%u cpu=\"%s\"\n",
                pv.source.c_str(), pv.compiler.c_str(),
                pv.build_type.c_str(), pv.flags.c_str(), pv.nproc,
                pv.cpu.c_str());
    Outcome o = w->ingest ? runIngest(*w, *seed, budget, trace == 1)
                          : runTraining(*w, *seed, budget, trace == 1);
    for (const auto &n : o.notes)
        std::printf("%s\n", n.c_str());
    writeResultFile(out_dir, *w, *seed, trace == 1, pv, o);
    printResult(o);
    return o.correct ? 0 : 1;
}
