/**
 * @file
 * Shared synthetic-corpus builder: a Tectonic cluster plus a warehouse
 * holding one generated table, written through the real DWRF writer.
 *
 * Tests (tests/test_fixtures.h) and benchmarks
 * (bench/test_fixtures_bench.h) both build their datasets through this
 * one function, so benchmark numbers and test assertions always refer
 * to the same corpus shapes — the fixture duplication that used to
 * let them drift is gone.
 */

#ifndef DSI_WAREHOUSE_CORPUS_H
#define DSI_WAREHOUSE_CORPUS_H

#include <memory>
#include <string>

#include "dwrf/writer.h"
#include "storage/tectonic.h"
#include "warehouse/datagen.h"
#include "warehouse/table.h"

namespace dsi::warehouse {

/** A Tectonic cluster + warehouse with one generated table. */
struct MiniCorpus
{
    std::unique_ptr<storage::TectonicCluster> cluster;
    std::unique_ptr<warehouse::Warehouse> warehouse;
    warehouse::TableSchema schema;
    std::vector<double> popularity;
    std::string name;

    warehouse::Table &table() { return *warehouse->findTable(name); }
};

/**
 * Set up the cluster/warehouse/schema shell of a corpus and write
 * `partitions` x `rows_per_partition` rows drawn from `gen` (any type
 * with `batch(uint32_t) -> std::vector<dwrf::Row>`) through the real
 * DWRF writer. Shared by the plain and duplicated corpus builders so
 * the two differ only in their row source.
 */
template <typename RowGen>
inline MiniCorpus
buildCorpusFrom(const warehouse::SchemaParams &params, RowGen make_gen,
                uint32_t partitions, uint64_t rows_per_partition,
                uint64_t rows_per_file,
                dwrf::WriterOptions writer_options,
                storage::StorageOptions storage_options)
{
    MiniCorpus mc;
    mc.name = params.name;
    mc.cluster = std::make_unique<storage::TectonicCluster>(
        storage_options);
    mc.warehouse = std::make_unique<warehouse::Warehouse>(*mc.cluster);
    mc.schema = warehouse::makeSchema(params);
    mc.popularity = warehouse::featurePopularity(
        mc.schema, params.popularity_alpha, params.seed ^ 0x9999);

    auto &table = mc.warehouse->createTable(params.name, mc.schema);
    auto gen = make_gen(mc.schema);
    for (uint32_t p = 0; p < partitions; ++p) {
        warehouse::Partition partition;
        partition.id = p;
        uint64_t remaining = rows_per_partition;
        uint32_t file_idx = 0;
        while (remaining > 0) {
            uint64_t n = remaining < rows_per_file ? remaining
                                                   : rows_per_file;
            dwrf::FileWriter writer(writer_options);
            writer.appendRows(gen.batch(static_cast<uint32_t>(n)));
            auto bytes = writer.finish();
            std::string fname = params.name + "/p" +
                                std::to_string(p) + "/f" +
                                std::to_string(file_idx++) + ".dwrf";
            partition.stored_bytes += bytes.size();
            mc.cluster->put(fname, bytes);
            partition.files.push_back(fname);
            partition.rows += n;
            remaining -= n;
        }
        table.addPartition(std::move(partition));
    }
    return mc;
}

/**
 * Build a table of `partitions` x `rows_per_partition` rows split into
 * files of `rows_per_file`, generated from `params`.
 */
inline MiniCorpus
buildMiniCorpus(const warehouse::SchemaParams &params,
                uint32_t partitions, uint64_t rows_per_partition,
                uint64_t rows_per_file = 2048,
                dwrf::WriterOptions writer_options = {},
                storage::StorageOptions storage_options = {})
{
    return buildCorpusFrom(
        params,
        [&](const warehouse::TableSchema &schema) {
            return warehouse::RowGenerator(schema,
                                           params.seed ^ 0x1234);
        },
        partitions, rows_per_partition, rows_per_file, writer_options,
        storage_options);
}

/**
 * Like buildMiniCorpus, but rows come from DupRowGenerator: a pool of
 * `dup.pool_size` distinct feature payloads re-sampled Zipf(`alpha`)
 * with fresh labels — the duplicated corpus shape every dedup test
 * and benchmark shares.
 */
inline MiniCorpus
buildDupMiniCorpus(const warehouse::SchemaParams &params,
                   const warehouse::DupParams &dup, uint32_t partitions,
                   uint64_t rows_per_partition,
                   uint64_t rows_per_file = 2048,
                   dwrf::WriterOptions writer_options = {},
                   storage::StorageOptions storage_options = {})
{
    return buildCorpusFrom(
        params,
        [&](const warehouse::TableSchema &schema) {
            return warehouse::DupRowGenerator(schema, dup);
        },
        partitions, rows_per_partition, rows_per_file, writer_options,
        storage_options);
}

/**
 * The RecD storage corpus: long hot lists resampled Zipf(1.05) from a
 * pool of 384 payloads, 2 partitions x 32,768 rows in 8,192-row files
 * of 2,048-row stripes. bench/codec_bench measures it and
 * tests/dwrf_dedup_test.cc holds its plain/dict storage-savings bar,
 * so the bar and the bench always describe the same bytes.
 */
struct DupCorpusShape
{
    SchemaParams schema{.name = "dedupbench",
                        .float_features = 12,
                        .sparse_features = 10,
                        .coverage_u = 0.6,
                        .avg_length = 16,
                        .seed = 91};
    DupParams dup{.pool_size = 384, .alpha = 1.05, .seed = 91 ^ 0xD0D0};
    uint32_t partitions = 2;
    uint64_t rows_per_partition = 32768;
    uint64_t rows_per_file = 8192;
    uint32_t rows_per_stripe = 2048;
};

/** Write `shape` plain, or list-dictionary encoded when `dedup`. */
inline MiniCorpus
buildDupMiniCorpus(const DupCorpusShape &shape, bool dedup)
{
    dwrf::WriterOptions wo;
    wo.rows_per_stripe = shape.rows_per_stripe;
    wo.dedup = dedup;
    return buildDupMiniCorpus(shape.schema, shape.dup, shape.partitions,
                              shape.rows_per_partition,
                              shape.rows_per_file, wo);
}

} // namespace dsi::warehouse

#endif // DSI_WAREHOUSE_CORPUS_H
