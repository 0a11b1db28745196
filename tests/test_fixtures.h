/**
 * @file
 * Shared test fixtures: a small warehouse with synthetic tables.
 *
 * Thin wrapper over warehouse::buildMiniCorpus (src/warehouse/
 * corpus.h) — the same builder the benchmarks use — with the storage
 * defaults the test suite has always assumed (4 MiB blocks, 4 HDD
 * nodes).
 */

#ifndef DSI_TESTS_TEST_FIXTURES_H
#define DSI_TESTS_TEST_FIXTURES_H

#include "warehouse/corpus.h"

namespace dsi::testing {

/** A Tectonic cluster + warehouse with one generated table. */
using MiniWarehouse = warehouse::MiniCorpus;

/**
 * Build a table of `partitions` x `rows_per_partition` rows split into
 * files of `rows_per_file`, generated from `params`.
 */
inline MiniWarehouse
makeMiniWarehouse(const warehouse::SchemaParams &params,
                  uint32_t partitions, uint64_t rows_per_partition,
                  uint64_t rows_per_file = 2048,
                  dwrf::WriterOptions writer_options = {})
{
    storage::StorageOptions so;
    so.block_size = 4_MiB;
    so.hdd_nodes = 4;
    return warehouse::buildMiniCorpus(params, partitions,
                                      rows_per_partition,
                                      rows_per_file, writer_options,
                                      so);
}

/**
 * Duplicated-corpus variant (RecD shape): rows re-sample a fixed pool
 * of `dup.pool_size` distinct feature payloads Zipf(`dup.alpha`)-
 * skewed, each draw with a fresh label. Shared by the dedup
 * differential and codec tests so they all measure the same corpus
 * shape. Storage defaults match makeMiniWarehouse.
 */
inline MiniWarehouse
makeDupMiniWarehouse(const warehouse::SchemaParams &params,
                     const warehouse::DupParams &dup,
                     uint32_t partitions, uint64_t rows_per_partition,
                     uint64_t rows_per_file = 2048,
                     dwrf::WriterOptions writer_options = {})
{
    storage::StorageOptions so;
    so.block_size = 4_MiB;
    so.hdd_nodes = 4;
    return warehouse::buildDupMiniCorpus(params, dup, partitions,
                                         rows_per_partition,
                                         rows_per_file, writer_options,
                                         so);
}

} // namespace dsi::testing

#endif // DSI_TESTS_TEST_FIXTURES_H
