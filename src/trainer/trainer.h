/**
 * @file
 * Trainer-node models (Section VI).
 *
 * Three views of the trainer frontend:
 *  - loadingUtilization(): host CPU / memory-bandwidth / NIC cost of
 *    pure data loading at a given ingestion rate (the Fig. 8 dummy
 *    trainer), driven by the datacenter-tax model;
 *  - onHostPreprocessing(): the baseline that runs extraction and
 *    transformation on the trainer's own CPUs (the Table VII
 *    experiment) — the data-stall motivation for DPP;
 *  - measureStallRounds(): a functional stall probe that drives a
 *    fixed per-round tensor demand against a real in-process DPP
 *    worker pool.
 */

#ifndef DSI_TRAINER_TRAINER_H
#define DSI_TRAINER_TRAINER_H

#include "dpp/session.h"
#include "sim/device.h"
#include "sim/tax.h"
#include "warehouse/model_zoo.h"

namespace dsi::trainer {

/** Host-resource utilization from pure data loading (Fig. 8). */
struct LoadingUtilization
{
    double cpu = 0;    ///< of host CPU cycles
    double membw = 0;  ///< of peak memory bandwidth
    double nic = 0;    ///< of NIC line rate
};

/**
 * Frontend utilization when ingesting `rate_bps` of tensors with no
 * extraction or transformation (network stack, TLS, Thrift, memory
 * management only).
 */
LoadingUtilization loadingUtilization(const sim::TrainerHostSpec &host,
                                      const sim::DatacenterTax &tax,
                                      double rate_bps);

/**
 * The trainer-host preprocessing path is lighter per sample than a
 * DPP worker's (no tensor-egress RPC, in-process handoff); these
 * factors scale the worker-calibrated per-sample costs onto the
 * trainer host. Calibrated against Table VII (56% stall, 92% CPU,
 * 54% memBW for RM1).
 */
inline constexpr double kOnHostCycleFactor = 0.236;
inline constexpr double kOnHostMemBwFactor = 0.118;
/** CPU share preprocessing can claim (rest runs the training loop). */
inline constexpr double kOnHostCpuCeiling = 0.92;

/** Outcome of on-host preprocessing for one model (Table VII). */
struct OnHostResult
{
    double demand_qps = 0;  ///< samples/s the GPUs could consume
    double supply_qps = 0;  ///< samples/s the host can preprocess
    double stall_fraction = 0; ///< share of GPU cycles spent waiting
    double cpu_util = 0;
    double membw_util = 0;
};

OnHostResult onHostPreprocessing(const warehouse::RmSpec &rm,
                                 const sim::TrainerHostSpec &host,
                                 const sim::DatacenterTax &tax);

/** Result of the functional stall probe. */
struct StallProbeResult
{
    uint64_t rounds = 0;
    uint64_t stalled_rounds = 0;  ///< rounds with unmet tensor demand
    uint64_t tensors = 0;

    double stallFraction() const
    {
        return rounds ? static_cast<double>(stalled_rounds) /
                            static_cast<double>(rounds)
                      : 0.0;
    }
};

/**
 * Drive a synchronous trainer loop against the workers of a real
 * one-tenant fleet: each round every worker pumps once and the
 * trainer demands `tensors_per_round` through one Client. A round
 * that cannot supply the demand is a stall, unless every worker is
 * dry and empty. Ends when the session drains.
 */
StallProbeResult measureStallRounds(
    const warehouse::Warehouse &warehouse, dpp::SessionSpec spec,
    uint32_t workers, uint32_t tensors_per_round);

} // namespace dsi::trainer

#endif // DSI_TRAINER_TRAINER_H
