/**
 * @file
 * Shared test fixture for driving Workers by hand: a closed one-tenant
 * FleetScheduler, the only control plane a Worker talks to.
 */

#ifndef DSI_TESTS_FLEET_FIXTURE_H
#define DSI_TESTS_FLEET_FIXTURE_H

#include <memory>
#include <utility>

#include "dpp/fleet.h"

namespace dsi::testing {

/**
 * A one-worker fleet serving `spec` as tenant 0, closed to further
 * tenants, so its workers see NoWork once every split is delivered.
 * Nothing drives it: tests pump (or start) fleet->workerAt(0) and pop
 * its tensors themselves.
 */
inline std::unique_ptr<dpp::FleetScheduler>
oneTenantFleet(const warehouse::Warehouse &warehouse,
               dpp::SessionSpec spec, dpp::WorkerOptions worker = {},
               dpp::AdmissionOptions admission = {})
{
    dpp::FleetOptions options;
    options.initial_workers = 1;
    options.worker = worker;
    options.admission = admission;
    options.preemption = false;
    auto fleet = std::make_unique<dpp::FleetScheduler>(warehouse, options);
    fleet->addTenant(std::move(spec));
    fleet->close();
    return fleet;
}

/**
 * Pump a synchronous worker until the fleet has no split left for it:
 * its poll gets Standby (every split is taken and the rest await
 * delivery) or NoWork. Its buffer keeps whatever it produced.
 */
inline void
pumpUntilIdle(dpp::Worker &worker)
{
    const auto standby = [&] {
        return worker.metrics().counter("worker.standby_polls");
    };
    for (double before = standby(); worker.pump() && standby() == before;) {
    }
}

} // namespace dsi::testing

#endif // DSI_TESTS_FLEET_FIXTURE_H
