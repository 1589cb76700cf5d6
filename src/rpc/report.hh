/**
 * @file
 * System statistics report.
 *
 * The paper's Packet Monitor "collects various networking statistics"
 * (§4.1); this is the operator-facing view: per-NIC counters, channel
 * utilization, connection-cache and HCC hit rates, ring/switch drops.
 *
 * The report is a generic walk over the system's MetricRegistry (see
 * sim/metrics.hh); components register their statistics at
 * construction, nothing here knows any component's internals.
 */

#ifndef DAGGER_RPC_REPORT_HH
#define DAGGER_RPC_REPORT_HH

#include <string>

#include "rpc/system.hh"

namespace dagger::rpc {

/**
 * The system-wide statistics as a JSON object: a "time_us" timestamp
 * plus a "metrics" map of every registered metric keyed by
 * hierarchical name.
 */
std::string reportSystemJson(DaggerSystem &sys);

} // namespace dagger::rpc

#endif // DAGGER_RPC_REPORT_HH
