/**
 * @file
 * Hard and soft configuration of the Dagger NIC (§4.1).
 *
 * Hard configuration corresponds to SystemVerilog parameters baked
 * into a synthesized bitstream: number of flows, cache sizes, ring
 * sizes, the CPU-NIC interface flavour.  Changing it means building a
 * new NIC object (the analogue of reprogramming the FPGA).
 *
 * Soft configuration corresponds to the soft register file written
 * over MMIO at runtime ("Dagger uses soft configuration to control
 * the batch size of CCI-P data transfers, provision the transmit and
 * receive rings, ..., choose a load balancing scheme").
 */

#ifndef DAGGER_NIC_CONFIG_HH
#define DAGGER_NIC_CONFIG_HH

#include <cstdint>

#include "ic/cost_model.hh"
#include "sim/time.hh"

namespace dagger::nic {

/** Load-balancing schemes supported by the RPC unit (§4.4.2, §5.7). */
enum class LbScheme : std::uint8_t {
    RoundRobin,  ///< dynamic uniform steering
    Static,      ///< per-connection static assignment (conn tuple field)
    ObjectLevel, ///< application-specific key hash (MICA, §5.7)
};

/** Hard configuration: fixed when the NIC is "synthesized". */
struct NicConfig
{
    /** Parallel NIC flows; 1-to-1 with software RX/TX ring pairs. */
    unsigned numFlows = 4;

    /** Connection-cache entries (power of two; up to ~153K, §4.2). */
    std::size_t connCacheEntries = 1024;

    /** Per-flow TX ring capacity in 64 B entries (§4.4 sizing rule). */
    std::size_t txRingEntries = 256;

    /** Per-flow RX ring capacity in 64 B entries. */
    std::size_t rxRingEntries = 256;

    /** CPU-NIC interface flavour (Fig. 10 sweep); rpc::DaggerSystem's
     *  addNode() sets it to the system's fabric. */
    ic::IfaceKind iface = ic::IfaceKind::Upi;

    /** NIC clock period: 200 MHz per Table 1. */
    sim::Tick clockPeriod = sim::nsToTicks(5);

    /**
     * RPC-unit pipeline depth in cycles (serializer/deserializer,
     * connection lookup, load balancer; Table 1 lists the unit at
     * 200 MHz).  One message spends depth * clockPeriod per direction.
     */
    unsigned pipelineDepth = 6;

    /**
     * Enable DRAM backing of the connection cache (paper future work,
     * implemented here as an extension; see bench/abl_conn_cache).
     */
    bool connCacheDramBacking = false;

    /** Coherent fetch cost of a connection-state fill on a miss. */
    sim::Tick connMissPenalty = sim::nsToTicks(400);
};

/** Soft configuration: mutable at runtime through soft registers. */
struct SoftConfig
{
    /** CCI-P batching factor B (frames per transfer), Fig. 10/11. */
    unsigned batchSize = 4;

    /**
     * Auto-batching: fetch whatever is pending when the FSM is idle
     * instead of waiting for a full batch (the green dashed line in
     * Fig. 11 left).
     */
    bool autoBatch = false;

    /** Max time a partial batch may wait before being forced out.
     *  Calibrated: Fig. 11 (left) shows B=4 costs ~1 us of extra
     *  median latency at low load relative to B=1. */
    sim::Tick batchTimeout = sim::usToTicks(0.5);

    /** Load-balancing scheme for incoming requests. */
    LbScheme loadBalancer = LbScheme::RoundRobin;

    /** Active flows (<= NicConfig::numFlows). */
    unsigned activeFlows = 0; ///< 0 means "all configured flows"

    /**
     * Load threshold (fetches/us) above which the FPGA switches from
     * local-cache polling to direct LLC polling (§4.4.1).
     */
    double llcPollThresholdMrps = 4.0;
};

} // namespace dagger::nic

#endif // DAGGER_NIC_CONFIG_HH
