/**
 * @file
 * RPC-unit auxiliary blocks: the Protocol unit hook and the Packet
 * Monitor (Fig. 6).
 *
 * "The Protocol is the last module of the RPC unit. It is designed to
 * implement RPC-optimized protocol layers such as congestion control,
 * piggybacking acknowledgement, ... and is currently idle - it simply
 * forwards all packets to the network." (§4.5)  The hook interface
 * below is that extension point; an optional ACK/retransmit protocol
 * ships in nic/ack_protocol.hh.
 */

#ifndef DAGGER_NIC_PIPELINE_HH
#define DAGGER_NIC_PIPELINE_HH

#include <cstdint>

#include "net/tor_switch.hh"
#include "sim/metrics.hh"
#include "sim/stats.hh"

namespace dagger::nic {

class DaggerNic;

/** Protocol-unit extension hook. */
class ProtocolUnit
{
  public:
    virtual ~ProtocolUnit() = default;

    /** Attach to the owning NIC (called once at install time). */
    virtual void attach(DaggerNic &) {}

    /**
     * Egress hook, after serialization, before the wire.
     * @retval false swallow the packet (the protocol took ownership).
     */
    virtual bool onEgress(net::Packet &) { return true; }

    /**
     * Ingress hook, straight off the wire.
     * @retval false consume the packet (e.g., it was an ACK).
     */
    virtual bool onIngress(net::Packet &) { return true; }

    virtual const char *name() const { return "idle"; }
};

/** The Packet Monitor block: networking statistics (§4.1). */
struct PacketMonitor
{
    sim::Counter rpcsOut;
    sim::Counter rpcsIn;
    sim::Counter framesFetched;
    sim::Counter framesPosted;
    sim::Counter bytesOut;
    sim::Counter bytesIn;
    sim::Counter dropsNoConnection;
    sim::Counter dropsNoSlot;
    sim::Counter malformed;
    sim::Counter timeoutFlushes;
    sim::Histogram fetchBatch;
    sim::Histogram postBatch;

    /** Total drops across causes observable at the NIC. */
    std::uint64_t
    drops() const
    {
        return dropsNoConnection.value() + dropsNoSlot.value();
    }

    /** Register all monitor statistics under @p scope. */
    void
    registerMetrics(sim::MetricScope scope) const
    {
        scope.counter("rpcs_out", rpcsOut);
        scope.counter("rpcs_in", rpcsIn);
        scope.counter("frames_fetched", framesFetched);
        scope.counter("frames_posted", framesPosted);
        scope.counter("bytes_out", bytesOut);
        scope.counter("bytes_in", bytesIn);
        scope.counter("drops_no_connection", dropsNoConnection);
        scope.counter("drops_no_slot", dropsNoSlot);
        scope.counter("malformed", malformed);
        scope.counter("timeout_flushes", timeoutFlushes);
        scope.histogram("fetch_batch", fetchBatch);
        scope.histogram("post_batch", postBatch);
    }
};

} // namespace dagger::nic

#endif // DAGGER_NIC_PIPELINE_HH
