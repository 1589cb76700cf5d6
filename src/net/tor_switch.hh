/**
 * @file
 * Top-of-rack switch model.
 *
 * The paper connects its two on-FPGA NICs "via a loop-back network"
 * and models a ToR delay of 0.3 us (Table 3); the 8-tier experiment
 * uses "our simple model of a ToR networking switch with a static
 * switching table" (§5.7).  This is that switch: static routing by
 * destination node id, a fixed per-hop delay, per-egress-port
 * serialization at line rate, and bounded egress queues with drop
 * accounting.
 */

#ifndef DAGGER_NET_TOR_SWITCH_HH
#define DAGGER_NET_TOR_SWITCH_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "proto/wire.hh"
#include "sim/event_queue.hh"
#include "sim/metrics.hh"
#include "sim/reuse.hh"
#include "sim/time.hh"

namespace dagger::net {

using sim::EventQueue;
using sim::Tick;

/** Network endpoint identifier (one per NIC instance). */
using NodeId = std::uint16_t;

/** A network packet: one RPC message's frames, addressed. */
struct Packet
{
    NodeId src = 0;
    NodeId dst = 0;
    /** Transport metadata stamped by a reliable Protocol unit; rides
     *  beside the frames and is not counted in wireBytes(). */
    proto::TransportHeader th;
    std::vector<proto::Frame> frames;

    std::size_t wireBytes() const
    {
        return frames.size() * proto::kCacheLineBytes;
    }
};

class TorSwitch;
class FaultInjector;

/** One switch port; handed to a NIC's transport layer. */
class SwitchPort
{
  public:
    /** Transmit a packet into the switch. */
    void send(Packet pkt);

    /** Install the delivery callback (packets arriving at this port). */
    void
    setReceiver(std::function<void(Packet)> rx)
    {
        _receiver = std::move(rx);
    }

    /**
     * Install a fault injector on this port's *delivery* side: every
     * packet that finishes egress serialization is handed to @p fi
     * instead of the receiver, and @p fi decides whether (and when) it
     * reaches the receiver.  nullptr uninstalls.  Use
     * FaultInjector::install, which allocates the port's fault state.
     */
    void setFaultInjector(FaultInjector *fi);

    NodeId node() const { return _node; }

  private:
    friend class TorSwitch;
    friend class FaultInjector;
    SwitchPort(TorSwitch &sw, NodeId node);

    void deliver(Packet pkt);
    /** Final hop: hand @p pkt to the receiver, bypassing the injector. */
    void receiverDeliver(Packet pkt);

    TorSwitch &_switch;
    NodeId _node;
    FaultInjector *_fault = nullptr;
    std::function<void(Packet)> _receiver;

    // Egress side (switch -> this port).
    sim::RingFifo<Packet> _egressQueue;
    bool _egressBusy = false;
    /** Packet currently serializing out of this port.  Parked here so
     *  the serialization-done event captures only [this, &port] and
     *  stays inline; egress serializes one packet at a time. */
    Packet _inFlight;
};

/**
 * The switch itself.  Routing is purely static: packets go to the
 * port registered under their destination node id.
 */
class TorSwitch
{
  public:
    /**
     * @param eq        event queue
     * @param hop_delay one-way switch traversal delay (0.3 us default)
     * @param byte_time serialization time per byte at egress
     *                  (default ~100 Gb/s)
     * @param queue_cap egress queue capacity in packets
     */
    explicit TorSwitch(EventQueue &eq,
                       Tick hop_delay = sim::nsToTicks(300),
                       Tick byte_time = sim::nsToTicks(0.08),
                       std::size_t queue_cap = 4096);

    /** Attach (or fetch) the port for @p node. */
    SwitchPort &attach(NodeId node);

    std::uint64_t forwarded() const { return _forwarded; }
    /** Egress-queue overflows plus unroutable packets. */
    std::uint64_t dropped() const { return _dropped; }

    /** Register switch statistics under @p scope. */
    void
    registerMetrics(sim::MetricScope scope)
    {
        scope.intGauge("forwarded", [this] { return forwarded(); });
        scope.intGauge("dropped", [this] { return dropped(); });
    }

  private:
    friend class SwitchPort;

    void route(Packet pkt);
    void enqueueEgress(SwitchPort &port, Packet pkt);
    void drainEgress(SwitchPort &port);
    void egressDone(SwitchPort &port);

    EventQueue &_eq;
    Tick _hopDelay;
    Tick _byteTime;
    std::size_t _queueCap;
    std::vector<std::unique_ptr<SwitchPort>> _ports; // indexed by NodeId
    std::uint64_t _forwarded = 0;
    std::uint64_t _dropped = 0;
};

} // namespace dagger::net

#endif // DAGGER_NET_TOR_SWITCH_HH
