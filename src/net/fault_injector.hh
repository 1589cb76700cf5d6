/**
 * @file
 * Deterministic per-link fault injection.
 *
 * The paper's loop-back network and ToR model are lossless; real
 * datacenter links are not, and the RPC unit's Protocol block (§4.5)
 * exists precisely to recover from loss.  FaultInjector sits between a
 * SwitchPort's egress serializer and its receiver callback and applies
 * a seeded fault model — drop, duplicate, reorder-by-delay, and
 * payload-corruption probabilities, plus scripted link-flap windows —
 * so the reliability stack above it (nic::AckProtocol, RpcClient retry
 * budgets) can be exercised reproducibly.
 *
 * Determinism contract: every installed port owns its own seeded
 * sim::Rng, consumed in that port's packet-arrival order, so fault
 * decisions are identical across --jobs.  The first installed port
 * uses the spec seed directly (single-port installs see the classic
 * stream); every further port derives its stream by mixing its node id
 * into the seed.
 *
 * Install ports and register scripts before traffic starts: the
 * per-port state table and the script tables are read-only once
 * packets flow.
 */

#ifndef DAGGER_NET_FAULT_INJECTOR_HH
#define DAGGER_NET_FAULT_INJECTOR_HH

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "net/tor_switch.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"

namespace dagger::net {

/**
 * Fault model for one link direction.  All probabilities are
 * independent per-packet Bernoulli trials; faults compose in a fixed
 * order (scripted → flap → drop → corrupt → duplicate → reorder), so
 * e.g. a duplicated packet can also be delivered out of order.
 */
struct FaultSpec
{
    double dropP = 0.0;    ///< P(packet silently dropped)
    double dupP = 0.0;     ///< P(packet delivered twice)
    double reorderP = 0.0; ///< P(delivery delayed by reorderDelay)
    double corruptP = 0.0; ///< P(one payload byte flipped)

    /** Extra delivery delay applied to reordered packets. */
    sim::Tick reorderDelay = sim::usToTicks(5);
    /** Delay of the second copy of a duplicated packet. */
    sim::Tick dupDelay = sim::usToTicks(2);

    /** Link-flap window [start, end): every packet in it is dropped. */
    struct FlapWindow
    {
        sim::Tick start = 0;
        sim::Tick end = 0;
    };
    std::vector<FlapWindow> flaps;

    std::uint64_t seed = 0x6661756c74ull; ///< rng seed ("fault")
};

/**
 * One injector instance guards the delivery side of one or more
 * SwitchPorts.  Each installed port gets its own rng stream and
 * counters.
 */
class FaultInjector
{
  public:
    FaultInjector(sim::EventQueue &eq, FaultSpec spec = {})
        : _eq(eq), _spec(spec)
    {}

    /** Install on @p port (allocates the port's fault state). */
    void install(SwitchPort &port);

    /** Script: drop the @p nth packet seen on a port (1-based). */
    void scriptDrop(std::uint64_t nth) { _scriptDrops.insert(nth); }

    /** Script: delay a port's @p nth packet (1-based) by @p delay. */
    void
    scriptDelay(std::uint64_t nth, sim::Tick delay)
    {
        _scriptDelays[nth] = delay;
    }

    /** Script: flip a payload byte of a port's @p nth packet (1-based). */
    void scriptCorrupt(std::uint64_t nth) { _scriptCorrupts.insert(nth); }

    std::uint64_t seen() const { return sum(&PortState::seen); }
    std::uint64_t delivered() const { return sum(&PortState::delivered); }
    std::uint64_t droppedCount() const { return sum(&PortState::dropped); }
    std::uint64_t duplicated() const
    {
        return sum(&PortState::duplicated);
    }
    std::uint64_t reordered() const { return sum(&PortState::reordered); }
    std::uint64_t corrupted() const { return sum(&PortState::corrupted); }
    std::uint64_t flapDropped() const
    {
        return sum(&PortState::flapDropped);
    }

    /** Register net.fault.* counters under @p scope. */
    void registerMetrics(sim::MetricScope scope);

  private:
    friend class SwitchPort;

    /** Fault state of one installed port: its rng stream, script
     *  index, and statistics. */
    struct PortState
    {
        explicit PortState(std::uint64_t seed) : rng(seed) {}

        sim::Rng rng;
        std::uint64_t index = 0; ///< script index
        std::uint64_t seen = 0;
        std::uint64_t delivered = 0;
        std::uint64_t dropped = 0;
        std::uint64_t duplicated = 0;
        std::uint64_t reordered = 0;
        std::uint64_t corrupted = 0;
        std::uint64_t flapDropped = 0;
    };

    /** Apply the fault model to @p pkt bound for @p port's receiver. */
    void process(SwitchPort &port, Packet pkt);

    /** Deliver now or after @p delay, through the injector bypass. */
    void schedule(SwitchPort &port, PortState &st, Packet pkt,
                  sim::Tick delay);

    bool inFlap(sim::Tick now) const;
    void corruptPayload(PortState &st, Packet &pkt);
    std::uint64_t sum(std::uint64_t PortState::*field) const;

    sim::EventQueue &_eq;
    FaultSpec _spec;

    /** Keyed by port; entries are created by install(). */
    std::map<const SwitchPort *, PortState> _ports;

    // Scripts are read-only during the run (see file comment).
    std::set<std::uint64_t> _scriptDrops;
    std::set<std::uint64_t> _scriptCorrupts;
    std::map<std::uint64_t, sim::Tick> _scriptDelays;
};

} // namespace dagger::net

#endif // DAGGER_NET_FAULT_INJECTOR_HH
