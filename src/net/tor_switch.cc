#include "net/tor_switch.hh"

#include "net/fault_injector.hh"
#include "sim/logging.hh"
#include "sim/sharded_engine.hh"

namespace dagger::net {

TorSwitch::TorSwitch(EventQueue &eq, Tick hop_delay, Tick byte_time,
                     std::size_t queue_cap)
    : _eq(eq), _hopDelay(hop_delay), _byteTime(byte_time),
      _queueCap(queue_cap)
{}

SwitchPort::SwitchPort(TorSwitch &sw, NodeId node)
    : _switch(sw), _node(node), _eq(&sw._eq)
{}

SwitchPort &
TorSwitch::attach(NodeId node)
{
    if (node >= _ports.size())
        _ports.resize(node + 1);
    if (!_ports[node])
        _ports[node] =
            std::unique_ptr<SwitchPort>(new SwitchPort(*this, node));
    return *_ports[node];
}

void
TorSwitch::bindPort(NodeId node, EventQueue &eq, unsigned shard)
{
    SwitchPort &port = attach(node);
    port._eq = &eq;
    port._shard = shard;
    if (_engine)
        port._guard.bind(_engine, shard);
}

std::uint64_t
TorSwitch::forwarded() const
{
    std::uint64_t total = 0;
    for (const auto &port : _ports)
        if (port)
            total += port->_forwarded;
    return total;
}

std::uint64_t
TorSwitch::dropped() const
{
    std::uint64_t total = 0;
    for (const auto &port : _ports)
        if (port)
            total += port->_dropped + port->_unroutable;
    return total;
}

void
SwitchPort::setFaultInjector(FaultInjector *fi)
{
    _fault = fi;
}

void
SwitchPort::send(Packet pkt)
{
    pkt.src = _node;
    TorSwitch &sw = _switch;
    if (sw._engine) {
        // Sharded mode: routing is a static-table lookup, so resolve
        // the destination port here and run the whole egress pipeline
        // (queueing, serialization, delivery) in the destination
        // node's domain.  The hop delay covers the cross-domain
        // hand-off; it is one of the latencies the engine lookahead is
        // derived from.
        SwitchPort *dst = pkt.dst < sw._ports.size()
            ? sw._ports[pkt.dst].get()
            : nullptr;
        if (!dst) {
            ++_unroutable;
            dagger_warn("ToR: no port for node ", pkt.dst,
                        "; packet dropped");
            return;
        }
        auto arrive = [sw = &_switch, dst, pkt = std::move(pkt)]() mutable {
            sw->enqueueEgress(*dst, std::move(pkt));
        };
        if (dst->_shard == _shard)
            _eq->schedule(sw._hopDelay, std::move(arrive),
                          sim::Priority::Hardware);
        else
            sw._engine->postCross(_shard, dst->_shard, sw._hopDelay,
                                  std::move(arrive),
                                  sim::Priority::Hardware);
        return;
    }
    // Ingress: the packet traverses the switch fabric after hop delay,
    // then serializes out of the destination's egress port.
    auto hop = [sw = &_switch, pkt = std::move(pkt)]() mutable {
        sw->route(std::move(pkt));
    };
    static_assert(sim::EventClosure::fitsInline<decltype(hop)>());
    _switch._eq.schedule(_switch._hopDelay, std::move(hop),
                         sim::Priority::Hardware);
}

void
TorSwitch::route(Packet pkt)
{
    if (pkt.dst >= _ports.size() || !_ports[pkt.dst]) {
        if (pkt.src < _ports.size() && _ports[pkt.src])
            ++_ports[pkt.src]->_unroutable;
        dagger_warn("ToR: no port for node ", pkt.dst, "; packet dropped");
        return;
    }
    enqueueEgress(*_ports[pkt.dst], std::move(pkt));
}

void
TorSwitch::enqueueEgress(SwitchPort &port, Packet pkt)
{
    // Egress state is node-domain: on a sharded system this runs in
    // the destination port's shard (send() crossed the packet over).
    port._guard.check("net::SwitchPort egress pipeline");
    if (port._egressQueue.size() >= _queueCap) {
        ++port._dropped;
        return;
    }
    port._egressQueue.push_back(std::move(pkt));
    if (!port._egressBusy)
        drainEgress(port);
}

void
TorSwitch::drainEgress(SwitchPort &port)
{
    port._guard.check("net::SwitchPort egress pipeline");
    if (port._egressQueue.empty()) {
        port._egressBusy = false;
        return;
    }
    port._egressBusy = true;
    port._inFlight = port._egressQueue.take();
    const Tick ser = _byteTime * port._inFlight.wireBytes();
    ++port._forwarded;
    auto serialized = [this, &port] { egressDone(port); };
    static_assert(sim::EventClosure::fitsInline<decltype(serialized)>());
    port._eq->schedule(ser, std::move(serialized), sim::Priority::Hardware);
}

void
TorSwitch::egressDone(SwitchPort &port)
{
    // Move the packet out first: drainEgress() below reuses the
    // _inFlight slot for the next queued packet.
    Packet pkt = std::move(port._inFlight);
    port.deliver(std::move(pkt));
    drainEgress(port);
}

void
SwitchPort::deliver(Packet pkt)
{
    if (_fault) {
        _fault->process(*this, std::move(pkt));
        return;
    }
    receiverDeliver(std::move(pkt));
}

void
SwitchPort::receiverDeliver(Packet pkt)
{
    if (_receiver)
        _receiver(std::move(pkt));
}

} // namespace dagger::net
