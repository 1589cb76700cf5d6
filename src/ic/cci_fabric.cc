#include "ic/cci_fabric.hh"

#include "sim/logging.hh"

namespace dagger::ic {

CciFabric::CciFabric(EventQueue &eq, IfaceKind kind, unsigned ports,
                     UpiCost upi, PcieCost pcie)
    : _eq(eq), _kind(kind), _upi(upi), _pcie(pcie),
      _toNic(eq,
             isMemoryInterconnect(kind) ? upi.lineService
                                        : pcie.lineService,
             isMemoryInterconnect(kind) ? upi.txnOverhead
                                        : pcie.txnOverhead,
             ports),
      _toHost(eq,
              isMemoryInterconnect(kind) ? upi.lineService
                                         : pcie.lineService,
              isMemoryInterconnect(kind) ? upi.txnOverhead
                                         : pcie.txnOverhead,
              ports),
      _maxOutstanding(isMemoryInterconnect(kind) ? upi.maxOutstanding
                                                 : pcie.maxOutstanding)
{
    _ports.reserve(ports);
    for (unsigned i = 0; i < ports; ++i)
        _ports.emplace_back(std::unique_ptr<CciPort>(new CciPort(*this, i)));
}

CciPort &
CciFabric::addPort()
{
    const unsigned id = _toNic.addPort();
    const unsigned id2 = _toHost.addPort();
    dagger_assert(id == id2 && id == _ports.size(),
                  "channel/port id drift");
    _ports.emplace_back(std::unique_ptr<CciPort>(new CciPort(*this, id)));
    if (_metricScope)
        registerPortMetrics(*_ports.back());
    return *_ports.back();
}

void
CciFabric::registerMetrics(sim::MetricScope scope)
{
    dagger_assert(!_metricScope, "fabric metrics registered twice");
    _metricScope = scope;
    // The two channel directions.  The utilization gauges are windowed
    // over the whole simulated time.
    scope.gauge("to_nic.utilization",
                [this] { return _toNic.utilization(_eq.now()); });
    scope.gauge("to_host.utilization",
                [this] { return _toHost.utilization(_eq.now()); });
    scope.intGauge("to_nic.lines", [this] { return _toNic.linesServiced(); });
    scope.intGauge("to_host.lines",
                   [this] { return _toHost.linesServiced(); });
    scope.intGauge("to_nic.txns", [this] { return _toNic.txnsServiced(); });
    scope.intGauge("to_host.txns", [this] { return _toHost.txnsServiced(); });
    scope.intGauge("to_nic.busy_ticks",
                   [this] {
                       return static_cast<std::uint64_t>(_toNic.busyTicks());
                   });
    scope.intGauge("to_host.busy_ticks",
                   [this] {
                       return static_cast<std::uint64_t>(_toHost.busyTicks());
                   });
    for (auto &port : _ports)
        registerPortMetrics(*port);
}

void
CciFabric::registerPortMetrics(CciPort &port)
{
    std::string leaf = "port" + std::to_string(port.id());
    sim::MetricScope scope = _metricScope->sub(leaf);
    scope.intGauge("fetch_txns", [&port] { return port.fetchTxns(); });
    scope.intGauge("post_txns", [&port] { return port.postTxns(); });
    scope.intGauge("lines_fetched", [&port] { return port.linesFetched(); });
    scope.intGauge("lines_posted", [&port] { return port.linesPosted(); });
    scope.intGauge("stalls", [&port] { return port.stalls(); });
}

CciPort &
CciFabric::port(unsigned i)
{
    dagger_assert(i < _ports.size(), "bad port index ", i);
    return *_ports[i];
}

Tick
CciFabric::hostTxCpuCost(unsigned batch) const
{
    return ic::hostTxCpuCost(_kind, batch, _upi, _pcie);
}

Tick
CciPort::hostPollPenalty() const
{
    // Only the UPI invalidation path polls; CXL writes push directly.
    if (_fabric.kind() != IfaceKind::Upi)
        return 0;
    return _pollMode == PollMode::LocalCache
        ? _fabric.upi().ownershipBounceCost
        : 0;
}

void
CciPort::fetch(unsigned lines, EventFn done)
{
    Tick extra = hostTxBaseLatency(_fabric.kind(), _fabric.upi(),
                                   _fabric.pcie());
    if (_fabric.kind() == IfaceKind::Upi && _pollMode == PollMode::Llc)
        extra += _fabric.upi().llcPollExtra;
    ++_fetchTxns;
    _linesFetched += lines;
    submit(Op{true, lines, extra, std::move(done)});
}

void
CciPort::post(unsigned lines, EventFn done)
{
    const Tick extra = isMemoryInterconnect(_fabric.kind())
        ? _fabric.upi().postLatency
        : _fabric.pcie().postLatency;
    ++_postTxns;
    _linesPosted += lines;
    submit(Op{false, lines, extra, std::move(done)});
}

void
CciPort::bookkeep(EventFn done)
{
    // Bookkeeping rides back piggybacked on read responses / posted
    // metadata: it costs delivery latency but no dedicated channel
    // occupancy (the paper pipelines it with in-flight requests,
    // §4.4).  CXL device buffers are NIC-owned: release is immediate.
    const Tick extra = _fabric.kind() == IfaceKind::Cxl ? 0
        : _fabric.kind() == IfaceKind::Upi
        ? _fabric.upi().bookkeepLatency
        : _fabric.pcie().postLatency;
    // Pass the completion straight through instead of wrapping it: an
    // EventClosure scheduled from an EventClosure rvalue is a plain
    // move, so the caller's inline storage survives end to end.
    _fabric._eq.schedule(extra, std::move(done), sim::Priority::Hardware);
}

void
CciPort::rawRead(EventFn done)
{
    // Idle reads are hardware-pipelined: no FSM transaction overhead.
    submit(Op{true, 1, _fabric.upi().fetchLatency, std::move(done), true});
}

void
CciPort::submit(Op op)
{
    dagger_assert(op.lines > 0, "zero-line CCI-P op on port ", _id);
    if (_inFlight >= _fabric._maxOutstanding) {
        ++_stalls;
        _pendingWindow.push_back(std::move(op));
        return;
    }
    issue(std::move(op));
}

void
CciPort::issue(Op op)
{
    ++_inFlight;
    // §4.4: a port may keep at most maxOutstanding (default 128) CCI-P
    // transactions in flight; anything above means the pending-window
    // bookkeeping in submit()/completed() has desynchronized.
    dagger_assert(_inFlight <= _fabric._maxOutstanding,
                  "port ", _id, " exceeded the outstanding-transaction "
                  "window: ", _inFlight, " > ",
                  _fabric._maxOutstanding);
    Channel &ch = op.to_nic ? _fabric._toNic : _fabric._toHost;
    const Tick extra = op.extra_latency;
    auto done = std::move(op.done);
    const std::uint32_t slot =
        _inFlightOps.put(InFlight{std::move(done), extra});
    auto granted = [this, slot] { onGranted(slot); };
    static_assert(sim::EventClosure::fitsInline<decltype(granted)>());
    ch.request(_id, op.lines, std::move(granted), op.streamed);
}

void
CciPort::onGranted(std::uint32_t slot)
{
    // Channel service finished; propagation takes the op's extra latency.
    auto propagated = [this, slot] { onPropagated(slot); };
    static_assert(sim::EventClosure::fitsInline<decltype(propagated)>());
    _fabric._eq.schedule(_inFlightOps[slot].extra_latency,
                         std::move(propagated), sim::Priority::Hardware);
}

void
CciPort::onPropagated(std::uint32_t slot)
{
    // Free the slot before completed() issues a queued op into it.
    EventFn done = _inFlightOps.take(slot).done;
    completed();
    if (done)
        done();
}

void
CciPort::completed()
{
    dagger_assert(_inFlight > 0, "completion without in-flight op");
    --_inFlight;
    if (!_pendingWindow.empty())
        issue(_pendingWindow.take());
}

} // namespace dagger::ic
