#include "nic/dagger_nic.hh"

#include "sim/logging.hh"

namespace dagger::nic {

namespace {
/// Hardware maximum frames per CCI-P transaction (auto-batch burst cap).
constexpr std::size_t kHwMaxBatch = 16;
/// Per-flow ingress stall capacity, in frames.  The request buffer's
/// free-slot FIFO backpressures the ingress pipeline ("drop or stall",
/// request_buffer.hh); we model the stall: frames wait here until a
/// table slot frees, and only a backlog beyond several maximum-size
/// messages (kMaxPayloadBytes / kFramePayload = 1366 frames each) is
/// dropped as drops_no_slot.
constexpr std::size_t kIngressStallFrames = 8192;
/// Poll-mode management window (§4.4.1 load-triggered switch).
constexpr sim::Tick kPollWindow = sim::usToTicks(10);
} // namespace

DaggerNic::DaggerNic(sim::EventQueue &eq, NicConfig cfg, SoftConfig soft,
                     ic::CciPort &port, net::SwitchPort &net)
    : _eq(eq), _cfg(cfg), _soft(soft), _port(port), _net(net),
      // NOTE: the connection manager must reference the *member*
      // config (_cfg), not the constructor parameter, which dies at
      // return.
      _cm(_cfg), _hcc(cfg.connMissPenalty),
      _reqBuffer(kHwMaxBatch * cfg.numFlows, cfg.numFlows),
      _flows(cfg.numFlows)
{
    dagger_assert(cfg.numFlows >= 1, "NIC needs at least one flow");
    _spareBatches.reserve(kMaxSpares);
    _spareBodies.reserve(kMaxSpares);
    _net.setReceiver([this](net::Packet pkt) { onNetReceive(std::move(pkt)); });
}

void
DaggerNic::attachFlow(unsigned flow, rpc::TxRing *tx, rpc::RxRing *rx)
{
    dagger_assert(flow < _flows.size(), "bad flow ", flow);
    dagger_assert(tx && rx, "attachFlow with null rings");
    _flows[flow].tx = tx;
    _flows[flow].rx = rx;
    tx->setNotify([this, flow] { maybeFetch(flow); });
}

bool
DaggerNic::openConnection(proto::ConnId id, const ConnTuple &tuple)
{
    dagger_assert(tuple.srcFlow < _cfg.numFlows,
                  "connection src_flow out of range");
    return _cm.open(id, tuple);
}

void
DaggerNic::setObjectLevelKey(std::size_t key_offset, std::size_t key_len)
{
    _objLb = ObjectLevelLb(key_offset, key_len);
}

void
DaggerNic::setProtocol(std::unique_ptr<AckProtocol> protocol)
{
    _protocol = std::move(protocol);
    if (_protocol)
        _protocol->attach(*this);
}

void
DaggerNic::protocolEgress(net::Packet pkt)
{
    _net.send(std::move(pkt));
}

// ------------------------- RX path (host -> net) -------------------------

void
DaggerNic::maybeFetch(unsigned flow)
{
    FlowState &fs = _flows[flow];
    if (!fs.tx)
        return;
    const unsigned B = effectiveBatch();
    for (;;) {
        const std::size_t avail = fs.tx->pendingFrames();
        if (avail == 0)
            return;
        if (fs.outstandingFetches >= kMaxFlowFetches)
            return; // completion will re-trigger
        if (_soft.autoBatch) {
            // Pull whatever is ready, up to the hardware burst cap.
            issueFetch(flow, std::min(avail, kHwMaxBatch));
            continue;
        }
        if (avail >= B) {
            issueFetch(flow, B);
            continue;
        }
        // Partial batch: wait for more entries or flush on timeout.
        armFetchTimeout(flow);
        return;
    }
}

void
DaggerNic::armFetchTimeout(unsigned flow)
{
    FlowState &fs = _flows[flow];
    if (fs.fetchTimeoutArmed)
        return;
    fs.fetchTimeoutArmed = true;
    _eq.schedule(_soft.batchTimeout,
                 [this, flow] {
                     FlowState &f = _flows[flow];
                     f.fetchTimeoutArmed = false;
                     const std::size_t avail = f.tx->pendingFrames();
                     if (avail > 0 && avail < effectiveBatch() &&
                         f.outstandingFetches < kMaxFlowFetches) {
                         _monitor.timeoutFlushes.inc();
                         issueFetch(flow, avail);
                     }
                     maybeFetch(flow);
                 },
                 sim::Priority::Hardware);
}

std::vector<proto::Frame>
DaggerNic::takeSpare(SparePool &pool)
{
    if (pool.empty())
        return {};
    std::vector<proto::Frame> frames = std::move(pool.back());
    pool.pop_back();
    return frames;
}

void
DaggerNic::recycle(SparePool &pool, std::vector<proto::Frame> &&frames)
{
    frames.clear();
    if (pool.size() < kMaxSpares && frames.capacity() > 0 &&
        frames.capacity() <= kMaxSpareFrames)
        pool.push_back(std::move(frames));
}

void
DaggerNic::issueFetch(unsigned flow, std::size_t frames)
{
    FlowState &fs = _flows[flow];
    std::vector<proto::Frame> claimed = takeSpare(_spareBatches);
    const std::size_t got = fs.tx->popFrames(frames, claimed);
    dagger_assert(got == frames, "ring under-delivered");
    ++fs.outstandingFetches;
    // The RX FSM pipelines asynchronous reads but maybeFetch() stops
    // issuing at the per-flow credit limit; exceeding it means a
    // completion was lost or double-counted.
    dagger_assert(fs.outstandingFetches <= kMaxFlowFetches,
                  "flow ", flow, " exceeded its fetch credit window: ",
                  fs.outstandingFetches, " > ", kMaxFlowFetches);
    _fetchesInWindow += frames; // request rate, not transaction rate
    _monitor.framesFetched.inc(frames);
    _monitor.fetchBatch.record(frames);
    pollModeTick();
    auto done = [this, flow, claimed = std::move(claimed)]() mutable {
        onFetched(flow, std::move(claimed));
    };
    static_assert(sim::EventClosure::fitsInline<decltype(done)>());
    _port.fetch(static_cast<unsigned>(frames), std::move(done));
}

void
DaggerNic::onFetched(unsigned flow, std::vector<proto::Frame> &&frames)
{
    FlowState &fs = _flows[flow];
    dagger_assert(fs.outstandingFetches > 0, "fetch completion underflow");
    --fs.outstandingFetches;

    // Release ring entries once the bookkeeping write lands.
    const std::size_t n = frames.size();
    auto release = [tx = fs.tx, n] { tx->release(n); };
    static_assert(sim::EventClosure::fitsInline<decltype(release)>());
    _port.bookkeep(std::move(release));

    // Serializer pipeline, then per-message egress.
    auto serialize = [this, flow, frames = std::move(frames)]() mutable {
        FlowState &f = _flows[flow];
        for (auto &frame : frames) {
            f.partial.push_back(std::move(frame));
            const auto need = f.partial.front().header.frameCount();
            if (f.partial.size() < need)
                continue;
            if (proto::RpcMessage::framesConsistent(f.partial)) {
                // The fetched frames came straight from the TX ring in
                // host memory and are already in wire form; forward
                // them as the packet instead of re-framing (the NIC
                // batches on headers, it does not audit host bytes).
                egressFrames(std::move(f.partial));
                f.partial = takeSpare(_spareBodies);
            } else {
                _monitor.malformed.inc();
                f.partial.clear();
            }
        }
        recycle(_spareBatches, std::move(frames));
        maybeFetch(flow);
    };
    static_assert(sim::EventClosure::fitsInline<decltype(serialize)>());
    _eq.schedule(pipelineDelay(), std::move(serialize),
                 sim::Priority::Hardware);
}

void
DaggerNic::egressFrames(std::vector<proto::Frame> &&frames)
{
    const proto::ConnId conn = frames.front().header.connId;
    sim::Tick penalty = 0;
    auto tuple = _cm.lookup(conn, CmReader::OutgoingFlow, penalty);
    if (!tuple) {
        _monitor.dropsNoConnection.inc();
        recycle(_spareBodies, std::move(frames));
        return;
    }
    // Transport state for the connection lives in the HCC (§4.1);
    // a cold line costs one coherent fill from host memory.
    penalty += _hcc.access(conn);
    auto send = [this, dst = tuple->destAddr,
                 frames = std::move(frames)]() mutable {
        net::Packet pkt;
        pkt.dst = dst;
        pkt.frames = std::move(frames);
        _monitor.rpcsOut.inc();
        _monitor.bytesOut.inc(pkt.wireBytes());
        if (!_protocol || _protocol->onEgress(pkt))
            _net.send(std::move(pkt));
    };
    static_assert(sim::EventClosure::fitsInline<decltype(send)>());
    // Penalties stall the (in-order) egress pipeline: a later message
    // must not overtake an earlier one that is waiting on a state
    // fill, or per-flow FIFO order would break on the wire.
    const sim::Tick ready = std::max(_eq.now() + penalty, _egressFreeAt);
    _egressFreeAt = ready;
    if (ready == _eq.now())
        send();
    else
        _eq.scheduleAt(ready, std::move(send), sim::Priority::Hardware);
}

// ------------------------- TX path (net -> host) -------------------------

void
DaggerNic::onNetReceive(net::Packet pkt)
{
    if (_protocol && !_protocol->onIngress(pkt))
        return;
    auto steer = [this, pkt = std::move(pkt)]() mutable {
        steerMessage(std::move(pkt));
    };
    static_assert(sim::EventClosure::fitsInline<decltype(steer)>());
    _eq.schedule(pipelineDelay(), std::move(steer), sim::Priority::Hardware);
}

void
DaggerNic::steerMessage(net::Packet pkt)
{
    // Steering routes on the header alone: check consistency, not
    // checksums — integrity is gated at the transport's pre-ACK check
    // and at receive-side reassembly, and reassembling here would add
    // a handle pass per packet just to read connId and type.
    if (!proto::RpcMessage::framesConsistent(pkt.frames)) {
        _monitor.malformed.inc();
        return;
    }
    const proto::FrameHeader &h0 = pkt.frames.front().header;
    sim::Tick penalty = 0;
    auto tuple = _cm.lookup(h0.connId, CmReader::IncomingFlow, penalty);
    if (!tuple) {
        _monitor.dropsNoConnection.inc();
        return;
    }
    penalty += _hcc.access(h0.connId);
    unsigned flow = 0;
    if (h0.type == proto::MsgType::Response) {
        flow = tuple->srcFlow % _cfg.numFlows;
    } else {
        switch (tuple->loadBalancer) {
          case LbScheme::RoundRobin:
            flow = _rrLb.pick(activeFlows());
            break;
          case LbScheme::Static:
            flow = _staticLb.pick(*tuple, activeFlows());
            break;
          case LbScheme::ObjectLevel: {
            // The object-level balancer hashes key bytes out of the
            // payload, so this steering mode (alone) reassembles.
            proto::RpcMessage msg;
            if (!proto::RpcMessage::fromFrames(pkt.frames, msg)) {
                _monitor.malformed.inc();
                return;
            }
            flow = _objLb.pick(msg, activeFlows());
            break;
          }
        }
    }
    dagger_assert(flow < _flows.size(),
                  "load balancer steered to nonexistent flow ", flow);
    FlowState &fs = _flows[flow];
    if (!fs.rx) {
        _monitor.dropsNoConnection.inc();
        return;
    }
    if (fs.ingress.size() + pkt.frames.size() > kIngressStallFrames) {
        _monitor.dropsNoSlot.inc();
        return;
    }
    _monitor.rpcsIn.inc();
    _monitor.bytesIn.inc(pkt.wireBytes());
    if (fs.ingress.empty() && _reqBuffer.freeSlots() >= pkt.frames.size()) {
        // Common case: the request table has room, so frames go
        // straight to their slots without staging in the stall queue.
        for (auto &frame : pkt.frames)
            _reqBuffer.push(flow, std::move(frame));
    } else {
        for (auto &frame : pkt.frames)
            fs.ingress.push_back(std::move(frame));
        drainIngress(flow);
    }
    // The frames now sit in the request table; keep their vector.
    recycle(_spareBodies, std::move(pkt.frames));
    if (penalty == 0) {
        maybePost(flow);
    } else {
        auto post = [this, flow] { maybePost(flow); };
        // This fires once per steered RPC under CM-penalty pressure;
        // it must never fall off EventClosure's allocation-free path.
        static_assert(sim::EventClosure::fitsInline<decltype(post)>());
        _eq.schedule(penalty, std::move(post), sim::Priority::Hardware);
    }
}

void
DaggerNic::maybePost(unsigned flow)
{
    FlowState &fs = _flows[flow];
    if (!fs.rx)
        return;
    const unsigned B = effectiveBatch();
    for (;;) {
        const std::size_t depth = _reqBuffer.flowDepth(flow);
        if (depth == 0)
            return;
        if (_soft.autoBatch) {
            issuePost(flow, std::min(depth, kHwMaxBatch));
            continue;
        }
        if (depth >= B) {
            issuePost(flow, B);
            continue;
        }
        armPostTimeout(flow);
        return;
    }
}

void
DaggerNic::armPostTimeout(unsigned flow)
{
    FlowState &fs = _flows[flow];
    if (fs.postTimeoutArmed)
        return;
    fs.postTimeoutArmed = true;
    _eq.schedule(_soft.batchTimeout,
                 [this, flow] {
                     FlowState &f = _flows[flow];
                     f.postTimeoutArmed = false;
                     const std::size_t depth = _reqBuffer.flowDepth(flow);
                     if (depth > 0 && depth < effectiveBatch()) {
                         _monitor.timeoutFlushes.inc();
                         issuePost(flow, depth);
                     }
                     maybePost(flow);
                 },
                 sim::Priority::Hardware);
}

void
DaggerNic::drainIngress(unsigned flow)
{
    FlowState &fs = _flows[flow];
    while (!fs.ingress.empty() && _reqBuffer.freeSlots() > 0)
        _reqBuffer.push(flow, fs.ingress.take());
}

void
DaggerNic::issuePost(unsigned flow, std::size_t frames)
{
    FlowState &fs = _flows[flow];
    std::vector<proto::Frame> batch = takeSpare(_spareBatches);
    const std::size_t got = _reqBuffer.pop(flow, frames, batch);
    dagger_assert(got == frames, "request buffer under-delivered");
    // Popping returned slots to the free FIFO; stalled ingress frames
    // claim them immediately so large messages stream through the
    // table in batch-sized waves.
    drainIngress(flow);
    _monitor.framesPosted.inc(frames);
    _monitor.postBatch.record(frames);
    auto deliver = [this, rx = fs.rx, batch = std::move(batch)]() mutable {
        rx->deliver(std::move(batch));
        recycle(_spareBatches, std::move(batch));
    };
    static_assert(sim::EventClosure::fitsInline<decltype(deliver)>());
    _port.post(static_cast<unsigned>(frames), std::move(deliver));
}

// ------------------------- poll-mode management -------------------------

void
DaggerNic::pollModeTick()
{
    if (_cfg.iface != ic::IfaceKind::Upi)
        return;
    static_assert(kPollWindow > 0);
    // Lazily manage: this is called on every fetch; once per window we
    // evaluate the observed fetch rate and pick the polling mode.
    const sim::Tick now = _eq.now();
    if (now < _lastPollEval + kPollWindow)
        return;
    const double window_us = sim::ticksToUs(now - _lastPollEval);
    const double mrps = window_us > 0
        ? static_cast<double>(_fetchesInWindow) / window_us
        : 0.0;
    _port.setPollMode(mrps >= _soft.llcPollThresholdMrps
                          ? ic::PollMode::Llc
                          : ic::PollMode::LocalCache);
    _fetchesInWindow = 0;
    _lastPollEval = now;
}

} // namespace dagger::nic
