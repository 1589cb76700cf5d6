#include "rpc/client.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dagger::rpc {

RpcClient::RpcClient(DaggerNode &node, unsigned flow, HwThread &thread)
    : _node(node), _flow(flow), _thread(thread)
{
    dagger_assert(flow < node.numFlows(), "client flow out of range");
    installRxNotify();
}

void
RpcClient::installRxNotify()
{
    _node.flow(_flow).rx.setNotify([this] {
        if (_rxScheduled)
            return;
        _rxScheduled = true;
        processResponses();
    });
}

void
RpcClient::setBestEffort(bool on)
{
    _bestEffort = on;
    if (on) {
        _node.flow(_flow).rx.setNotify({});
        // A drain chain in flight stops at its next processResponses()
        // step; the flag must not stay latched, or switching
        // best-effort back off would never drain the ring again.
        _rxScheduled = false;
        return;
    }
    installRxNotify();
    // Drain whatever piled up while best-effort was on.
    if (!_rxScheduled && _node.flow(_flow).rx.occupied() > 0) {
        _rxScheduled = true;
        processResponses();
    }
}

void
RpcClient::callAsyncOn(proto::ConnId conn, proto::FnId fn, const void *data,
                       std::size_t len, ResponseCb cb)
{
    issueCall(conn, fn, data, len, std::move(cb), {});
}

void
RpcClient::callAsyncStatus(proto::FnId fn, const void *data, std::size_t len,
                           StatusCb cb)
{
    issueCall(_conn, fn, data, len, {}, std::move(cb));
}

RpcClient::Call *
RpcClient::findCall(proto::RpcId id)
{
    if (_calls.empty())
        return nullptr;
    const std::size_t mask = _calls.size() - 1;
    for (std::size_t i = id & mask;; i = (i + 1) & mask) {
        Call &c = _calls[i];
        if (!c.used)
            return nullptr;
        if (c.id == id)
            return &c;
    }
}

std::size_t
RpcClient::placeCall(proto::RpcId id)
{
    const std::size_t mask = _calls.size() - 1;
    std::size_t i = id & mask;
    while (_calls[i].used)
        i = (i + 1) & mask;
    if (i != (id & mask))
        ++_displaced;
    return i;
}

RpcClient::Call &
RpcClient::insertCall(proto::RpcId id)
{
    if (2 * (_live + 1) > _calls.size())
        growCalls();
    Call &c = _calls[placeCall(id)];
    c.used = true;
    c.id = id;
    c.sentAt = 0;
    c.attempt = 0;
    c.resendQueued = false;
    ++_live;
    return c;
}

void
RpcClient::growCalls()
{
    std::vector<Call> old = std::move(_calls);
    _calls = std::vector<Call>(std::max<std::size_t>(16, 2 * old.size()));
    _displaced = 0;
    for (Call &c : old)
        if (c.used)
            _calls[placeCall(c.id)] = std::move(c);
}

void
RpcClient::eraseCall(Call &call)
{
    // Backward-shift deletion: pull every later member of the probe
    // run that may sit in the hole back into it, so lookups never need
    // tombstones.  Only entries away from their home slot can move, so
    // the usual case (every call at home) skips the scan.
    const std::size_t mask = _calls.size() - 1;
    std::size_t hole = static_cast<std::size_t>(&call - _calls.data());
    if (hole != (call.id & mask))
        --_displaced;
    for (std::size_t j = (hole + 1) & mask; _displaced > 0 && _calls[j].used;
         j = (j + 1) & mask) {
        const std::size_t home = _calls[j].id & mask;
        // Entry j stays if its home lies cyclically in (hole, j].
        const bool stays = hole <= j ? (hole < home && home <= j)
                                     : (hole < home || home <= j);
        if (stays)
            continue;
        _calls[hole] = std::move(_calls[j]);
        if (hole == home)
            --_displaced;
        hole = j;
    }
    Call &freed = _calls[hole];
    freed.used = false;
    freed.cb = nullptr;
    freed.scb = nullptr;
    freed.payload = proto::PayloadBuf();
    freed.msg = proto::RpcMessage();
    --_live;
}

sim::Tick
RpcClient::sendCost() const
{
    DaggerSystem &sys = _node.system();
    sim::Tick cost = sys.sendCpuCost(_node) +
                     _node.nicDev().cciPort().hostPollPenalty();
    if (_shared)
        cost += sys.swCost().srqLockCost;
    return cost;
}

void
RpcClient::issueCall(proto::ConnId conn, proto::FnId fn, const void *data,
                     std::size_t len, ResponseCb cb, StatusCb scb)
{
    dagger_assert(conn != 0, "callAsync without a connection");
    if (len > proto::kMaxPayloadBytes) {
        // Recoverable API error: the wire format cannot carry this
        // payload (payloadLen is 16-bit), so the call is refused
        // before any simulated work instead of tripping an assert.
        ++_sendFailures;
        if (scb) {
            proto::RpcMessage empty;
            scb(CallStatus::Rejected, empty);
        }
        return;
    }
    const sim::Tick cost = sendCost();
    const proto::RpcId rpc_id = _nextRpcId++;
    if (_bestEffort) {
        // Fire and forget: no call entry, no completion tracking.
        _untracked.push_back(proto::RpcMessage(
            conn, rpc_id, fn, proto::MsgType::Request, data, len));
        auto send = [this] { sendUntracked(); };
        static_assert(sim::EventClosure::fitsInline<decltype(send)>());
        _thread.execute(cost, std::move(send));
        return;
    }
    Call &call = insertCall(rpc_id);
    call.cb = std::move(cb);
    call.scb = std::move(scb);
    call.msg = proto::RpcMessage(conn, rpc_id, fn, proto::MsgType::Request,
                                 data, len);
    if (_retry.enabled()) {
        // Keep the handle a resend re-wraps; without a policy this
        // (and the timer) is skipped and tracked calls cost what they
        // always did.
        call.payload = call.msg.payload();
    }
    const sim::Tick issued_at = _node.system().eq().now();
    auto send = [this, rpc_id, issued_at] { sendFirst(rpc_id, issued_at); };
    static_assert(sim::EventClosure::fitsInline<decltype(send)>());
    _thread.execute(cost, std::move(send));
}

void
RpcClient::sendFirst(proto::RpcId rpc_id, sim::Tick issued_at)
{
    Call *call = findCall(rpc_id);
    if (!call)
        return; // cancelled
    if (!_node.flow(_flow).tx.push(call->msg)) {
        ++_sendFailures;
        if (_retry.enabled()) {
            // Full ring on the first copy: keep the entry and let a
            // short re-attempt timer carry it instead of dropping the
            // call on the floor.
            ++_resendDrops;
            ++_node.system().reliability().resendDrops;
            armResendRetry(rpc_id);
            return;
        }
        eraseCall(*call);
        return;
    }
    const sim::Tick now = _node.system().eq().now();
    call->sentAt = now;
    ++_sent;
    if (_retry.enabled()) {
        // The timeout budget starts when the request reaches the TX
        // ring: arming at issue time raced the send under CPU backlog,
        // so the timer could fire — and retransmit — before the first
        // copy was ever sent.
        if (now - issued_at >= _retry.timeout) {
            ++_spuriousArms;
            ++_node.system().reliability().spuriousArms;
        }
        armCallTimer(rpc_id, _retry.timeout);
    }
}

void
RpcClient::sendUntracked()
{
    const proto::RpcMessage msg = _untracked.take();
    if (_node.flow(_flow).tx.push(msg))
        ++_sent;
    else
        ++_sendFailures;
}

sim::Tick
RpcClient::retryTimeout(unsigned attempt) const
{
    double t = static_cast<double>(_retry.timeout);
    for (unsigned i = 0; i < attempt; ++i)
        t *= _retry.backoff;
    if (_retry.maxTimeout > 0)
        t = std::min(t, static_cast<double>(_retry.maxTimeout));
    return static_cast<sim::Tick>(t);
}

void
RpcClient::rememberRetried(proto::RpcId rpc_id)
{
    _retriedDone.insert(rpc_id);
    if (_retriedDone.size() > kRetriedDoneCap)
        _retriedDone.erase(_retriedDone.begin()); // oldest id first
}

void
RpcClient::armCallTimer(proto::RpcId rpc_id, sim::Tick timeout)
{
    auto expire = [this, rpc_id] { onCallTimeout(rpc_id); };
    // One timer per in-flight retried call; hot under loss, so it must
    // stay on the event pool's allocation-free path.
    static_assert(sim::EventClosure::fitsInline<decltype(expire)>());
    _node.system().eq().schedule(timeout, std::move(expire));
}

void
RpcClient::onCallTimeout(proto::RpcId rpc_id)
{
    Call *call = findCall(rpc_id);
    if (!call)
        return; // completed before the timer fired
    if (call->attempt >= _retry.maxRetries) {
        // Budget exhausted: complete the call with a status instead of
        // leaving a silent orphan behind.
        ++_timeouts;
        ++_node.system().reliability().timeouts;
        rememberRetried(rpc_id);
        StatusCb scb = std::move(call->scb);
        eraseCall(*call);
        if (scb) {
            proto::RpcMessage empty;
            scb(CallStatus::TimedOut, empty);
        }
        return;
    }
    const unsigned attempt = ++call->attempt;
    ++_retriesSent;
    ++_node.system().reliability().retries;
    resend(rpc_id);
    armCallTimer(rpc_id, retryTimeout(attempt));
}

void
RpcClient::resend(proto::RpcId rpc_id)
{
    Call *call = findCall(rpc_id);
    if (!call)
        return; // resolved meanwhile
    // Re-wrap the kept payload handle; the send event pushes it.
    call->msg = proto::RpcMessage(call->msg.connId(), rpc_id,
                                  call->msg.fnId(), proto::MsgType::Request,
                                  call->payload);
    auto send = [this, rpc_id] { pushResend(rpc_id); };
    static_assert(sim::EventClosure::fitsInline<decltype(send)>());
    _thread.execute(sendCost(), std::move(send));
}

void
RpcClient::pushResend(proto::RpcId rpc_id)
{
    Call *call = findCall(rpc_id);
    if (!call)
        return; // resolved while the resend was queued
    if (!_node.flow(_flow).tx.push(call->msg)) {
        // A full backoff used to elapse here with nothing in flight;
        // re-attempt on a short timer instead, and make the storm
        // visible.
        ++_sendFailures;
        ++_resendDrops;
        ++_node.system().reliability().resendDrops;
        armResendRetry(rpc_id);
        return;
    }
    if (call->sentAt == 0) {
        // First copy to reach the ring (the issue-time send was
        // dropped): start the round-trip clock and the timeout.
        call->sentAt = _node.system().eq().now();
        ++_sent;
        if (_retry.enabled())
            armCallTimer(rpc_id, _retry.timeout);
    }
}

void
RpcClient::armResendRetry(proto::RpcId rpc_id)
{
    Call *call = findCall(rpc_id);
    if (!call || call->resendQueued)
        return;
    call->resendQueued = true;
    // Deterministic short re-attempt, a fraction of the first timeout:
    // long enough for the NIC to drain ring entries, far shorter than
    // a backoff step.
    const sim::Tick delay = std::max<sim::Tick>(1, _retry.timeout / 8);
    auto fire = [this, rpc_id] {
        Call *c = findCall(rpc_id);
        if (!c)
            return;
        c->resendQueued = false;
        resend(rpc_id);
    };
    // Hot under ring backpressure; keep it on the event pool's
    // allocation-free path.
    static_assert(sim::EventClosure::fitsInline<decltype(fire)>());
    _node.system().eq().schedule(delay, std::move(fire));
}

void
RpcClient::callOneWay(proto::FnId fn, const void *data, std::size_t len)
{
    dagger_assert(_conn != 0, "callOneWay without a connection");
    if (len > proto::kMaxPayloadBytes) {
        ++_sendFailures; // recoverable: refused before any work
        return;
    }
    const sim::Tick cost = sendCost();
    _untracked.push_back(proto::RpcMessage(
        _conn, _nextRpcId++, fn, proto::MsgType::Request, data, len));
    auto send = [this] { sendUntracked(); };
    static_assert(sim::EventClosure::fitsInline<decltype(send)>());
    _thread.execute(cost, std::move(send));
}

void
RpcClient::processResponses()
{
    if (_bestEffort) {
        _rxScheduled = false;
        return; // responses pile up (and overflow) in the RX ring
    }
    proto::RpcMessage msg;
    if (!_node.flow(_flow).rx.popMessage(msg)) {
        _rxScheduled = false;
        return;
    }
    _completing.push_back(std::move(msg));
    auto complete = [this] { completeResponse(); };
    static_assert(sim::EventClosure::fitsInline<decltype(complete)>());
    _thread.execute(_node.system().swCost().completionCost,
                    std::move(complete));
}

void
RpcClient::completeResponse()
{
    proto::RpcMessage msg = _completing.take();
    Call *call = findCall(msg.rpcId());
    if (!call) {
        if (_retriedDone.count(msg.rpcId())) {
            // Duplicate or post-timeout response of a retried call:
            // accounted, not an unknown orphan — and never delivered
            // twice.
            ++_lateResponses;
            ++_node.system().reliability().lateResponses;
        } else {
            ++_orphans;
        }
    } else {
        ++_responses;
        ++_node.system().reliability().completions;
        const sim::Tick now = _node.system().eq().now();
        if (call->sentAt)
            _latency.record(now - call->sentAt);
        if (call->attempt > 0)
            rememberRetried(msg.rpcId());
        ResponseCb cb = std::move(call->cb);
        StatusCb scb = std::move(call->scb);
        eraseCall(*call);
        if (scb)
            scb(CallStatus::Ok, msg);
        else if (cb)
            cb(msg);
    }
    processResponses();
}

RpcClient &
RpcClientPool::addClient(unsigned flow, HwThread &thread)
{
    _clients.push_back(std::make_unique<RpcClient>(_node, flow, thread));
    return *_clients.back();
}

sim::Histogram
RpcClientPool::aggregateLatency() const
{
    sim::Histogram h;
    for (const auto &c : _clients)
        h.merge(c->_latency);
    return h;
}

} // namespace dagger::rpc
