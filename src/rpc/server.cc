#include "rpc/server.hh"

#include "sim/logging.hh"

namespace dagger::rpc {

WorkerPool::WorkerPool(DaggerSystem &sys, std::vector<HwThread *> workers)
    : _sys(sys), _workers(std::move(workers))
{
    dagger_assert(!_workers.empty(), "worker pool needs threads");
}

void
WorkerPool::submit(sim::Tick cost, sim::EventFn fn)
{
    ++_submitted;
    ++_inflight;
    const sim::Tick delay = _sys.swCost().workerHandoffDelay;
    _handoff.push_back(Handoff{cost, std::move(fn)});
    auto wake = [this] { dispatchOne(); };
    static_assert(sim::EventClosure::fitsInline<decltype(wake)>());
    _sys.eq().schedule(delay, std::move(wake));
}

void
WorkerPool::dispatchOne()
{
    dagger_assert(!_handoff.empty(), "handoff event without queued work");
    Handoff h = _handoff.take();
    // Pick the least-loaded worker at wakeup time.
    HwThread *best = _workers.front();
    for (HwThread *w : _workers)
        if (w->busyUntil() < best->busyUntil())
            best = w;
    const std::uint32_t slot = _running.put(std::move(h.fn));
    auto run = [this, slot] { runOne(slot); };
    static_assert(sim::EventClosure::fitsInline<decltype(run)>());
    best->execute(h.cost, std::move(run));
}

void
WorkerPool::runOne(std::uint32_t slot)
{
    --_inflight;
    sim::EventFn fn = _running.take(slot);
    fn();
}

Handler
echoHandler(sim::Tick cost)
{
    return [cost](const proto::RpcMessage &req) {
        HandlerOutcome out;
        out.response = req.payload();
        out.cost = cost;
        return out;
    };
}

RpcServerThread::RpcServerThread(DaggerNode &node, unsigned flow,
                                 HwThread &dispatch)
    : _node(node), _flow(flow), _dispatch(dispatch)
{
    dagger_assert(flow < node.numFlows(), "server flow out of range");
    node.flow(flow).rx.setNotify([this] {
        if (_rxScheduled)
            return;
        _rxScheduled = true;
        processNext();
    });
    node.flow(flow).tx.setSpaceNotify([this] { flushResponses(); });
}

void
RpcServerThread::registerHandler(proto::FnId fn, Handler handler)
{
    dagger_assert(handler, "null handler for fn ", fn);
    _handlers[fn] = std::move(handler);
}

void
RpcServerThread::resume()
{
    if (!_paused)
        return;
    _paused = false;
    if (!_rxScheduled) {
        _rxScheduled = true;
        processNext();
    }
}

void
RpcServerThread::processNext()
{
    if (_paused) {
        _rxScheduled = false;
        return;
    }
    proto::RpcMessage msg;
    RxRing &rx = _node.flow(_flow).rx;
    if (!rx.popMessage(msg)) {
        _rxScheduled = false;
        return;
    }
    const SwCost &costs = _node.system().swCost();

    // Admission control: with more than maxQueue requests still backed
    // up behind this one — RX frames plus work parked in the worker
    // pool — serving it only adds queueing delay to everything after
    // it.  Drop it at poll cost and let the caller's retry/degraded
    // path take over.
    const std::size_t backlog =
        rx.occupied() + (_pool ? _pool->inflight() : 0);
    auto next = [this] { processNext(); };
    static_assert(sim::EventClosure::fitsInline<decltype(next)>());
    if (_shed.enabled() && backlog > _shed.maxQueue) {
        ++_shedCalls;
        _dispatch.execute(costs.pollCost, std::move(next));
        return;
    }

    auto it = _handlers.find(msg.fnId());
    if (it == _handlers.end()) {
        ++_unhandled;
        _dispatch.execute(costs.pollCost, std::move(next));
        return;
    }

    // The handler runs functionally now; its simulated cost is charged
    // on the executing thread below.
    HandlerOutcome outcome = it->second(msg);
    ++_processed;

    // Optimized model: dispatch pays poll + deser + handoff; the
    // worker pays the handler and response-send costs.  Simple model:
    // everything in the dispatch thread.
    const sim::Tick cost = _pool
        ? costs.pollCost + costs.deserializeCost + costs.workerHandoffCpu
        : costs.pollCost + costs.deserializeCost + outcome.cost +
            (outcome.respond ? _node.system().sendCpuCost(_node) : 0);
    _dispatched.push_back(
        Handled{std::move(msg), std::move(outcome), _pool != nullptr});
    auto done = [this] { dispatchDone(); };
    static_assert(sim::EventClosure::fitsInline<decltype(done)>());
    _dispatch.execute(cost, std::move(done));
}

void
RpcServerThread::dispatchDone()
{
    Handled h = _dispatched.take();
    if (h.viaPool) {
        const sim::Tick worker_cost = h.outcome.cost +
            (h.outcome.respond ? _node.system().sendCpuCost(_node) : 0);
        const std::uint32_t slot = _atWorkers.put(std::move(h));
        auto done = [this, slot] { workerDone(slot); };
        static_assert(sim::EventClosure::fitsInline<decltype(done)>());
        _pool->submit(worker_cost, std::move(done));
    } else {
        finishRequest(h.req, std::move(h.outcome));
    }
    processNext();
}

void
RpcServerThread::workerDone(std::uint32_t slot)
{
    Handled h = _atWorkers.take(slot);
    finishRequest(h.req, std::move(h.outcome));
}

void
RpcServerThread::respondLater(proto::ConnId conn, proto::RpcId rpc,
                              proto::FnId fn, const void *data,
                              std::size_t len)
{
    _later.push_back(proto::RpcMessage(conn, rpc, fn,
                                       proto::MsgType::Response, data, len));
    auto send = [this] { sendLater(); };
    static_assert(sim::EventClosure::fitsInline<decltype(send)>());
    _dispatch.execute(_node.system().sendCpuCost(_node), std::move(send));
}

void
RpcServerThread::sendLater()
{
    proto::RpcMessage resp = _later.take();
    TxRing &tx = _node.flow(_flow).tx;
    if (!_txBacklog.empty() || !tx.push(resp)) {
        _txBacklog.push_back(std::move(resp));
        return;
    }
}

void
RpcServerThread::finishRequest(const proto::RpcMessage &req,
                               HandlerOutcome outcome)
{
    if (!outcome.respond)
        return;
    proto::RpcMessage resp(req.connId(), req.rpcId(), req.fnId(),
                           proto::MsgType::Response,
                           std::move(outcome.response));
    TxRing &tx = _node.flow(_flow).tx;
    if (!_txBacklog.empty() || !tx.push(resp)) {
        _txBacklog.push_back(std::move(resp));
        return;
    }
}

void
RpcServerThread::flushResponses()
{
    TxRing &tx = _node.flow(_flow).tx;
    while (!_txBacklog.empty() && tx.push(_txBacklog.front()))
        _txBacklog.pop_front();
}

RpcServerThread &
RpcThreadedServer::addThread(unsigned flow, HwThread &thread)
{
    _threads.push_back(
        std::make_unique<RpcServerThread>(_node, flow, thread));
    return *_threads.back();
}

void
RpcThreadedServer::registerHandler(proto::FnId fn, const Handler &handler)
{
    dagger_assert(!_threads.empty(),
                  "register handlers after adding server threads");
    for (auto &t : _threads)
        t->registerHandler(fn, handler);
}

void
RpcThreadedServer::setWorkerPool(WorkerPool *pool)
{
    for (auto &t : _threads)
        t->setWorkerPool(pool);
}

void
RpcThreadedServer::setShedPolicy(ShedPolicy policy)
{
    for (auto &t : _threads)
        t->setShedPolicy(policy);
}

std::uint64_t
RpcThreadedServer::totalProcessed() const
{
    std::uint64_t n = 0;
    for (const auto &t : _threads)
        n += t->processed();
    return n;
}

std::uint64_t
RpcThreadedServer::totalShed() const
{
    std::uint64_t n = 0;
    for (const auto &t : _threads)
        n += t->shedCalls();
    return n;
}

} // namespace dagger::rpc
