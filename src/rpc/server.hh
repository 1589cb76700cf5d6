/**
 * @file
 * RpcThreadedServer / RpcServerThread / WorkerPool: the server half of
 * the Dagger API (§4.2, §5.7).
 *
 * Two threading models, selectable per server thread:
 *
 *  - Dispatch ("Simple"): handlers run inside the dispatch thread.
 *    Lowest latency ("similarly to FaRM, Dagger runs RPC handlers in
 *    dispatch threads to avoid inter-thread communication overheads")
 *    but a long-running handler blocks the flow's RX ring.
 *
 *  - Worker ("Optimized"): the dispatch thread hands requests to a
 *    WorkerPool running on other hardware threads, at the price of a
 *    handoff delay — §5.7 measures this as a 17x throughput gain and
 *    a ~10 us latency increase for the Flight service.
 */

#ifndef DAGGER_RPC_SERVER_HH
#define DAGGER_RPC_SERVER_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "proto/wire.hh"
#include "rpc/cpu.hh"
#include "rpc/system.hh"
#include "sim/reuse.hh"
#include "sim/stats.hh"

namespace dagger::rpc {

/** What a handler produces. */
struct HandlerOutcome
{
    /**
     * Response payload (ignored when respond == false).  A handle:
     * echoing the request payload (`out.response = req.payload()`) or
     * forwarding another message's bytes costs a refcount bump, not a
     * copy; fresh bytes enter via proto::PayloadBuf::ofPod or the
     * copying constructor.
     */
    proto::PayloadBuf response;

    /** Simulated CPU time the handler consumes. */
    sim::Tick cost = 0;

    /** False for one-way RPCs (no response is sent). */
    bool respond = true;
};

/** RPC handler: pure function of the request. */
using Handler = std::function<HandlerOutcome(const proto::RpcMessage &)>;

/** Handler that echoes the request payload after @p cost of CPU time. */
Handler echoHandler(sim::Tick cost);

/**
 * Admission control for a server thread.  Under open-loop overload an
 * unbounded request backlog turns every queued request into guaranteed
 * tail-latency damage *and* keeps the CPU busy serving requests whose
 * clients have already timed out.  A shed policy bounds the backlog:
 * when a request is popped while more than @ref maxQueue requests are
 * still queued behind it — RX frames plus, in the Optimized model,
 * work sitting in the tier's WorkerPool — it is dropped at poll cost
 * instead of being handled.  Clients see the shed as a loss — their
 * RetryPolicy (or the caller's degraded path) decides what happens
 * next.
 */
struct ShedPolicy
{
    std::size_t maxQueue = 0; ///< request-backlog bound (0 = off)

    bool enabled() const { return maxQueue > 0; }
};

/**
 * Worker-thread pool for the Optimized threading model.  Work is
 * placed on the least-loaded worker after the inter-thread handoff
 * delay.
 */
class WorkerPool
{
  public:
    WorkerPool(DaggerSystem &sys, std::vector<HwThread *> workers);

    /** Submit one unit of work costing @p cost CPU time. */
    void submit(sim::Tick cost, sim::EventFn fn);

    std::uint64_t submitted() const { return _submitted; }
    /** Work submitted but not yet run (queued + waiting on a worker). */
    std::size_t inflight() const { return _inflight; }

  private:
    struct Handoff
    {
        sim::Tick cost = 0;
        sim::EventFn fn;
    };

    void dispatchOne();
    void runOne(std::uint32_t slot);

    DaggerSystem &_sys;
    std::vector<HwThread *> _workers;
    /** Work waiting out the handoff delay.  Parked here so each
     *  scheduled handoff event captures only `this`; the fixed delay
     *  makes event order == submit order == FIFO order. */
    sim::RingFifo<Handoff> _handoff;
    /** Work handed to a worker thread.  Workers finish out of order,
     *  so each run event captures the slot of its own work. */
    sim::SlotPool<sim::EventFn> _running;
    std::uint64_t _submitted = 0;
    std::size_t _inflight = 0;
};

/**
 * One server event loop: wraps a flow's rings and a dispatch thread.
 */
class RpcServerThread
{
  public:
    RpcServerThread(DaggerNode &node, unsigned flow, HwThread &dispatch);

    RpcServerThread(const RpcServerThread &) = delete;
    RpcServerThread &operator=(const RpcServerThread &) = delete;

    /** Register the handler for @p fn. */
    void registerHandler(proto::FnId fn, Handler handler);

    /**
     * Switch to the Optimized model: handlers run on @p pool.
     * Pass nullptr to return to dispatch-thread execution.
     */
    void setWorkerPool(WorkerPool *pool) { _pool = pool; }

    /** Install (or disable, with a default-constructed policy) load
     *  shedding on this thread's RX backlog. */
    void setShedPolicy(ShedPolicy policy) { _shed = policy; }

    /**
     * Send a response outside the handler's return path.  Used by
     * tiers that must issue nested RPCs before answering (the
     * Check-in service pattern of §5.7): the handler returns
     * `respond = false` and the application calls respondLater() once
     * its downstream calls complete.  Charges the send CPU cost on
     * the dispatch thread.
     */
    void respondLater(proto::ConnId conn, proto::RpcId rpc, proto::FnId fn,
                      const void *data, std::size_t len);

    /**
     * Block the dispatch loop: no further requests are popped from the
     * RX ring until resume().  This is what a handler that *blocks* on
     * nested RPCs does to its server thread (the Simple threading
     * model of §5.7) — "handling such RPCs in dispatch threads limits
     * the overall throughput since they block the NIC's RX rings".
     */
    void pause() { _paused = true; }

    /** Resume the dispatch loop after pause(). */
    void resume();

    std::uint64_t processed() const { return _processed; }
    std::uint64_t unhandled() const { return _unhandled; }
    /** Requests dropped by the shed policy. */
    std::uint64_t shedCalls() const { return _shedCalls; }

    HwThread &dispatchThread() { return _dispatch; }

  private:
    /** A handled request waiting for the CPU time it was charged. */
    struct Handled
    {
        proto::RpcMessage req;
        HandlerOutcome outcome;
        bool viaPool = false; ///< threading model when it was handled
    };

    void processNext();
    void dispatchDone();
    void workerDone(std::uint32_t slot);
    void sendLater();
    void finishRequest(const proto::RpcMessage &req, HandlerOutcome outcome);
    void flushResponses();

    DaggerNode &_node;
    unsigned _flow;
    HwThread &_dispatch;
    WorkerPool *_pool = nullptr;
    ShedPolicy _shed;
    std::unordered_map<proto::FnId, Handler> _handlers;
    bool _rxScheduled = false;
    bool _paused = false;
    sim::RingFifo<proto::RpcMessage> _txBacklog;
    /** Handled requests waiting for their dispatch-thread event; the
     *  thread runs work in FIFO order, so each event takes the front. */
    sim::RingFifo<Handled> _dispatched;
    /** Handled requests out on the worker pool, finished in any order. */
    sim::SlotPool<Handled> _atWorkers;
    /** respondLater() responses waiting for their send event (FIFO). */
    sim::RingFifo<proto::RpcMessage> _later;
    std::uint64_t _processed = 0;
    std::uint64_t _unhandled = 0;
    std::uint64_t _shedCalls = 0;
};

/**
 * RpcThreadedServer: a set of server threads (one per flow) sharing a
 * handler table, as produced by the IDL-generated service skeletons.
 */
class RpcThreadedServer
{
  public:
    explicit RpcThreadedServer(DaggerNode &node) : _node(node) {}

    /** Add a server thread on @p flow dispatching on @p thread. */
    RpcServerThread &addThread(unsigned flow, HwThread &thread);

    /** Register @p handler for @p fn on all current threads. */
    void registerHandler(proto::FnId fn, const Handler &handler);

    /** Apply the Optimized threading model to all threads. */
    void setWorkerPool(WorkerPool *pool);

    /** Apply a shed policy to all threads. */
    void setShedPolicy(ShedPolicy policy);

    RpcServerThread &serverThread(std::size_t i) { return *_threads.at(i); }
    std::size_t size() const { return _threads.size(); }

    std::uint64_t totalProcessed() const;
    std::uint64_t totalShed() const;

  private:
    DaggerNode &_node;
    std::vector<std::unique_ptr<RpcServerThread>> _threads;
};

} // namespace dagger::rpc

#endif // DAGGER_RPC_SERVER_HH
