/**
 * @file
 * CPU costs of the thin Dagger software layer.
 *
 * The paper's design principle (1) leaves only the RPC API in
 * software: stub (de)serialization, the single shared-buffer write,
 * completion-queue handling, and the dispatch loop.  These constants
 * are what "lightweight" means quantitatively; together with the
 * interface costs in ic/cost_model.hh they reproduce the per-core
 * throughput of Fig. 10.
 */

#ifndef DAGGER_RPC_SW_COST_HH
#define DAGGER_RPC_SW_COST_HH

#include "sim/time.hh"

namespace dagger::rpc {

/** Host software cost model. */
struct SwCost
{
    /** Check a ring for new entries (hot, cached). */
    sim::Tick pollCost = sim::nsToTicks(5);

    /** Stub deserialization of one received message (flat PODs). */
    sim::Tick deserializeCost = sim::nsToTicks(8);

    /**
     * Client-side completion handling per response: pop the RX ring,
     * match the pending request, fire the continuation if the call
     * has one (§4.2).
     */
    sim::Tick completionCost = sim::nsToTicks(18);

    /** Server dispatch-loop overhead per request (before the handler). */
    sim::Tick dispatchCost = sim::nsToTicks(30);

    /**
     * Extra dispatcher work to hand a request off to a worker thread
     * (enqueue + wakeup; §5.7 Optimized threading model).
     */
    sim::Tick workerHandoffCpu = sim::nsToTicks(80);

    /**
     * Queueing/wakeup delay before a worker starts on a handed-off
     * request ("the overhead of inter-thread communication and
     * additional request queueing between the dispatch and worker
     * threads", §5.7).
     */
    sim::Tick workerHandoffDelay = sim::usToTicks(1.5);

    /**
     * Mutex cost on the TX path when several threads share one
     * RpcClient's rings (SRQ model, §4.2: "explicit locking in the
     * RpcClient RX/TX path is required").
     */
    sim::Tick srqLockCost = sim::nsToTicks(18);
};

} // namespace dagger::rpc

#endif // DAGGER_RPC_SW_COST_HH
