/**
 * @file
 * A serialized, port-fair interconnect channel.
 *
 * Models one direction of the CCI-P endpoint in the FPGA blue
 * bitstream: transactions from multiple NIC instances (ports) are
 * granted in round-robin order (the paper's PCIe/UPI arbiter,
 * Fig. 14) and occupy the channel for txnOverhead + lines *
 * lineService.
 */

#ifndef DAGGER_IC_CHANNEL_HH
#define DAGGER_IC_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/reuse.hh"
#include "sim/time.hh"

namespace dagger::ic {

using sim::EventFn;
using sim::EventQueue;
using sim::Tick;

/**
 * One direction of the interconnect endpoint with round-robin port
 * arbitration.
 */
class Channel
{
  public:
    /**
     * @param eq           simulation event queue
     * @param line_service endpoint occupancy per cache line
     * @param txn_overhead fixed occupancy per transaction
     * @param ports        number of arbitrated ports (NIC instances)
     */
    Channel(EventQueue &eq, Tick line_service, Tick txn_overhead,
            unsigned ports = 1);

    /**
     * Request service for a transaction of @p lines cache lines from
     * @p port.  @p done runs when the transaction's channel service
     * completes (propagation latency is added by the caller).
     */
    void request(unsigned port, unsigned lines, EventFn done,
                 bool streamed = false);

    /** Add one more arbitrated port; returns its index. */
    unsigned addPort();

    /** Total lines serviced. */
    std::uint64_t linesServiced() const { return _linesServiced; }

    /** Total transactions serviced. */
    std::uint64_t txnsServiced() const { return _txnsServiced; }

    /** Per-port grant counts (for arbiter fairness checks). */
    const std::vector<std::uint64_t> &grants() const { return _grants; }

    /** Ticks the channel spent busy. */
    Tick busyTicks() const { return _busyTicks; }

    /** Utilization over a window. */
    double
    utilization(Tick window) const
    {
        return window == 0
            ? 0.0
            : static_cast<double>(_busyTicks) / static_cast<double>(window);
    }

  private:
    struct Txn
    {
        unsigned lines = 0;
        EventFn done;
        /// no per-transaction overhead (pipelined reads)
        bool streamed = false;
    };

    void grantNext();
    void serviceDone();

    EventQueue &_eq;
    Tick _lineService;
    Tick _txnOverhead;
    std::vector<sim::RingFifo<Txn>> _queues;
    std::vector<std::uint64_t> _grants;
    unsigned _rrNext = 0;
    bool _busy = false;
    /** Completion of the transaction in service.  Parked here so the
     *  scheduled event captures only `this` and stays in EventClosure's
     *  inline buffer; at most one transaction is in service at a time. */
    EventFn _inService;
    std::uint64_t _linesServiced = 0;
    std::uint64_t _txnsServiced = 0;
    Tick _busyTicks = 0;
};

} // namespace dagger::ic

#endif // DAGGER_IC_CHANNEL_HH
