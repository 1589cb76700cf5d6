/**
 * @file
 * The CCI-P fabric: the CPU-side-visible interface of the FPGA.
 *
 * One CciFabric models the blue-bitstream protocol stack (the
 * triangle in Fig. 6): two serialized directions (host->NIC and
 * NIC->host) with round-robin arbitration between NIC instances
 * (ports, Fig. 14) and a per-port outstanding-transaction window
 * (<=128, §4.4).  Each Dagger NIC instance owns one CciPort.
 */

#ifndef DAGGER_IC_CCI_FABRIC_HH
#define DAGGER_IC_CCI_FABRIC_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ic/channel.hh"
#include "ic/cost_model.hh"
#include "sim/event_queue.hh"
#include "sim/metrics.hh"
#include "sim/reuse.hh"

namespace dagger::ic {

class CciFabric;

/** FPGA-side polling mode (§4.4.1). */
enum class PollMode {
    LocalCache, ///< poll the FPGA's coherent cache; invalidations pull data
    Llc,        ///< poll the processor LLC directly (high-load mode)
};

/**
 * One NIC instance's view of the interconnect.
 */
class CciPort
{
  public:
    /**
     * Pull @p lines cache lines of new requests from host TX buffers
     * into the NIC (the NIC RX path).  @p done fires when the data is
     * usable by the RPC pipeline.
     */
    void fetch(unsigned lines, EventFn done);

    /**
     * Write @p lines cache lines of received RPCs into a host RX ring
     * (the NIC TX path).  @p done fires when the lines are visible to
     * software.
     */
    void post(unsigned lines, EventFn done);

    /**
     * Send bookkeeping info (free-slot releases) back to software;
     * @p done fires when software sees it.  One cache line regardless
     * of batch size.
     */
    void bookkeep(EventFn done);

    /**
     * Issue an idle read of one cache line over the interconnect —
     * used by the raw-UPI scalability experiment (Fig. 11 right).
     */
    void rawRead(EventFn done);

    void setPollMode(PollMode mode) { _pollMode = mode; }
    PollMode pollMode() const { return _pollMode; }

    /** Per-request CPU-side penalty implied by the current poll mode. */
    Tick hostPollPenalty() const;

    unsigned id() const { return _id; }

    std::uint64_t fetchTxns() const { return _fetchTxns; }
    std::uint64_t postTxns() const { return _postTxns; }
    std::uint64_t linesFetched() const { return _linesFetched; }
    std::uint64_t linesPosted() const { return _linesPosted; }
    std::uint64_t stalls() const { return _stalls; }

  private:
    friend class CciFabric;
    CciPort(CciFabric &fabric, unsigned id) : _fabric(fabric), _id(id) {}

    struct Op
    {
        bool to_nic;
        unsigned lines;
        Tick extra_latency;
        EventFn done;
        bool streamed = false;
    };

    /** A transaction in flight: its completion and propagation delay. */
    struct InFlight
    {
        EventFn done;
        Tick extra_latency = 0;
    };

    void submit(Op op);
    void issue(Op op);
    void onGranted(std::uint32_t slot);
    void onPropagated(std::uint32_t slot);
    void completed();

    CciFabric &_fabric;
    unsigned _id;
    PollMode _pollMode = PollMode::LocalCache;
    unsigned _inFlight = 0;
    /// ops waiting for an outstanding slot
    sim::RingFifo<Op> _pendingWindow;
    /** Completions of issued transactions — at most maxOutstanding,
     *  so the pool never outgrows the window; the grant and
     *  propagation events capture only the slot. */
    sim::SlotPool<InFlight> _inFlightOps;

    std::uint64_t _fetchTxns = 0;
    std::uint64_t _postTxns = 0;
    std::uint64_t _linesFetched = 0;
    std::uint64_t _linesPosted = 0;
    std::uint64_t _stalls = 0;
};

/**
 * The shared CPU<->FPGA protocol stack, owning both channel directions
 * and all ports.
 */
class CciFabric
{
  public:
    /**
     * @param eq    simulation event queue
     * @param kind  CPU-NIC interface flavour for the NIC RX path
     * @param ports number of NIC instances sharing the fabric
     */
    CciFabric(EventQueue &eq, IfaceKind kind, unsigned ports = 1,
              UpiCost upi = {}, PcieCost pcie = {});

    CciPort &port(unsigned i);

    /** Attach another NIC instance to the shared fabric (Fig. 14). */
    CciPort &addPort();

    IfaceKind kind() const { return _kind; }
    const UpiCost &upi() const { return _upi; }
    const PcieCost &pcie() const { return _pcie; }

    /** CPU cost per request for the configured interface (see cost model). */
    Tick hostTxCpuCost(unsigned batch) const;

    /** The host-to-NIC channel, exposed for its grant counts. */
    const Channel &toNicChannel() const { return _toNic; }

    /**
     * Register the fabric's statistics under @p scope (both channel
     * directions; ports added later self-register under
     * "<scope>.port<i>").  Call at most once, before traffic.
     */
    void registerMetrics(sim::MetricScope scope);

  private:
    friend class CciPort;

    void registerPortMetrics(CciPort &port);

    EventQueue &_eq;
    IfaceKind _kind;
    UpiCost _upi;
    PcieCost _pcie;
    Channel _toNic;
    Channel _toHost;
    unsigned _maxOutstanding;
    std::vector<std::unique_ptr<CciPort>> _ports;
    std::optional<sim::MetricScope> _metricScope;
};

} // namespace dagger::ic

#endif // DAGGER_IC_CCI_FABRIC_HH
