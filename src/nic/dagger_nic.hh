/**
 * @file
 * The Dagger NIC: the paper's green-bitstream user logic (Fig. 6).
 *
 * Receiving path (RX, host -> network): the RX FSM watches the
 * per-flow TX rings, pulls request frames over the CCI-P port in
 * batches of B, runs them through the RPC-unit pipeline (serializer,
 * connection lookup, Protocol unit), and ships packets to the ToR
 * switch.  Bookkeeping messages release ring entries asynchronously.
 *
 * Transmitting path (TX, network -> host): incoming packets run
 * through the deserializer, are steered by the load balancer
 * (requests) or the connection table's src_flow (responses) into flow
 * FIFOs backed by the request buffer (Fig. 9B), and the flow
 * scheduler posts full batches into the host RX rings.
 */

#ifndef DAGGER_NIC_DAGGER_NIC_HH
#define DAGGER_NIC_DAGGER_NIC_HH

#include <array>
#include <memory>
#include <vector>

#include "ic/cci_fabric.hh"
#include "mem/hcc.hh"
#include "net/tor_switch.hh"
#include "nic/ack_protocol.hh"
#include "nic/config.hh"
#include "nic/connection_manager.hh"
#include "nic/load_balancer.hh"
#include "nic/pipeline.hh"
#include "nic/request_buffer.hh"
#include "proto/wire.hh"
#include "rpc/rings.hh"
#include "sim/event_queue.hh"
#include "sim/reuse.hh"

namespace dagger::nic {

/** One virtual-but-physical NIC instance (§6, Fig. 14). */
class DaggerNic
{
  public:
    /**
     * @param eq    event queue
     * @param cfg   hard configuration (the "bitstream")
     * @param soft  initial soft-register values
     * @param port  this instance's CCI-P port
     * @param net   this instance's ToR switch port
     */
    DaggerNic(sim::EventQueue &eq, NicConfig cfg, SoftConfig soft,
              ic::CciPort &port, net::SwitchPort &net);

    DaggerNic(const DaggerNic &) = delete;
    DaggerNic &operator=(const DaggerNic &) = delete;

    /** Bind flow @p flow to its software ring pair. */
    void attachFlow(unsigned flow, rpc::TxRing *tx, rpc::RxRing *rx);

    /** Register a connection in the hardware connection manager. */
    bool openConnection(proto::ConnId id, const ConnTuple &tuple);

    /**
     * Mutable soft registers; writes take effect on the next FSM
     * decision, like MMIO CSR writes (§4.1 soft configuration).
     */
    SoftConfig &softConfig() { return _soft; }
    const SoftConfig &softConfig() const { return _soft; }

    /** Install an application-specific load balancer (§5.7, MICA). */
    void setObjectLevelKey(std::size_t key_offset, std::size_t key_len);

    /**
     * Install the reliable-delivery Protocol unit; null (the default)
     * is the paper's idle unit, which forwards every packet (§4.5).
     */
    void setProtocol(std::unique_ptr<AckProtocol> protocol);

    /** Re-inject a packet from the Protocol unit (retransmission). */
    void protocolEgress(net::Packet pkt);

    const NicConfig &config() const { return _cfg; }
    ConnectionManager &connectionManager() { return _cm; }

    PacketMonitor &monitor() { return _monitor; }
    const PacketMonitor &monitor() const { return _monitor; }
    ic::CciPort &cciPort() { return _port; }
    sim::EventQueue &eventQueue() { return _eq; }

    /**
     * Register all NIC statistics under @p scope: the Packet Monitor
     * first, then the connection cache, HCC, and the TX-path request
     * buffer as child scopes.
     */
    void
    registerMetrics(sim::MetricScope scope) const
    {
        _monitor.registerMetrics(scope);
        _cm.registerMetrics(scope.sub("conn_cache"));
        _hcc.registerMetrics(scope.sub("hcc"));
        _reqBuffer.registerMetrics(scope.sub("req_buffer"));
    }

    /** Effective number of active flows. */
    unsigned
    activeFlows() const
    {
        return _soft.activeFlows == 0 || _soft.activeFlows > _cfg.numFlows
            ? _cfg.numFlows
            : _soft.activeFlows;
    }

  private:
    struct FlowState
    {
        rpc::TxRing *tx = nullptr;
        rpc::RxRing *rx = nullptr;
        bool fetchTimeoutArmed = false;
        bool postTimeoutArmed = false;
        unsigned outstandingFetches = 0;
        /// egress grouping of multi-frame messages
        std::vector<proto::Frame> partial;
        /// ingress frames stalled waiting for a request-buffer slot
        sim::RingFifo<proto::Frame> ingress;
    };

    sim::Tick pipelineDelay() const
    {
        return static_cast<sim::Tick>(_cfg.pipelineDepth) * _cfg.clockPeriod;
    }

    unsigned effectiveBatch() const { return std::max(1u, _soft.batchSize); }

    // --- RX path (host -> network) ---
    void maybeFetch(unsigned flow);
    void issueFetch(unsigned flow, std::size_t frames);
    void armFetchTimeout(unsigned flow);
    void onFetched(unsigned flow, std::vector<proto::Frame> &&frames);
    void egressFrames(std::vector<proto::Frame> &&frames);

    // --- reused frame vectors (fetch/post batches, packet bodies) ---
    using SparePool = std::vector<std::vector<proto::Frame>>;
    static std::vector<proto::Frame> takeSpare(SparePool &pool);
    static void recycle(SparePool &pool, std::vector<proto::Frame> &&frames);

    // --- TX path (network -> host) ---
    void onNetReceive(net::Packet pkt);
    void steerMessage(net::Packet pkt);
    void drainIngress(unsigned flow);
    void maybePost(unsigned flow);
    void issuePost(unsigned flow, std::size_t frames);
    void armPostTimeout(unsigned flow);

    // --- poll-mode management (§4.4.1) ---
    void pollModeTick();

    sim::EventQueue &_eq;
    NicConfig _cfg;
    SoftConfig _soft;
    ic::CciPort &_port;
    net::SwitchPort &_net;
    ConnectionManager _cm;
    /** The Host Coherent Cache (§4.1): per-connection transport state
     *  on the NIC, coherently backed by host memory.  Every RPC
     *  touches its connection's state line; a miss costs a fill. */
    mem::Hcc _hcc;
    RequestBuffer _reqBuffer;
    std::vector<FlowState> _flows;
    PacketMonitor _monitor;
    /** Emptied frame vectors kept for reuse: fetch/post batches (one
     *  burst each) apart from packet bodies (one message each), so a
     *  batch never pins a message-sized vector.  Bounded in count and
     *  per-vector size, so a rare huge message is not retained. */
    SparePool _spareBatches;
    SparePool _spareBodies;
    std::unique_ptr<AckProtocol> _protocol;
    RoundRobinLb _rrLb;
    StaticLb _staticLb;
    ObjectLevelLb _objLb{0, 8};
    std::uint64_t _fetchesInWindow = 0;
    sim::Tick _lastPollEval = 0;
    /// in-order egress pipeline head
    sim::Tick _egressFreeAt = 0;

    /// cap on per-flow outstanding fetches; creates natural batching
    /// in auto mode while keeping the bus pipelined (§4.4: "Dagger
    /// sends multiple asynchronous requests")
    static constexpr unsigned kMaxFlowFetches = 8;
    /// spare frame vectors kept per pool, and the largest kept (frames)
    static constexpr std::size_t kMaxSpares = 64;
    static constexpr std::size_t kMaxSpareFrames = 128;
};

} // namespace dagger::nic

#endif // DAGGER_NIC_DAGGER_NIC_HH
