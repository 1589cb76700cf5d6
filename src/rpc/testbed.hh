/**
 * @file
 * Testbed: the two-node deployment every latency and throughput figure
 * measures on.
 *
 * A client NIC instance and a server NIC instance share one simulated
 * FPGA and talk through the loopback ToR — the "virtual but physical"
 * NICs of Fig. 14 that §5.2-5.6 and Table 3 measure on.  The testbed
 * owns the system, both nodes, their cores, one RpcClient per client
 * flow and one server thread per server flow, and drives echo load
 * through them: one driver per testbed, because a driver's arrival
 * chains and client modes outlive its run.  Anything it does not
 * configure stays reachable through its accessors
 * (`serverNode().nicDev().setProtocol(...)`,
 * `client(i).setRetryPolicy(...)`).
 */

#ifndef DAGGER_RPC_TESTBED_HH
#define DAGGER_RPC_TESTBED_HH

#include <cstdint>
#include <vector>

#include "nic/config.hh"
#include "rpc/client.hh"
#include "rpc/cpu.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"
#include "sim/rng.hh"

namespace dagger::rpc {

/** The function the testbed's handler serves and its drivers call. */
inline constexpr proto::FnId kEchoFn = 1;

/** One measured operating point of a load driver. */
struct LoadPoint
{
    double mrps = 0;   ///< achieved throughput, Mrps
    double p50_us = 0; ///< median RTT
    double p99_us = 0; ///< 99th percentile RTT
    double drops = 0;  ///< drop fraction
};

/** What a testbed varies; the rest is the NIC's default hard config. */
struct TestbedConfig
{
    ic::IfaceKind iface = ic::IfaceKind::Upi;
    /** Client flows, one RpcClient each; client t sends to server
     *  flow t % serverFlows. */
    unsigned clientFlows = 1;
    /** Server flows, one dispatch thread each. */
    unsigned serverFlows = 1;
    /** Soft configuration of both NICs (batch size, auto-batch). */
    nic::SoftConfig soft;
    std::size_t txRingEntries = nic::NicConfig{}.txRingEntries;
    std::size_t rxRingEntries = nic::NicConfig{}.rxRingEntries;
    /** Load balancing of every client connection. */
    nic::LbScheme lb = nic::LbScheme::Static;
    std::size_t connCacheEntries = nic::NicConfig{}.connCacheEntries;
    bool connCacheDramBacking = false;
    /** Served on kEchoFn by every server thread; none when empty. */
    Handler handler;
};

/** Client and server node, their cores, clients and server threads. */
class Testbed
{
  public:
    /**
     * Build order is part of the simulated result (registration order
     * is the JSON key order): the client node is node 0, the server
     * node 1, and connection t belongs to client t.  Client thread t
     * runs on the paper's logical thread t of (clientFlows+1)/2 cores
     * with a 1.2 SMT penalty (tight send loops co-schedule well on SMT
     * siblings, matching the near-linear scaling to 4 threads on 2
     * cores); server thread t has core t to itself.
     */
    explicit Testbed(const TestbedConfig &cfg);

    Testbed(const Testbed &) = delete;
    Testbed &operator=(const Testbed &) = delete;

    DaggerSystem &system() { return _sys; }
    DaggerNode &clientNode() { return _clientNode; }
    DaggerNode &serverNode() { return _serverNode; }
    RpcClientPool &clients() { return _clients; }
    RpcClient &client(std::size_t i = 0) { return _clients.client(i); }
    RpcThreadedServer &server() { return _server; }

    /**
     * Closed-loop saturation run: @p window outstanding requests per
     * client; measures completions over @p measure after @p warmup.
     */
    LoadPoint saturate(unsigned window,
                       sim::Tick warmup = sim::msToTicks(2),
                       sim::Tick measure = sim::msToTicks(10));

    /**
     * Open-loop run at @p offered_mrps in total (split across
     * clients), Poisson arrivals.
     */
    LoadPoint offer(double offered_mrps,
                    sim::Tick warmup = sim::msToTicks(2),
                    sim::Tick measure = sim::msToTicks(10));

    /**
     * Best-effort flood (§5.3): clients switch to best-effort mode and
     * fire-and-forget at their CPU send rate; the reported throughput
     * is the rate the server side actually processes, with drops
     * allowed anywhere.
     */
    LoadPoint floodPeak(sim::Tick warmup = sim::msToTicks(2),
                        sim::Tick measure = sim::msToTicks(10));

  private:
    /** Panics if a driver already ran on this testbed. */
    void startDriver();
    void floodLoop(RpcClient &cli);
    void fireClosedLoop(RpcClient &cli);
    void fireOpenLoop(RpcClient &cli, double mrps);
    LoadPoint measureWindow(sim::Tick warmup, sim::Tick measure);

    DaggerSystem _sys;
    DaggerNode &_clientNode;
    DaggerNode &_serverNode;
    CpuSet _clientCpus;
    CpuSet _serverCpus;
    RpcThreadedServer _server;
    RpcClientPool _clients;
    sim::Rng _rng{0xbe0c4}; ///< open-loop arrivals
    /** The drivers' request: one 64 B frame. */
    const std::vector<std::uint8_t> _payload;
    sim::Tick _stopAt = 0;
    bool _driven = false;
};

} // namespace dagger::rpc

#endif // DAGGER_RPC_TESTBED_HH
