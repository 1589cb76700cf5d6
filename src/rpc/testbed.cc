#include "rpc/testbed.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dagger::rpc {

namespace {

nic::NicConfig
nicConfig(const TestbedConfig &cfg, unsigned flows)
{
    nic::NicConfig nic;
    nic.numFlows = flows;
    nic.txRingEntries = cfg.txRingEntries;
    nic.rxRingEntries = cfg.rxRingEntries;
    nic.connCacheEntries = cfg.connCacheEntries;
    nic.connCacheDramBacking = cfg.connCacheDramBacking;
    return nic;
}

} // namespace

Testbed::Testbed(const TestbedConfig &cfg)
    : _sys(cfg.iface),
      _clientNode(_sys.addNode(nicConfig(cfg, cfg.clientFlows), cfg.soft)),
      _serverNode(_sys.addNode(nicConfig(cfg, cfg.serverFlows), cfg.soft)),
      _clientCpus(_sys.eq(), std::max(1u, (cfg.clientFlows + 1) / 2), 1.2),
      _serverCpus(_sys.eq(), cfg.serverFlows), _server(_serverNode),
      _clients(_clientNode), _payload(proto::kFramePayload, 0x5a)
{
    for (unsigned f = 0; f < cfg.serverFlows; ++f)
        _server.addThread(f, _serverCpus.core(f).thread(0));
    for (unsigned t = 0; t < cfg.clientFlows; ++t) {
        RpcClient &cli = _clients.addClient(t, _clientCpus.logicalThread(t));
        cli.setConnection(_sys.connect(_clientNode, t, _serverNode,
                                       t % cfg.serverFlows, cfg.lb));
    }
    if (cfg.handler)
        _server.registerHandler(kEchoFn, cfg.handler);
}

void
Testbed::startDriver()
{
    dagger_assert(!_driven, "a testbed runs one driver; build a fresh one");
    _driven = true;
}

LoadPoint
Testbed::saturate(unsigned window, sim::Tick warmup, sim::Tick measure)
{
    startDriver();
    for (std::size_t i = 0; i < _clients.size(); ++i)
        for (unsigned w = 0; w < window; ++w)
            fireClosedLoop(_clients.client(i));
    return measureWindow(warmup, measure);
}

LoadPoint
Testbed::offer(double offered_mrps, sim::Tick warmup, sim::Tick measure)
{
    startDriver();
    const double per_client =
        offered_mrps / static_cast<double>(_clients.size());
    _stopAt = _sys.now() + warmup + measure;
    for (std::size_t i = 0; i < _clients.size(); ++i)
        fireOpenLoop(_clients.client(i), per_client);
    return measureWindow(warmup, measure);
}

LoadPoint
Testbed::floodPeak(sim::Tick warmup, sim::Tick measure)
{
    startDriver();
    _stopAt = _sys.now() + warmup + measure;
    for (std::size_t i = 0; i < _clients.size(); ++i) {
        _clients.client(i).setBestEffort(true);
        floodLoop(_clients.client(i));
    }
    _sys.runFor(warmup);
    const std::uint64_t done0 = _server.totalProcessed();
    _sys.runFor(measure);
    const std::uint64_t done1 = _server.totalProcessed();
    LoadPoint p;
    p.mrps = sim::ratePerSec(done1 - done0, measure) / 1e6;
    const auto &mon = _serverNode.nicDev().monitor();
    const double seen = static_cast<double>(mon.rpcsIn.value());
    p.drops = seen == 0 ? 0.0 : static_cast<double>(mon.drops()) / seen;
    return p;
}

void
Testbed::floodLoop(RpcClient &cli)
{
    if (_sys.now() >= _stopAt)
        return;
    cli.callAsync(kEchoFn, _payload.data(), _payload.size());
    _sys.eq().schedule(_sys.sendCpuCost(_clientNode),
                       [this, &cli] { floodLoop(cli); });
}

void
Testbed::fireClosedLoop(RpcClient &cli)
{
    cli.callAsync(kEchoFn, _payload.data(), _payload.size(),
                  [this, &cli](const proto::RpcMessage &) {
                      fireClosedLoop(cli);
                  });
}

void
Testbed::fireOpenLoop(RpcClient &cli, double mrps)
{
    if (_sys.now() >= _stopAt)
        return;
    const double mean_gap_ns = 1000.0 / mrps;
    _sys.eq().schedule(sim::nsToTicks(_rng.exponential(mean_gap_ns)),
                       [this, &cli, mrps] {
                           if (_sys.now() < _stopAt)
                               cli.callAsync(kEchoFn, _payload.data(),
                                             _payload.size());
                           fireOpenLoop(cli, mrps);
                       });
}

LoadPoint
Testbed::measureWindow(sim::Tick warmup, sim::Tick measure)
{
    _sys.runFor(warmup);
    std::uint64_t done0 = 0, sent0 = 0, fail0 = 0;
    for (std::size_t i = 0; i < _clients.size(); ++i) {
        RpcClient &cli = _clients.client(i);
        done0 += cli.responses();
        sent0 += cli.sent();
        fail0 += cli.sendFailures();
        cli.latency().reset();
    }
    _sys.runFor(measure);
    std::uint64_t done1 = 0, sent1 = 0, fail1 = 0;
    for (std::size_t i = 0; i < _clients.size(); ++i) {
        RpcClient &cli = _clients.client(i);
        done1 += cli.responses();
        sent1 += cli.sent();
        fail1 += cli.sendFailures();
    }
    const sim::Histogram lat = _clients.aggregateLatency();
    LoadPoint p;
    p.mrps = sim::ratePerSec(done1 - done0, measure) / 1e6;
    p.p50_us = sim::ticksToUs(lat.percentile(50));
    p.p99_us = sim::ticksToUs(lat.percentile(99));
    const double attempts =
        static_cast<double>((sent1 - sent0) + (fail1 - fail0));
    p.drops = attempts == 0
        ? 0.0
        : static_cast<double>(fail1 - fail0) / attempts;
    return p;
}

} // namespace dagger::rpc
