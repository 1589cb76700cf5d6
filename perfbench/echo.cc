/**
 * @file
 * Closed-loop echo workloads: echo_small and echo_bulk.
 *
 * One client node and one server node on a single-queue DaggerSystem,
 * one RpcClient and one server thread per flow, every client keeping a
 * fixed window of calls in flight.  The request payload carries its
 * request id, its simulated issue tick, and bytes derived from the id
 * and the seed, so the completion callback can check the echo byte for
 * byte and time the call in simulated time without any per-request
 * table.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>

#include "alloc_count.hh"
#include "perfbench.hh"
#include "rpc/client.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"
#include "sim/rng.hh"

namespace perfbench {

namespace {

using namespace dagger;

struct EchoSpec
{
    unsigned flows;          ///< client flows = server flows
    unsigned window;         ///< calls in flight per flow
    std::size_t payloadMin;  ///< request bytes (>= 16) ...
    std::size_t payloadMax;  ///< ... drawn uniformly per request
    std::size_t ringEntries; ///< TX and RX ring frames per flow
    sim::Tick warmup;
    sim::Tick measure;
    double paperMrps; ///< reference throughput, or kNotApplicable
};

/**
 * Fig. 10's UPI B=4 saturation point: one core, 64 B RPCs (48 B of
 * payload fill one frame), 96 calls in flight.
 */
constexpr EchoSpec kEchoSmall{1, 96, 48, 48, 512, sim::msToTicks(2),
                              sim::msToTicks(20), 12.4};

/**
 * Two flows of 3.5-4.5 KB RPCs (75-96 frames, 4 KB on average) over
 * 2048-frame rings.  The spread of sizes makes the simulated results
 * depend on the seed; a fixed size would pin them to one value.
 */
constexpr EchoSpec kEchoBulk{2, 8, 3584, 4608, 2048, sim::msToTicks(2),
                             sim::msToTicks(60), kNotApplicable};

constexpr proto::FnId kEcho = 1;
constexpr sim::Tick kHandlerCost = sim::nsToTicks(10);
/** Handler ticks are parked in a ring indexed by request id; it must
 *  exceed the calls in flight. */
constexpr std::size_t kTickRing = 1024;
static_assert(kTickRing > kEchoSmall.flows * kEchoSmall.window &&
              kTickRing > kEchoBulk.flows * kEchoBulk.window);

/** The 8 payload bytes at offset @p i (>= 16) of the request keyed
 *  @p key; bytes 0-15 carry the request id and the issue tick. */
inline std::uint64_t
patternWord(std::uint64_t key, std::size_t i)
{
    return key ^ (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull);
}

/** Write the pattern into bytes [16, len) of @p buf. */
void
fillPattern(std::uint8_t *buf, std::size_t len, std::uint64_t key)
{
    std::size_t i = 16;
    for (; i + 8 <= len; i += 8) {
        const std::uint64_t w = patternWord(key, i);
        std::memcpy(buf + i, &w, 8);
    }
    const std::uint64_t tail = patternWord(key, i);
    std::memcpy(buf + i, &tail, len - i);
}

/** True if bytes [16, len) of @p buf hold the pattern. */
bool
hasPattern(const std::uint8_t *buf, std::size_t len, std::uint64_t key)
{
    std::uint64_t diff = 0;
    std::size_t i = 16;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, buf + i, 8);
        diff |= w ^ patternWord(key, i);
    }
    const std::uint64_t tail = patternWord(key, i);
    return diff == 0 && std::memcmp(buf + i, &tail, len - i) == 0;
}

class EchoRun
{
  public:
    EchoRun(const EchoSpec &spec, std::uint64_t seed, SpanLog &log)
        : _spec(spec), _seed(seed), _log(log),
          _jitter(mixSeed(seed ^ 0x6a6974746572ull)), _buf(spec.payloadMax)
    {}

    Rep run();

  private:
    struct Flow
    {
        std::unique_ptr<rpc::RpcClient> cli;
        std::uint64_t issued = 0;
        std::uint64_t completed = 0;
    };

    void build();
    std::size_t sizeOf(std::uint64_t req) const;
    void issue(Flow &f);
    void complete(Flow &f, const proto::RpcMessage &m);
    rpc::HandlerOutcome handle(const proto::RpcMessage &req);
    bool quiesce(sim::Tick limit);

    const EchoSpec &_spec;
    std::uint64_t _seed;
    SpanLog &_log;
    sim::Rng _jitter;

    std::unique_ptr<rpc::DaggerSystem> _sys;
    std::unique_ptr<rpc::CpuSet> _clientCpus, _serverCpus;
    std::unique_ptr<rpc::RpcThreadedServer> _server;
    std::vector<Flow> _flows;

    std::vector<std::uint8_t> _buf;
    std::uint64_t _nextReq = 1;
    std::uint64_t _handled = 0;
    std::uint64_t _mismatches = 0;
    bool _measuring = false;
    bool _stopping = false;
    std::array<sim::Tick, kTickRing> _handlerTick{};
    std::vector<std::uint64_t> _latency, _reqPath, _respPath;
};

void
EchoRun::build()
{
    _sys = std::make_unique<rpc::DaggerSystem>(ic::IfaceKind::Upi);
    nic::NicConfig cfg;
    cfg.numFlows = _spec.flows;
    cfg.iface = ic::IfaceKind::Upi;
    cfg.txRingEntries = _spec.ringEntries;
    cfg.rxRingEntries = _spec.ringEntries;
    nic::SoftConfig soft;
    soft.batchSize = 4;
    rpc::DaggerNode &cn = _sys->addNode(cfg, soft);
    rpc::DaggerNode &sn = _sys->addNode(cfg, soft);

    // Client threads share SMT cores with a mild 1.2x penalty; every
    // server flow gets its own core (the Fig. 10 rig).
    _clientCpus = std::make_unique<rpc::CpuSet>(
        _sys->eq(), std::max(1u, (_spec.flows + 1) / 2), 1.2);
    _serverCpus = std::make_unique<rpc::CpuSet>(_sys->eq(), _spec.flows);
    _server = std::make_unique<rpc::RpcThreadedServer>(sn);
    _flows.resize(_spec.flows);
    for (unsigned t = 0; t < _spec.flows; ++t) {
        Flow &f = _flows[t];
        f.cli = std::make_unique<rpc::RpcClient>(
            cn, t, _clientCpus->logicalThread(t));
        f.cli->setConnection(
            _sys->connect(cn, t, sn, t, nic::LbScheme::Static));
        _server->addThread(t, _serverCpus->core(t).thread(0));
    }
    _server->registerHandler(
        kEcho, [this](const proto::RpcMessage &req) { return handle(req); });
}

std::size_t
EchoRun::sizeOf(std::uint64_t req) const
{
    const std::size_t span = _spec.payloadMax - _spec.payloadMin + 1;
    return _spec.payloadMin + mixSeed(req ^ _seed ^ 0x73697a65ull) % span;
}

void
EchoRun::issue(Flow &f)
{
    const std::uint64_t req = _nextReq++;
    const std::size_t len = sizeOf(req);
    const sim::Tick now = _sys->eq().now();
    std::memcpy(_buf.data(), &req, 8);
    std::memcpy(_buf.data() + 8, &now, 8);
    fillPattern(_buf.data(), len, mixSeed(req ^ _seed));
    ++f.issued;
    ScopedSpan span(_log, SpanKind::Issue, req);
    f.cli->callAsync(kEcho, _buf.data(), len,
                     [this, &f](const proto::RpcMessage &m) {
                         complete(f, m);
                     });
}

rpc::HandlerOutcome
EchoRun::handle(const proto::RpcMessage &req)
{
    std::uint64_t id = 0;
    if (req.payloadLen() >= 8)
        std::memcpy(&id, req.payload().data(), 8);
    ScopedSpan span(_log, SpanKind::Handler, id);
    ++_handled;
    _handlerTick[id % kTickRing] = _sys->eq().now();
    rpc::HandlerOutcome out;
    out.response = req.payload();
    // A small exponential jitter keeps the tail from being a
    // deterministic pipeline (the Fig. 10 rig's handler).
    out.cost = kHandlerCost +
        static_cast<sim::Tick>(
                   _jitter.exponential(static_cast<double>(kHandlerCost) * 0.5));
    return out;
}

void
EchoRun::complete(Flow &f, const proto::RpcMessage &m)
{
    const proto::PayloadBuf &p = m.payload();
    std::uint64_t req = 0;
    sim::Tick issued_at = 0;
    if (p.size() >= 16) {
        std::memcpy(&req, p.data(), 8);
        std::memcpy(&issued_at, p.data() + 8, 8);
    }
    ScopedSpan span(_log, SpanKind::Complete, req);
    const bool same = req != 0 && p.size() == sizeOf(req) &&
        hasPattern(p.data(), p.size(), mixSeed(req ^ _seed));
    _mismatches += same ? 0 : 1;
    ++f.completed;
    if (_measuring) {
        const sim::Tick now = _sys->eq().now();
        const sim::Tick handled_at = _handlerTick[req % kTickRing];
        _latency.push_back(now - issued_at);
        _reqPath.push_back(handled_at - issued_at);
        _respPath.push_back(now - handled_at);
    }
    if (!_stopping)
        issue(f);
}

bool
EchoRun::quiesce(sim::Tick limit)
{
    const sim::Tick step = sim::usToTicks(10);
    for (sim::Tick t = 0; t < limit && !_sys->eq().empty(); t += step)
        _sys->runFor(step);
    return _sys->eq().empty();
}

Rep
EchoRun::run()
{
    Rep rep;
    const std::uint64_t t0 = hostNs();
    const AllocTotals a0 = allocTotals();
    {
        ScopedSpan span(_log, SpanKind::Setup);
        build();
        // Generous room for the region's samples, so that the measured
        // region itself allocates nothing on their behalf.
        const std::size_t room = static_cast<std::size_t>(
            sim::ticksToUs(_spec.measure) * 16.0);
        _latency.reserve(room);
        _reqPath.reserve(room);
        _respPath.reserve(room);
        for (Flow &f : _flows)
            for (unsigned w = 0; w < _spec.window; ++w)
                issue(f);
        _sys->runFor(_spec.warmup);
    }
    const std::uint64_t t1 = hostNs();
    const AllocTotals a1 = allocTotals();

    const Snapshot before = snapshot(_sys->metrics());
    std::uint64_t done0 = 0, fail0 = 0;
    for (Flow &f : _flows) {
        done0 += f.completed;
        fail0 += f.cli->sendFailures() + f.cli->timeouts();
    }
    _measuring = true;
    const std::uint64_t t2 = hostNs();
    {
        ScopedSpan span(_log, SpanKind::Run);
        _sys->runFor(_spec.measure);
    }
    const std::uint64_t t3 = hostNs();
    const AllocTotals a3 = allocTotals();
    _measuring = false;
    const Snapshot after = snapshot(_sys->metrics());
    std::uint64_t done1 = 0, fail1 = 0;
    for (Flow &f : _flows) {
        done1 += f.completed;
        fail1 += f.cli->sendFailures() + f.cli->timeouts();
    }

    // Run out: stop re-issuing and let every call and frame land.
    _stopping = true;
    bool quiet = false;
    {
        ScopedSpan span(_log, SpanKind::Drain);
        quiet = quiesce(sim::msToTicks(50));
    }

    const double reqs = static_cast<double>(done1 - done0);
    const double window = static_cast<double>(_spec.measure);
    rep.setupS = static_cast<double>(t1 - t0) * 1e-9;
    rep.runS = static_cast<double>(t3 - t2) * 1e-9;
    rep.completed = reqs;
    rep.failed = fail1 - fail0;
    rep.attempted = (done1 - done0) + rep.failed;

    // End-to-end simulated results.
    const double mrps = reqs / sim::ticksToUs(_spec.measure);
    const std::size_t samples = _latency.size();
    const double p50 = sim::ticksToUs(exactPercentile(_latency, 50));
    const double p99 = sim::ticksToUs(exactPercentile(_latency, 99));
    const double p999 = sim::ticksToUs(exactPercentile(_latency, 99.9));
    const double fail_frac = rep.attempted == 0
        ? 0.0
        : static_cast<double>(rep.failed) /
            static_cast<double>(rep.attempted);
    Values &v = rep.sim;
    v.emplace_back("sim_mrps", mrps);
    v.emplace_back("sim_p50_us", p50);
    v.emplace_back("sim_p99_us", p99);
    v.emplace_back("sim_p999_us", p999);
    v.emplace_back("sim_ok_frac", 1.0 - fail_frac);
    v.emplace_back("e2e.sim_fail_frac", fail_frac);
    v.emplace_back("e2e.sim_degraded_frac", 0.0);
    v.emplace_back("e2e.sim_slo_krps", kNotApplicable);
    v.emplace_back("e2e.sim_paper_err",
                   _spec.paperMrps == kNotApplicable
                       ? kNotApplicable
                       : std::abs(mrps - _spec.paperMrps) / _spec.paperMrps);
    v.emplace_back("e2e.sim_p999_samples", static_cast<double>(samples));

    // Per layer.
    const Snapshot d = delta(before, after);
    layerValues(v, d, after, reqs, window);
    v.emplace_back("rpc.req_path_us",
                   sim::ticksToUs(exactPercentile(_reqPath, 50)));
    v.emplace_back("rpc.resp_path_us",
                   sim::ticksToUs(exactPercentile(_respPath, 50)));
    v.emplace_back("app.offered_vs_issued", kNotApplicable);
    v.emplace_back("app.airport_hit_rate", kNotApplicable);
    v.emplace_back("svc.flight.shed_calls", kNotApplicable);
    v.emplace_back("svc.degraded_calls", kNotApplicable);
    for (const char *tier : {"checkin", "flight", "baggage", "passport",
                             "checkin.wall", "passport.wall"}) {
        v.emplace_back(std::string("svc.") + tier + ".p50_us",
                       kNotApplicable);
        v.emplace_back(std::string("svc.") + tier + ".p99_us",
                       kNotApplicable);
    }
    for (const auto &[name, value] : v)
        rep.mix(name, value);
    mixSnapshot(rep, d);

    rep.host.emplace_back("host.allocs_per_req",
                          static_cast<double>(a3.count - a1.count) / reqs);
    rep.host.emplace_back("host.alloc_bytes_per_req",
                          static_cast<double>(a3.bytes - a1.bytes) / reqs);
    rep.host.emplace_back("host.setup_allocs",
                          static_cast<double>(a1.count - a0.count));
    rep.host.emplace_back("sim.host_ns_per_event",
                          static_cast<double>(t3 - t2) /
                              d.at("events_executed"));

    // Output checks.
    rep.check(_mismatches == 0, "every echo response equals its request");
    rep.check(quiet, "the system quiesces after the run");
    std::uint64_t completed = 0;
    for (std::size_t i = 0; i < _flows.size(); ++i) {
        const Flow &f = _flows[i];
        const rpc::RpcClient &c = *f.cli;
        const std::string who = "client " + std::to_string(i) + ": ";
        completed += f.completed;
        rep.check(f.issued == f.completed + c.sendFailures() +
                          c.timeouts() + c.pendingCalls(),
                  who + "issued == completed + failed + pending");
        rep.check(c.pendingCalls() == 0, who + "no call left pending");
        rep.check(c.responses() == f.completed,
                  who + "one callback per response");
        rep.check(c.orphanResponses() == 0 && c.lateResponses() == 0,
                  who + "no orphan or late responses");
    }
    rep.check(_handled == completed, "every request handled exactly once");
    checkConservation(rep, *_sys);
    return rep;
}

} // namespace

Rep
runEchoSmall(std::uint64_t seed, SpanLog &log)
{
    return EchoRun(kEchoSmall, seed, log).run();
}

Rep
runEchoBulk(std::uint64_t seed, SpanLog &log)
{
    return EchoRun(kEchoBulk, seed, log).run();
}

} // namespace perfbench
