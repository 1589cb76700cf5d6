/**
 * @file
 * Extension: the Social Network tiers of §3, ported onto Dagger.
 *
 * Section 3 motivates Dagger by showing that over kernel TCP + Thrift
 * the light tiers spend up to 80% of their latency in networking.
 * The paper never closes that loop explicitly; this bench does: the
 * same six-tier topology, the same per-tier compute and RPC sizes,
 * but served over the Dagger fabric (one virtualized NIC per tier,
 * Fig. 14).  The per-tier networking share collapses from tens of
 * percent to single digits, and the end-to-end latency drops by the
 * entire former networking budget.
 */

#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/harness.hh"
#include "svc/socialnet.hh"
#include "svc/tier.hh"

namespace {

using namespace dagger;
using namespace dagger::bench;
using namespace dagger::rpc;

constexpr proto::FnId kProcess = 1;

/** Tier compute costs — identical to the SocialNetConfig defaults. */
struct TierSpec
{
    const char *name;
    sim::Tick compute;
    std::size_t reqBytes;
};

const TierSpec kSpecs[svc::kSnTiers] = {
    {"s1:Media", sim::usToTicks(500), 48},
    {"s2:User", sim::usToTicks(15), 48},
    {"s3:UniqueID", sim::usToTicks(10), 48},
    {"s4:Text", sim::usToTicks(1800), 580},
    {"s5:UserMention", sim::usToTicks(1400), 200},
    {"s6:UrlShorten", sim::usToTicks(700), 150},
};

/** The six tiers + front-end over one Dagger deployment. */
class SnOverDagger
{
  public:
    SnOverDagger() : _cpus(_sys.eq(), 8), _rng(0x536e44)
    {
        nic::SoftConfig soft;
        soft.autoBatch = true;

        for (unsigned t = 0; t < svc::kSnTiers; ++t) {
            const unsigned downstreams = t == 3 ? 2 : 0; // Text fans out
            _tiers[t] = std::make_unique<svc::Tier>(
                _sys, kSpecs[t].name, _cpus.core(t).thread(0), downstreams,
                nic::NicConfig{}, soft);
        }
        // Text -> UserMention, UrlShorten.
        _textToUm = &_tiers[3]->connectTo(*_tiers[4]);
        _textToUrl = &_tiers[3]->connectTo(*_tiers[5]);

        // Front-end: one client flow per downstream tier.
        nic::NicConfig fe;
        fe.numFlows = 4;
        _feNode = &_sys.addNode(fe, soft);
        const unsigned targets[4] = {2, 0, 1, 3}; // uid, media, user, text
        for (unsigned i = 0; i < 4; ++i) {
            _feClients[i] = std::make_unique<RpcClient>(
                *_feNode, i, _cpus.core(6).thread(0));
            _feClients[i]->setConnection(_sys.connect(
                *_feNode, i, _tiers[targets[i]]->node(), 0,
                nic::LbScheme::Static));
        }
        installHandlers();
    }

    /** Leaf handler with the tier's compute cost. */
    void
    installLeaf(unsigned t)
    {
        _tiers[t]->serverThread().registerHandler(
            kProcess, [t](const proto::RpcMessage &) {
                HandlerOutcome out;
                out.response = proto::PayloadBuf(32);
                out.cost = kSpecs[t].compute;
                return out;
            });
    }

    void
    installHandlers()
    {
        for (unsigned t : {0u, 1u, 2u, 4u, 5u})
            installLeaf(t);
        // Text fans out to s5/s6 before answering.
        _tiers[3]->serverThread().registerHandler(
            kProcess, [this](const proto::RpcMessage &req) {
                HandlerOutcome out;
                out.respond = false;
                out.cost = 0;
                auto remaining = std::make_shared<int>(2);
                const auto conn = req.connId();
                const auto rpc = req.rpcId();
                const auto fn = req.fnId();
                auto on_done = [this, remaining, conn, rpc,
                                fn](const proto::RpcMessage &) {
                    if (--*remaining > 0)
                        return;
                    // The Text compute itself runs before responding.
                    std::vector<std::uint8_t> resp(32);
                    _tiers[3]->dispatchThread().execute(
                        kSpecs[3].compute,
                        [this, conn, rpc, fn, resp = std::move(resp)] {
                            _tiers[3]->serverThread().respondLater(
                                conn, rpc, fn, resp.data(), resp.size());
                        });
                };
                std::vector<std::uint8_t> um(kSpecs[4].reqBytes);
                _textToUm->callAsync(kProcess, um.data(), um.size(),
                                     on_done);
                std::vector<std::uint8_t> url(kSpecs[5].reqBytes);
                _textToUrl->callAsync(kProcess, url.data(), url.size(),
                                      on_done);
                return out;
            });
    }

    /** Run compose-posts at @p qps for @p duration. */
    void
    run(double qps, sim::Tick duration)
    {
        _stopAt = _sys.now() + duration;
        _qps = qps;
        issue();
        _sys.runUntilTick(_stopAt + sim::msToTicks(50));
    }

    void
    issue()
    {
        // This bench runs single-queue; the compose driver fans out to
        // front-end clients on four nodes, so it stays on the system
        // queue by design.
        sim::EventQueue &eq = _sys.eq();
        if (eq.now() >= _stopAt)
            return;
        eq.schedule(
            sim::usToTicks(_rng.exponential(1e6 / _qps)), [this] {
                if (_sys.eq().now() >= _stopAt)
                    return;
                const sim::Tick t0 = _sys.eq().now();
                auto remaining = std::make_shared<int>(4);
                auto done = [this, remaining,
                             t0](const proto::RpcMessage &) {
                    if (--*remaining > 0)
                        return;
                    _e2e.record(_sys.eq().now() - t0);
                };
                const unsigned targets[4] = {2, 0, 1, 3};
                for (unsigned i = 0; i < 4; ++i) {
                    std::vector<std::uint8_t> req(
                        kSpecs[targets[i]].reqBytes);
                    _feClients[i]->callAsync(kProcess, req.data(),
                                             req.size(), done);
                }
                issue();
            });
    }

    /** Per-hop RTT as seen by the front-end for tier index 0..3. */
    sim::Histogram &hopRtt(unsigned i) { return _feClients[i]->latency(); }
    sim::Histogram &e2e() { return _e2e; }

  private:
    rpc::DaggerSystem _sys;
    rpc::CpuSet _cpus;
    sim::Rng _rng;
    std::array<std::unique_ptr<svc::Tier>, svc::kSnTiers> _tiers;
    rpc::DaggerNode *_feNode;
    std::array<std::unique_ptr<RpcClient>, 4> _feClients;
    RpcClient *_textToUm;
    RpcClient *_textToUrl;
    sim::Histogram _e2e;
    double _qps = 0;
    sim::Tick _stopAt = 0;
};

/**
 * Everything the report needs from one side's run.  The TCP scenario
 * fills net/app; the Dagger scenario fills hop_rtt; both fill
 * e2e_p50_us.
 */
struct SideResult
{
    std::array<double, svc::kSnTiers> net{};
    std::array<double, svc::kSnTiers> app{};
    std::array<double, 4> hop_rtt{};
    double e2e_p50_us = 0;
};

constexpr double kQps = 200;

SideResult
runTcp()
{
    svc::SocialNet tcp;
    tcp.run(kQps, sim::msToTicks(400));
    SideResult r;
    for (unsigned t = 0; t < svc::kSnTiers; ++t) {
        const auto &b = tcp.tierBreakdown(t);
        r.net[t] = b.transport.mean() + b.rpc.mean();
        r.app[t] = b.app.mean();
    }
    r.e2e_p50_us = sim::ticksToUs(tcp.e2eLatency().percentile(50));
    return r;
}

SideResult
runDagger()
{
    SnOverDagger dagger;
    dagger.run(kQps, sim::msToTicks(400));
    SideResult r;
    for (unsigned i = 0; i < 4; ++i)
        r.hop_rtt[i] = dagger.hopRtt(i).mean();
    r.e2e_p50_us = sim::ticksToUs(dagger.e2e().percentile(50));
    return r;
}

void
run(BenchContext &ctx)
{
    ctx.seed(0x536e44);
    ctx.config("qps", kQps);
    ctx.config("measure_ms", 400.0);

    std::vector<std::function<SideResult()>> scenarios = {
        [] { return runTcp(); },
        [] { return runDagger(); },
    };
    const std::vector<SideResult> sides =
        ctx.runner().run(std::move(scenarios));
    const SideResult &tcp = sides[0];
    const SideResult &dag = sides[1];

    tableHeader("Extension: Social Network tiers over kernel TCP vs "
                "over Dagger (QPS=200)",
                "tier           net share over TCP    net share over "
                "Dagger");

    // Networking share = (tier latency - app compute) / tier latency.
    // TCP side: from the served breakdown.  Dagger side: from the
    // front-end's per-hop RTT minus the tier's compute.
    const unsigned fe_slot_of_tier[svc::kSnTiers] = {1, 2, 0, 3, 9, 9};
    double tcp_user_share = 0, dagger_user_share = 0;
    for (unsigned t = 0; t < svc::kSnTiers; ++t) {
        const double net_tcp = tcp.net[t];
        const double share_tcp = net_tcp / (net_tcp + tcp.app[t]);

        double share_dagger = -1;
        if (fe_slot_of_tier[t] < 4) {
            const double rtt = dag.hop_rtt[fe_slot_of_tier[t]];
            const double app = static_cast<double>(kSpecs[t].compute) +
                (t == 3 ? static_cast<double>(
                              std::max(kSpecs[4].compute,
                                       kSpecs[5].compute))
                        : 0.0);
            share_dagger = std::max(0.0, (rtt - app) / rtt);
        }
        if (t == 1) {
            tcp_user_share = share_tcp;
            dagger_user_share = share_dagger;
        }
        if (share_dagger >= 0) {
            std::printf("%-15s %16.0f%% %22.0f%%\n", svc::snTierName(t),
                        100 * share_tcp, 100 * share_dagger);
            ctx.point()
                .tag("tier", svc::snTierName(t))
                .value("tcp_net_share_pct", 100 * share_tcp)
                .value("dagger_net_share_pct", 100 * share_dagger);
        } else {
            std::printf("%-15s %16.0f%% %22s\n", svc::snTierName(t),
                        100 * share_tcp, "(nested)");
            ctx.point()
                .tag("tier", svc::snTierName(t))
                .value("tcp_net_share_pct", 100 * share_tcp);
        }
    }

    const double tcp_e2e = tcp.e2e_p50_us;
    const double dagger_e2e = dag.e2e_p50_us;
    std::printf("e2e p50: %.0f us over TCP vs %.0f us over Dagger "
                "(%.2fx)\n",
                tcp_e2e, dagger_e2e, tcp_e2e / dagger_e2e);
    ctx.point()
        .tag("tier", "e2e")
        .value("tcp_p50_us", tcp_e2e)
        .value("dagger_p50_us", dagger_e2e)
        .value("speedup_x", tcp_e2e / dagger_e2e);

    ctx.check("User tier: networking-dominated over TCP (~70%+)",
              tcp_user_share > 0.6);
    ctx.check("User tier: networking share collapses over Dagger",
              dagger_user_share < 0.35 &&
                  dagger_user_share < tcp_user_share / 2);
    ctx.check("end-to-end latency improves over Dagger",
              dagger_e2e < 0.98 * tcp_e2e);

    ctx.anchor("tcp_user_net_share_pct", 80.0, 100 * tcp_user_share,
               0.35);
}

} // namespace

DAGGER_BENCH_MAIN("ext_socialnet_on_dagger", run)
