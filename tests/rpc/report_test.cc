/**
 * @file
 * Report tests: the JSON report exports every registered metric,
 * detail counters included, under its hierarchical name.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "rpc/client.hh"
#include "rpc/report.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;
using sim::usToTicks;

struct ReportRig
{
    ReportRig() : sys(ic::IfaceKind::Upi), cpus(sys.eq(), 2)
    {
        nic::NicConfig cfg;
        cfg.numFlows = 2;
        cnode = &sys.addNode(cfg);
        snode = &sys.addNode(cfg);
        client = std::make_unique<RpcClient>(*cnode, 0,
                                             cpus.core(0).thread(0));
        client->setConnection(sys.connect(*cnode, 0, *snode, 0));
        server = std::make_unique<RpcThreadedServer>(*snode);
        server->addThread(0, cpus.core(1).thread(0));
        server->registerHandler(1, [](const proto::RpcMessage &req) {
            HandlerOutcome out;
            out.response = req.payload();
            out.cost = sim::nsToTicks(20);
            return out;
        });
    }

    void
    traffic(int n)
    {
        for (int i = 0; i < n; ++i) {
            std::uint64_t v = static_cast<std::uint64_t>(i);
            client->callPod(1, v);
        }
        sys.eq().runFor(usToTicks(300));
    }

    DaggerSystem sys;
    CpuSet cpus;
    DaggerNode *cnode;
    DaggerNode *snode;
    std::unique_ptr<RpcClient> client;
    std::unique_ptr<RpcThreadedServer> server;
};

TEST(Report, JsonExportsHiddenDetailMetrics)
{
    ReportRig rig;
    rig.traffic(5);
    const std::string json = reportSystemJson(rig.sys);
    EXPECT_NE(json.find("\"time_us\""), std::string::npos);
    EXPECT_NE(json.find("\"node0.nic.rpcs_out\""), std::string::npos);
    EXPECT_NE(json.find("\"tor.forwarded\""), std::string::npos);
    // Per-port, per-ring and batch-size detail is exported too.
    EXPECT_NE(json.find("\"node0.nic.post_batch\""), std::string::npos);
    EXPECT_NE(json.find("\"fabric.port0.fetch_txns\""), std::string::npos);
    EXPECT_NE(json.find("\"node0.flow1.tx.pushed_frames\""),
              std::string::npos);
    // Histograms export the full summary object.
    EXPECT_NE(json.find("\"node0.nic.fetch_batch\": {\"count\""),
              std::string::npos);
}

} // namespace
