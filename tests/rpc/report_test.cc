/**
 * @file
 * Report tests: the JSON report exports every registered metric,
 * detail counters included, under its hierarchical name.
 */

#include <gtest/gtest.h>

#include <string>

#include "rpc/report.hh"
#include "rpc/testbed.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;
using sim::usToTicks;

TEST(Report, JsonExportsHiddenDetailMetrics)
{
    TestbedConfig cfg;
    cfg.clientFlows = 2;
    cfg.serverFlows = 2;
    cfg.handler = echoHandler(sim::nsToTicks(20));
    Testbed rig(cfg);
    for (int i = 0; i < 5; ++i) {
        std::uint64_t v = static_cast<std::uint64_t>(i);
        rig.client().callPod(kEchoFn, v);
    }
    rig.system().runFor(usToTicks(300));
    const std::string json = reportSystemJson(rig.system());
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
