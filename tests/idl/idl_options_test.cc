/**
 * @file
 * IDL extension tests: `option` statements (namespace, fn_base) and
 * one-way `returns(void)` rpcs, including a full-stack run of a
 * generated-equivalent one-way service.
 */

#include <gtest/gtest.h>

#include "idl/codegen.hh"
#include "idl/parser.hh"
#include "rpc/testbed.hh"

namespace {

using namespace dagger;
using namespace dagger::idl;

const char *kTelemetryIdl = R"(
option namespace = telemetry;
option fn_base = 100;

Message Sample {
    uint64 sensor;
    float64 value;
}
Message FlushRequest {
    uint32 epoch;
}
Message FlushResponse {
    uint32 epoch;
    uint32 accepted;
}

Service Telemetry {
    rpc report(Sample) returns(void);
    rpc flush(FlushRequest) returns(FlushResponse);
}
)";

TEST(IdlOptions, ParsesOptions)
{
    IdlFile f = parse(kTelemetryIdl);
    EXPECT_EQ(f.options.at("namespace"), "telemetry");
    EXPECT_EQ(f.options.at("fn_base"), "100");
}

TEST(IdlOptions, FnBaseOffsetsFunctionIds)
{
    IdlFile f = parse(kTelemetryIdl);
    ASSERT_EQ(f.services.size(), 1u);
    EXPECT_EQ(f.services[0].rpcs[0].fnId, 101u);
    EXPECT_EQ(f.services[0].rpcs[1].fnId, 102u);
}

TEST(IdlOptions, OneWayRpcDetected)
{
    IdlFile f = parse(kTelemetryIdl);
    EXPECT_TRUE(f.services[0].rpcs[0].oneWay);
    EXPECT_FALSE(f.services[0].rpcs[1].oneWay);
}

TEST(IdlOptions, NamespaceOptionUsedWhenCliSilent)
{
    IdlFile f = parse(kTelemetryIdl);
    CodegenOptions opts; // ns empty -> use the file option
    const std::string hdr = generateHeader(f, opts);
    EXPECT_NE(hdr.find("namespace telemetry {"), std::string::npos);
}

TEST(IdlOptions, CliNamespaceOverridesFileOption)
{
    IdlFile f = parse(kTelemetryIdl);
    CodegenOptions opts;
    opts.ns = "forced";
    const std::string hdr = generateHeader(f, opts);
    EXPECT_NE(hdr.find("namespace forced {"), std::string::npos);
    EXPECT_EQ(hdr.find("namespace telemetry {"), std::string::npos);
}

TEST(IdlOptions, OneWayCodegenShape)
{
    IdlFile f = parse(kTelemetryIdl);
    const std::string hdr = generateHeader(f, {});
    // One-way client stub has no callback parameter and uses
    // callOneWay.
    EXPECT_NE(hdr.find("callOneWay"), std::string::npos);
    EXPECT_NE(hdr.find("void\n    report(const Sample &req)\n"),
              std::string::npos);
    // Skeleton result of a one-way rpc carries no response field.
    const auto pos = hdr.find("struct ReportResult");
    ASSERT_NE(pos, std::string::npos);
    const auto block = hdr.substr(pos, hdr.find("};", pos) - pos);
    EXPECT_EQ(block.find("response"), std::string::npos);
    EXPECT_NE(block.find("cost"), std::string::npos);
}

TEST(IdlOptions, UnknownOptionRejected)
{
    EXPECT_THROW(parse("option colour = red;"), IdlError);
}

TEST(IdlOptions, FnBaseMustBeNumeric)
{
    EXPECT_THROW(parse("option fn_base = lots;"), IdlError);
}

TEST(IdlOptions, VoidRequestTypeStillRejected)
{
    EXPECT_THROW(parse("Message A { int32 x; } "
                       "Service S { rpc f(void) returns(A); }"),
                 IdlError);
}

/** Full-stack: a hand-written equivalent of the generated one-way
 *  path, proving the runtime semantics behind `returns(void)`. */
TEST(IdlOptions, OneWayRuntimeSemantics)
{
    using namespace dagger::rpc;
    Testbed tb(TestbedConfig{});
    RpcClient &client = tb.client();

    std::uint64_t received = 0;
    tb.server().registerHandler(101, [&](const proto::RpcMessage &) {
        HandlerOutcome out;
        out.respond = false; // one-way
        out.cost = sim::nsToTicks(30);
        ++received;
        return out;
    });

    struct Sample
    {
        std::uint64_t sensor;
        double value;
    } s{7, 1.25};
    for (int i = 0; i < 25; ++i)
        client.callOneWay(101, &s, sizeof(s));
    tb.system().runFor(sim::usToTicks(200));

    EXPECT_EQ(received, 25u);
    EXPECT_EQ(client.pendingCalls(), 0u); // no tracking state kept
    EXPECT_EQ(client.responses(), 0u);
    EXPECT_EQ(client.orphanResponses(), 0u);
    // Silence: the server sent no response packets.
    EXPECT_EQ(tb.serverNode().nicDev().monitor().rpcsOut.value(), 0u);
}

} // namespace
