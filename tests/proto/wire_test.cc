/**
 * @file
 * Wire-format tests: frame layout, multi-frame split/reassembly,
 * checksum detection, reassembler state machine.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "proto/wire.hh"

namespace {

using namespace dagger::proto;

RpcMessage
makeMsg(std::size_t len, ConnId conn = 3, RpcId rpc = 9, FnId fn = 2,
        MsgType type = MsgType::Request)
{
    std::string payload(len, '\0');
    for (std::size_t i = 0; i < len; ++i)
        payload[i] = static_cast<char>('a' + i % 26);
    return RpcMessage(conn, rpc, fn, type, payload.data(), payload.size());
}

TEST(Wire, FrameModelsOneCacheLine)
{
    // The in-memory Frame is a header plus a payload *view*; what it
    // models on the wire is still one 64-byte cache line.
    EXPECT_EQ(Frame::kWireBytes, kCacheLineBytes);
    EXPECT_EQ(sizeof(FrameHeader), kHeaderBytes);
    EXPECT_EQ(kFramePayload, 48u);
    EXPECT_EQ(kHeaderBytes + kFramePayload, kCacheLineBytes);
}

TEST(Wire, EmptyPayloadUsesOneFrame)
{
    RpcMessage m = makeMsg(0);
    EXPECT_EQ(m.frameCount(), 1u);
    EXPECT_EQ(m.wireBytes(), 64u);
}

TEST(Wire, FrameCountMatchesPayloadSize)
{
    EXPECT_EQ(makeMsg(1).frameCount(), 1u);
    EXPECT_EQ(makeMsg(48).frameCount(), 1u);
    EXPECT_EQ(makeMsg(49).frameCount(), 2u);
    EXPECT_EQ(makeMsg(96).frameCount(), 2u);
    EXPECT_EQ(makeMsg(97).frameCount(), 3u);
    EXPECT_EQ(makeMsg(580).frameCount(), 13u); // Text-service median RPC
}

TEST(Wire, RoundTripSingleFrame)
{
    RpcMessage m = makeMsg(32);
    auto frames = m.toFrames();
    ASSERT_EQ(frames.size(), 1u);
    RpcMessage out;
    ASSERT_TRUE(RpcMessage::fromFrames(frames, out));
    EXPECT_EQ(out.connId(), m.connId());
    EXPECT_EQ(out.rpcId(), m.rpcId());
    EXPECT_EQ(out.fnId(), m.fnId());
    EXPECT_EQ(out.type(), MsgType::Request);
    EXPECT_EQ(out.payload(), m.payload());
}

TEST(Wire, RoundTripMultiFrame)
{
    for (std::size_t len : {49u, 100u, 512u, 1500u}) {
        RpcMessage m = makeMsg(len);
        RpcMessage out;
        ASSERT_TRUE(RpcMessage::fromFrames(m.toFrames(), out)) << len;
        EXPECT_EQ(out.payload(), m.payload()) << len;
    }
}

TEST(Wire, ChecksumDetectsCorruption)
{
    RpcMessage m = makeMsg(100);
    auto frames = m.toFrames();
    frames[1].corruptPayloadByte(5);
    RpcMessage out;
    EXPECT_FALSE(RpcMessage::fromFrames(frames, out));
}

TEST(Wire, RejectsFrameCountMismatch)
{
    RpcMessage m = makeMsg(100);
    auto frames = m.toFrames();
    frames.pop_back();
    RpcMessage out;
    EXPECT_FALSE(RpcMessage::fromFrames(frames, out));
}

TEST(Wire, RejectsShuffledFrames)
{
    RpcMessage m = makeMsg(100);
    auto frames = m.toFrames();
    std::swap(frames[0], frames[1]);
    RpcMessage out;
    EXPECT_FALSE(RpcMessage::fromFrames(frames, out));
}

TEST(Wire, PayloadAsPodRoundTrip)
{
    struct Pod
    {
        std::uint32_t a;
        std::uint64_t b;
    } in{7, 1234567890123ull};
    auto m = RpcMessage::ofPod(1, 2, 3, MsgType::Response, in);
    Pod out{};
    ASSERT_TRUE(m.payloadAs(out));
    EXPECT_EQ(out.a, in.a);
    EXPECT_EQ(out.b, in.b);
    std::uint16_t wrong = 0;
    EXPECT_FALSE(m.payloadAs(wrong));
}

TEST(Reassembler, SingleFrameFastPath)
{
    Reassembler r;
    RpcMessage m = makeMsg(40), out;
    ASSERT_TRUE(r.push(m.toFrames()[0], out));
    EXPECT_EQ(out.payload(), m.payload());
    EXPECT_EQ(r.inFlight(), 0u);
}

TEST(Reassembler, MultiFrameCompletesOnLastFrame)
{
    Reassembler r;
    RpcMessage m = makeMsg(130), out;
    auto frames = m.toFrames();
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_FALSE(r.push(frames[0], out));
    EXPECT_EQ(r.inFlight(), 1u);
    EXPECT_FALSE(r.push(frames[1], out));
    ASSERT_TRUE(r.push(frames[2], out));
    EXPECT_EQ(out.payload(), m.payload());
    EXPECT_EQ(r.inFlight(), 0u);
}

TEST(Reassembler, InterleavedMessagesFromDifferentRpcs)
{
    Reassembler r;
    RpcMessage a = makeMsg(96, 1, 1); // exactly two frames each
    RpcMessage b = makeMsg(96, 1, 2);
    auto fa = a.toFrames(), fb = b.toFrames();
    RpcMessage out;
    EXPECT_FALSE(r.push(fa[0], out));
    EXPECT_FALSE(r.push(fb[0], out));
    EXPECT_EQ(r.inFlight(), 2u);
    ASSERT_TRUE(r.push(fa[1], out));
    EXPECT_EQ(out.rpcId(), 1u);
    ASSERT_TRUE(r.push(fb[1], out));
    EXPECT_EQ(out.rpcId(), 2u);
}

TEST(Reassembler, OutOfSequenceFrameDropsPartial)
{
    Reassembler r;
    RpcMessage m = makeMsg(130), out;
    auto frames = m.toFrames();
    EXPECT_FALSE(r.push(frames[0], out));
    EXPECT_FALSE(r.push(frames[2], out)); // skipped frame 1
    EXPECT_EQ(r.malformed(), 1u);
    EXPECT_EQ(r.inFlight(), 0u);
}

TEST(Reassembler, RequestAndResponseWithSameIdsDoNotCollide)
{
    Reassembler r;
    RpcMessage req = makeMsg(100, 5, 5, 1, MsgType::Request);
    RpcMessage rsp = makeMsg(100, 5, 5, 1, MsgType::Response);
    RpcMessage out;
    EXPECT_FALSE(r.push(req.toFrames()[0], out));
    EXPECT_FALSE(r.push(rsp.toFrames()[0], out));
    EXPECT_EQ(r.inFlight(), 2u);
}

TEST(Reassembler, RetransmissionAfterTailLossIsDeliveredFirstTime)
{
    // A 5-frame message loses its tail frame; the sender then resends
    // the whole message.  The resend's frame 0 restarts the stale
    // partial, so the first retransmission is delivered.
    Reassembler r;
    RpcMessage m = makeMsg(230), out;
    auto frames = m.toFrames();
    ASSERT_EQ(frames.size(), 5u);
    for (std::size_t i = 0; i + 1 < frames.size(); ++i)
        EXPECT_FALSE(r.push(frames[i], out));
    EXPECT_EQ(r.inFlight(), 1u);

    std::size_t delivered = 0;
    for (const Frame &f : m.toFrames())
        delivered += r.push(f, out) ? 1 : 0;
    EXPECT_EQ(delivered, 1u);
    EXPECT_EQ(out.payload(), m.payload());
    EXPECT_EQ(r.malformed(), 1u); // the stale partial, counted once
    EXPECT_EQ(r.inFlight(), 0u);
}

TEST(Reassembler, RestartKeepsOtherMessagesUnderAssembly)
{
    Reassembler r;
    RpcMessage a = makeMsg(130, 1, 1), b = makeMsg(130, 1, 2), out;
    auto fa = a.toFrames(), fb = b.toFrames();
    EXPECT_FALSE(r.push(fa[0], out));
    EXPECT_FALSE(r.push(fb[0], out));
    EXPECT_FALSE(r.push(fa[1], out));
    // a's frame 0 again: only a restarts.
    EXPECT_FALSE(r.push(fa[0], out));
    EXPECT_EQ(r.malformed(), 1u);
    EXPECT_EQ(r.inFlight(), 2u);
    EXPECT_FALSE(r.push(fb[1], out));
    ASSERT_TRUE(r.push(fb[2], out));
    EXPECT_EQ(out.rpcId(), 2u);
    EXPECT_FALSE(r.push(fa[1], out));
    ASSERT_TRUE(r.push(fa[2], out));
    EXPECT_EQ(out.payload(), a.payload());
    EXPECT_EQ(r.inFlight(), 0u);
}

TEST(Reassembler, RepeatedFirstFrameRestartsEachTime)
{
    // Only frame 0 restarts; every abandoned partial counts once.
    Reassembler r;
    RpcMessage m = makeMsg(100), out;
    auto frames = m.toFrames();
    EXPECT_FALSE(r.push(frames[0], out));
    EXPECT_FALSE(r.push(frames[0], out));
    EXPECT_FALSE(r.push(frames[0], out));
    EXPECT_EQ(r.malformed(), 2u);
    EXPECT_FALSE(r.push(frames[1], out));
    ASSERT_TRUE(r.push(frames[2], out));
    EXPECT_EQ(out.payload(), m.payload());
}

} // namespace
