/**
 * @file
 * Property tests for the zero-copy payload path (proto::PayloadBuf /
 * proto::PayloadView):
 *
 *  - inline <-> heap storage boundary at kFramePayload (48 B)
 *  - handle-pass vs byte-copy accounting across the boundary, counted
 *    per thread
 *  - frame checksums over views byte-equal to the owned-array oracle
 *    (the pre-refactor Frame kept a private 48 B payload array)
 *  - buffer lifetime under out-of-order Reassembler completion
 *  - copy-on-write corruption isolating duplicates from originals
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "proto/wire.hh"

namespace {

using namespace dagger::proto;

std::vector<std::uint8_t>
patternBytes(std::size_t len, std::uint8_t seed = 0)
{
    std::vector<std::uint8_t> v(len);
    for (std::size_t i = 0; i < len; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 7 + 3);
    return v;
}

TEST(PayloadBuf, InlineHeapBoundaryAtFramePayload)
{
    for (std::size_t len : {47u, 48u, 49u}) {
        const auto bytes = patternBytes(len);
        PayloadBuf buf(bytes.data(), bytes.size());
        EXPECT_EQ(buf.size(), len);
        EXPECT_EQ(buf.inlined(), len <= kFramePayload) << len;
        EXPECT_EQ(buf.heapUseCount(), len <= kFramePayload ? 0 : 1) << len;
        EXPECT_TRUE(buf == bytes) << len;
    }
    EXPECT_TRUE(PayloadBuf().inlined());
}

TEST(PayloadBuf, CopyIsHandlePassNotByteCopy)
{
    const auto bytes = patternBytes(1024);
    PayloadBuf buf(bytes.data(), bytes.size());

    const PayloadStats before = payloadStats();
    PayloadBuf copy(buf);
    const PayloadStats after = payloadStats();

    EXPECT_EQ(after.bytesCopied, before.bytesCopied);
    EXPECT_EQ(after.handlePasses, before.handlePasses + 1);
    EXPECT_TRUE(copy.sharesBufferWith(buf));
    EXPECT_EQ(buf.heapUseCount(), 2);
}

TEST(PayloadBuf, InlineCopiesAreIndependentHandles)
{
    const auto bytes = patternBytes(48);
    PayloadBuf buf(bytes.data(), bytes.size());
    PayloadBuf copy(buf);
    // Inline payloads ride in the handle itself: equal bytes, no
    // shared heap block.
    EXPECT_TRUE(copy == buf);
    EXPECT_FALSE(copy.sharesBufferWith(buf));
    EXPECT_EQ(copy.heapUseCount(), 0);
}

TEST(PayloadBuf, ConstructionCountsBytesOnce)
{
    const auto bytes = patternBytes(300);
    const PayloadStats before = payloadStats();
    PayloadBuf buf(bytes.data(), bytes.size());
    const PayloadStats after = payloadStats();
    EXPECT_EQ(after.bytesCopied, before.bytesCopied + 300);
}

TEST(PayloadBuf, CopyCountersArePerThread)
{
    // Under --jobs N each scenario runs on its own worker thread, so a
    // system's sim.payload.* gauges must not count another thread's
    // copies.
    const auto bytes = patternBytes(300);
    const PayloadStats before = payloadStats();
    std::uint64_t workerDelta = 0;
    std::thread worker([&] {
        const PayloadStats start = payloadStats();
        PayloadBuf buf(bytes.data(), bytes.size());
        workerDelta = payloadStats().bytesCopied - start.bytesCopied;
    });
    worker.join();
    const PayloadStats after = payloadStats();
    EXPECT_EQ(workerDelta, 300u);
    EXPECT_EQ(after.bytesCopied, before.bytesCopied);
    EXPECT_EQ(after.handlePasses, before.handlePasses);
}

/**
 * Oracle: the pre-refactor frame checksum, computed over an owned
 * 48-byte zero-padded array exactly as the seed implementation did
 * (sum seeded with the low byte of frameIdx, xor of live bytes).
 */
std::uint8_t
oracleChecksum(const Frame &f)
{
    std::uint8_t owned[kFramePayload] = {};
    for (std::size_t i = 0; i < kFramePayload; ++i)
        owned[i] = f.payloadByte(i); // wire bytes, zero-padded
    std::uint8_t sum = static_cast<std::uint8_t>(f.header.frameIdx);
    const std::size_t n = f.liveBytes();
    for (std::size_t i = 0; i < n; ++i)
        sum ^= owned[i];
    return sum;
}

TEST(Frame, ViewChecksumMatchesOwnedArrayOracle)
{
    for (std::size_t len : {0u, 1u, 47u, 48u, 49u, 96u, 97u, 580u, 4096u}) {
        const auto bytes = patternBytes(len, 0x5a);
        RpcMessage m(7, 11, 2, MsgType::Request, bytes.data(), bytes.size());
        for (const Frame &f : m.toFrames()) {
            EXPECT_EQ(f.computeChecksum(), oracleChecksum(f))
                << len << " idx " << f.header.frameIdx;
            EXPECT_EQ(f.header.checksum, oracleChecksum(f))
                << len << " idx " << f.header.frameIdx;
            EXPECT_TRUE(f.verifyChecksum());
        }
    }
}

TEST(Frame, MaxPayloadSpans1366Frames)
{
    // Regression for the widened 16-bit frameIdx: the largest payload
    // the wire format admits round-trips (the seed format capped
    // multi-frame RPCs at 255 frames / 12240 B).
    const auto bytes = patternBytes(kMaxPayloadBytes, 0x21);
    RpcMessage m(1, 2, 3, MsgType::Request, bytes.data(), bytes.size());
    EXPECT_EQ(m.frameCount(), 1366u);
    auto frames = m.toFrames();
    EXPECT_EQ(frames.back().header.frameIdx, 1365u);
    RpcMessage out;
    ASSERT_TRUE(RpcMessage::fromFrames(frames, out));
    EXPECT_TRUE(out.payload() == bytes);
    // Handle identity end to end: reassembly adopted the buffer.
    EXPECT_TRUE(out.payload().sharesBufferWith(m.payload()));
}

TEST(Reassembler, BufferOutlivesSourceMessage)
{
    // Frames keep the payload alive through the refcount: destroy the
    // source message mid-assembly and complete from the frames alone.
    Reassembler r;
    const auto bytes = patternBytes(130, 0x33);
    std::vector<Frame> frames;
    {
        RpcMessage m(3, 9, 1, MsgType::Request, bytes.data(), bytes.size());
        frames = m.toFrames();
    } // m destroyed; only the frames' views hold the buffer now
    ASSERT_EQ(frames.size(), 3u);
    RpcMessage out;
    EXPECT_FALSE(r.push(frames[0], out));
    EXPECT_FALSE(r.push(frames[1], out));
    ASSERT_TRUE(r.push(frames[2], out));
    EXPECT_TRUE(out.payload() == bytes);
}

TEST(Reassembler, InterleavedCompletionAdoptsEachBuffer)
{
    // Two messages assembling out of lockstep: each completion must
    // adopt *its own* buffer (pointer identity), and the refcounts
    // must drop back once the reassembler's partials clear.
    Reassembler r;
    const auto ba = patternBytes(96, 0x01);
    const auto bb = patternBytes(96, 0x80);
    RpcMessage a(1, 1, 0, MsgType::Request, ba.data(), ba.size());
    RpcMessage b(1, 2, 0, MsgType::Request, bb.data(), bb.size());
    auto fa = a.toFrames(), fb = b.toFrames();

    const long base_a = a.payload().heapUseCount();
    RpcMessage out;
    EXPECT_FALSE(r.push(fa[0], out));
    EXPECT_FALSE(r.push(fb[0], out));
    // The buffered partial holds a reference beyond the local frames.
    EXPECT_GT(a.payload().heapUseCount(), base_a);

    ASSERT_TRUE(r.push(fb[1], out));
    EXPECT_EQ(out.rpcId(), 2u);
    EXPECT_TRUE(out.payload().sharesBufferWith(b.payload()));
    EXPECT_FALSE(out.payload().sharesBufferWith(a.payload()));

    ASSERT_TRUE(r.push(fa[1], out));
    EXPECT_EQ(out.rpcId(), 1u);
    EXPECT_TRUE(out.payload().sharesBufferWith(a.payload()));
    EXPECT_EQ(r.inFlight(), 0u);

    // out + a's own handle + a's local frames (2 views): releasing out
    // must return the count to what the locals account for.
    out = RpcMessage();
    EXPECT_EQ(a.payload().heapUseCount(), base_a);
}

TEST(Frame, CorruptOnDuplicateLeavesOriginalIntact)
{
    const auto bytes = patternBytes(100, 0x44);
    RpcMessage m(5, 6, 7, MsgType::Request, bytes.data(), bytes.size());
    auto frames = m.toFrames();
    auto dup = frames; // in-flight duplicate: handle passes, no copies

    dup[1].corruptPayloadByte(5);

    // The duplicate is detectably damaged...
    EXPECT_FALSE(dup[1].verifyChecksum());
    // ...the original — the sender's retransmission copy — is not.
    EXPECT_TRUE(frames[1].verifyChecksum());
    EXPECT_EQ(frames[1].payloadByte(5),
              static_cast<std::uint8_t>(dup[1].payloadByte(5) ^ 0xff));
    RpcMessage out;
    ASSERT_TRUE(RpcMessage::fromFrames(frames, out));
    EXPECT_TRUE(out.payload() == bytes);
    EXPECT_FALSE(RpcMessage::fromFrames(dup, out));
}

TEST(Frame, HandBuiltFramesGatherWithCopyAccounting)
{
    // Frames that do not share one source buffer (hand-built, e.g. by
    // tests or future hardware reassembly) fall back to a gather that
    // is *counted* as a byte copy.
    const auto bytes = patternBytes(96, 0x19);
    RpcMessage m(2, 4, 6, MsgType::Request, bytes.data(), bytes.size());
    auto frames = m.toFrames();
    // Rebuild frame 1's bytes privately so the buffers differ.
    std::uint8_t tmp[kFramePayload];
    for (std::size_t i = 0; i < frames[1].liveBytes(); ++i)
        tmp[i] = frames[1].payloadByte(i);
    frames[1].setPayload(tmp, frames[1].liveBytes());
    frames[1].header.checksum = frames[1].computeChecksum();

    const PayloadStats before = payloadStats();
    RpcMessage out;
    ASSERT_TRUE(RpcMessage::fromFrames(frames, out));
    const PayloadStats after = payloadStats();
    EXPECT_TRUE(out.payload() == bytes);
    EXPECT_FALSE(out.payload().sharesBufferWith(m.payload()));
    EXPECT_EQ(after.bytesCopied, before.bytesCopied + bytes.size());
}

} // namespace
