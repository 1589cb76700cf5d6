#include "proto/wire.hh"

namespace dagger::proto {

void
Frame::corruptPayloadByte(std::size_t i)
{
    const std::size_t n = liveBytes();
    std::uint8_t tmp[kFramePayload] = {};
    for (std::size_t j = 0; j < n; ++j)
        tmp[j] = view.byteAt(j);
    if (i < n)
        tmp[i] ^= 0xff;
    // PayloadBuf's copying constructor counts these <= 48 bytes: the
    // corrupt edge is one of the three sanctioned copy sites.
    view = PayloadView(PayloadBuf(tmp, n), 0, n);
}

void
Frame::setPayload(const void *src, std::size_t len)
{
    dagger_assert(len <= kFramePayload, "frame payload too large: ", len);
    view = PayloadView(PayloadBuf(src, len), 0, len);
}

RpcMessage::RpcMessage(ConnId conn, RpcId rpc, FnId fn, MsgType type,
                       const void *payload, std::size_t len)
    : _connId(conn), _rpcId(rpc), _fnId(fn), _type(type),
      _payload(payload, len)
{
    dagger_assert(len <= kMaxPayloadBytes, "RPC payload too large: ", len);
}

RpcMessage::RpcMessage(ConnId conn, RpcId rpc, FnId fn, MsgType type,
                       PayloadBuf payload)
    : _connId(conn), _rpcId(rpc), _fnId(fn), _type(type),
      _payload(std::move(payload))
{
    dagger_assert(_payload.size() <= kMaxPayloadBytes,
                  "RPC payload too large: ", _payload.size());
}

std::size_t
RpcMessage::frameCount() const
{
    if (_payload.empty())
        return 1;
    return (_payload.size() + kFramePayload - 1) / kFramePayload;
}

void
RpcMessage::writeFrame(std::size_t i, Frame &f) const
{
    f.header.connId = _connId;
    f.header.rpcId = _rpcId;
    f.header.fnId = _fnId;
    f.header.payloadLen = static_cast<std::uint16_t>(_payload.size());
    f.header.type = _type;
    f.header.frameIdx = static_cast<std::uint16_t>(i);
    const std::size_t off = i * kFramePayload;
    if (off < _payload.size()) {
        const std::size_t chunk =
            std::min(kFramePayload, _payload.size() - off);
        f.view = PayloadView(_payload, off, chunk);
    } else {
        f.view = PayloadView();
    }
    // Per-frame checksum so a receiver can validate each fragment of a
    // multi-packet RPC independently, before acknowledging.
    f.header.checksum = f.computeChecksum();
}

std::vector<Frame>
RpcMessage::toFrames() const
{
    const std::size_t n = frameCount();
    std::vector<Frame> frames(n);
    for (std::size_t i = 0; i < n; ++i)
        writeFrame(i, frames[i]);
    return frames;
}

namespace {

/**
 * True when @p frames all view the same payload buffer at exactly
 * their wire offsets — the invariant toFrames() establishes and every
 * handle-passing hop preserves.  Reassembly can then adopt the buffer
 * instead of gathering bytes.
 */
bool
framesCoverOneBuffer(const std::vector<Frame> &frames,
                     std::size_t payload_len)
{
    const PayloadBuf &buf = frames.front().view.buffer();
    if (buf.size() != payload_len)
        return false;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const Frame &f = frames[i];
        const std::size_t off = i * kFramePayload;
        const std::size_t chunk =
            std::min(kFramePayload, payload_len - off);
        if (f.view.offset() != off || f.view.size() != chunk)
            return false;
        // Multi-frame messages are > 48 B and therefore heap-backed,
        // so handle identity is heap-pointer identity.
        if (i > 0 && !f.view.buffer().sharesBufferWith(buf))
            return false;
    }
    return true;
}

} // namespace

bool
RpcMessage::framesConsistent(const std::vector<Frame> &frames)
{
    if (frames.empty())
        return false;
    const FrameHeader &h0 = frames.front().header;
    if (h0.frameCount() != frames.size())
        return false;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const Frame &f = frames[i];
        if (f.header.frameIdx != i || f.header.connId != h0.connId ||
            f.header.rpcId != h0.rpcId ||
            f.header.payloadLen != h0.payloadLen)
            return false;
    }
    return true;
}

bool
RpcMessage::validateFrames(const std::vector<Frame> &frames)
{
    if (!framesConsistent(frames))
        return false;
    for (const Frame &f : frames)
        if (!f.verifyChecksum())
            return false;
    return true;
}

bool
RpcMessage::fromFrames(const std::vector<Frame> &frames, RpcMessage &out)
{
    if (!validateFrames(frames))
        return false;
    const FrameHeader &h0 = frames.front().header;

    out._connId = h0.connId;
    out._rpcId = h0.rpcId;
    out._fnId = h0.fnId;
    out._type = h0.type;

    const std::size_t len = h0.payloadLen;
    if (len == 0) {
        out._payload = PayloadBuf();
        return true;
    }
    if (framesCoverOneBuffer(frames, len)) {
        // Zero-copy reassembly: every frame views the same buffer at
        // its wire offset, so the message re-adopts it whole.
        out._payload = frames.front().view.buffer();
        return true;
    }
    // Gather fallback: frames carry foreign or partial views (hand-
    // built tests, CoW-corrupted fragments that still checksum).
    std::vector<std::uint8_t> bytes(len);
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const std::size_t off = i * kFramePayload;
        const std::size_t chunk = std::min(kFramePayload, len - off);
        for (std::size_t j = 0; j < chunk; ++j)
            bytes[off + j] = frames[i].payloadByte(j);
    }
    detail::addBytesCopied(len);
    out._payload = PayloadBuf::adopt(std::move(bytes));
    return true;
}

bool
RpcMessage::fromFrame(const Frame &f, RpcMessage &out)
{
    const FrameHeader &h = f.header;
    if (h.frameCount() != 1 || h.frameIdx != 0)
        return false;
    if (!f.verifyChecksum())
        return false;
    out._connId = h.connId;
    out._rpcId = h.rpcId;
    out._fnId = h.fnId;
    out._type = h.type;
    const std::size_t len = h.payloadLen;
    if (len == 0) {
        out._payload = PayloadBuf();
        return true;
    }
    const PayloadBuf &buf = f.view.buffer();
    if (buf.size() == len && f.view.offset() == 0 && f.view.size() == len) {
        // Zero-copy: the view covers its buffer whole; re-adopt it.
        out._payload = buf;
        return true;
    }
    std::vector<std::uint8_t> bytes(len);
    for (std::size_t j = 0; j < len; ++j)
        bytes[j] = f.payloadByte(j);
    detail::addBytesCopied(len);
    out._payload = PayloadBuf::adopt(std::move(bytes));
    return true;
}

bool
Reassembler::push(Frame frame, RpcMessage &out)
{
    const FrameHeader &h = frame.header;
    if (h.frameCount() == 1) {
        // Fast path: single-line RPC, no state needed.
        if (RpcMessage::fromFrame(frame, out))
            return true;
        ++_malformed;
        return false;
    }
    const Key key{h.connId, h.rpcId, h.type};
    Partial &p = _partial[key];
    if (h.frameIdx == 0 && !p.frames.empty()) {
        // A fresh first frame for a message still under assembly: the
        // sender retransmitted it after losing part of the previous
        // copy.  The stale copy can never complete, so count it once
        // as malformed and restart from this frame, or the whole
        // retransmission would be thrown away frame by frame.
        ++_malformed;
        p.frames.clear();
    }
    if (p.frames.empty())
        p.frames.reserve(h.frameCount());
    if (frame.header.frameIdx != p.frames.size()) {
        // Out-of-sequence frame within a flow: the fabric preserves
        // per-flow FIFO order, so this indicates corruption.  Drop the
        // whole partial message.
        ++_malformed;
        _partial.erase(key);
        return false;
    }
    p.frames.push_back(std::move(frame));
    if (p.frames.size() < h.frameCount())
        return false;
    const bool ok = RpcMessage::fromFrames(p.frames, out);
    _partial.erase(key);
    if (!ok)
        ++_malformed;
    return ok;
}

} // namespace dagger::proto
