#include "nic/ack_protocol.hh"

#include "nic/dagger_nic.hh"
#include "sim/logging.hh"

namespace dagger::nic {

void
AckProtocol::attach(DaggerNic &nic)
{
    _nic = &nic;
}

// ------------------------------ egress ------------------------------

void
AckProtocol::trackEgress(net::Packet &pkt)
{
    const std::uint32_t conn = pkt.frames.front().header.connId;
    pkt.th.seq = ++_txSeq[conn];
    pkt.th.ackCum = 0;
    pkt.th.reliable = true;
    const Key key{conn, pkt.th.seq};
    Pending entry;
    entry.pkt = pkt; // keep a retransmission copy
    _pending[key] = std::move(entry);
    armTimer(key);
}

bool
AckProtocol::onEgress(net::Packet &pkt)
{
    dagger_assert(_nic, "AckProtocol not attached");
    dagger_assert(!pkt.frames.empty(), "empty packet");
    if (_mtuFrames > 0 && pkt.frames.size() > _mtuFrames) {
        // Fragment into independently sequenced wire packets so a
        // single lost fragment retransmits alone.  Frames already
        // carry (payloadLen, frameIdx), so the receiver can reassemble
        // from any packetization.
        for (std::size_t off = 0; off < pkt.frames.size();
             off += _mtuFrames) {
            net::Packet frag;
            frag.dst = pkt.dst;
            const std::size_t end =
                std::min(off + _mtuFrames, pkt.frames.size());
            frag.frames.assign(pkt.frames.begin() + off,
                               pkt.frames.begin() + end);
            trackEgress(frag);
            _nic->protocolEgress(std::move(frag));
        }
        return false; // swallowed: fragments went out instead
    }
    trackEgress(pkt);
    return true; // forward to the wire
}

void
AckProtocol::armTimer(const Key &key)
{
    auto expire = [this, key] {
        auto it = _pending.find(key);
        if (it == _pending.end())
            return; // acked in the meantime
        if (it->second.retries >= _maxRetries) {
            ++_lost;
            _pending.erase(it);
            return;
        }
        ++it->second.retries;
        ++_retransmissions;
        _nic->protocolEgress(it->second.pkt); // resend a copy
        armTimer(key);
    };
    // One timer per in-flight packet: `this` plus the 8-byte Key must
    // stay within EventClosure's inline buffer.
    static_assert(sim::EventClosure::fitsInline<decltype(expire)>());
    _nic->eventQueue().schedule(_timeout, std::move(expire));
}

// ------------------------------ ingress ------------------------------

void
AckProtocol::sendAck(const net::Packet &data)
{
    // An ACK is a single control frame mirroring the data headers,
    // marked with the reserved fnId.  The transport header carries the
    // acknowledged sequence plus this side's cumulative receive point.
    net::Packet ack;
    ack.dst = data.src;
    ack.th.seq = data.th.seq;
    ack.th.ackCum = _rx[data.frames.front().header.connId].cum;
    ack.th.reliable = true;
    proto::Frame f;
    f.header = data.frames.front().header;
    f.header.fnId = kAckFn;
    f.header.frameIdx = 0;
    f.header.payloadLen = 0;
    f.header.checksum = f.computeChecksum();
    ack.frames.push_back(f);
    ++_acksSent;
    _nic->protocolEgress(std::move(ack));
}

void
AckProtocol::onAck(const net::Packet &ack)
{
    const std::uint32_t conn = ack.frames.front().header.connId;
    bool cleared = _pending.erase(Key{conn, ack.th.seq}) > 0;
    // Cumulative part: everything at or below ackCum on this
    // connection has been delivered; reclaim those entries too (their
    // own ACKs may have been lost).  Erasure order over the unordered
    // map is irrelevant: the surviving set is order-independent.
    if (ack.th.ackCum > 0) {
        for (auto it = _pending.begin(); it != _pending.end();) {
            if (it->first.conn == conn && it->first.seq <= ack.th.ackCum) {
                it = _pending.erase(it);
                cleared = true;
            } else {
                ++it;
            }
        }
    }
    if (cleared)
        ++_acksReceived;
}

bool
AckProtocol::admitSeq(std::uint32_t conn, std::uint32_t seq)
{
    RxConn &rx = _rx[conn];
    if (seq <= rx.cum || rx.ooo.count(seq))
        return false; // already delivered
    if (seq == rx.cum + 1) {
        rx.cum = seq;
        // Collapse any buffered successors into the cumulative point.
        while (rx.ooo.count(rx.cum + 1)) {
            rx.ooo.erase(rx.cum + 1);
            ++rx.cum;
        }
        return true;
    }
    rx.ooo.insert(seq);
    if (rx.ooo.size() > kDedupWindow) {
        // Bound receiver state: advance cum past the oldest gap.  The
        // skipped seqs are treated as delivered (the sender sees them
        // cum-ACKed and stops retrying) — the same trade a hardware
        // dedup CAM of fixed depth would make.
        auto first = rx.ooo.begin();
        rx.cum = *first;
        rx.ooo.erase(first);
        while (rx.ooo.count(rx.cum + 1)) {
            rx.ooo.erase(rx.cum + 1);
            ++rx.cum;
        }
    }
    return true;
}

bool
AckProtocol::reassemble(net::Packet &pkt)
{
    const proto::FrameHeader &h0 = pkt.frames.front().header;
    if (h0.frameCount() == pkt.frames.size())
        return true; // whole message in one packet
    const FragKey fk{h0.connId, h0.rpcId,
                     static_cast<std::uint8_t>(h0.type)};
    FragBuf &buf = _frags[fk];
    for (proto::Frame &f : pkt.frames)
        buf.byIdx[f.header.frameIdx] = std::move(f);
    if (buf.byIdx.size() < h0.frameCount())
        return false; // still missing fragments
    // Complete: rebuild the packet with frames in index order (the
    // map is ordered by frameIdx) and release the buffer.
    pkt.frames.clear();
    pkt.frames.reserve(buf.byIdx.size());
    for (auto &[idx, f] : buf.byIdx)
        pkt.frames.push_back(std::move(f));
    _frags.erase(fk);
    return true;
}

bool
AckProtocol::onIngress(net::Packet &pkt)
{
    dagger_assert(_nic, "AckProtocol not attached");
    const bool is_ack = pkt.frames.size() == 1 &&
        pkt.frames.front().header.fnId == kAckFn;
    if (is_ack) {
        if (_dropNextAcks > 0) {
            --_dropNextAcks;
            return false; // simulated ACK loss
        }
        onAck(pkt);
        return false; // consumed; never reaches the RPC pipeline
    }
    if (_dropNext > 0) {
        --_dropNext;
        return false; // simulated wire loss: no delivery, no ACK
    }
    if (!pkt.th.reliable)
        return true; // peer runs no protocol; pass through untouched
    // Integrity gate before the ACK: a corrupted frame must look like
    // a loss to the sender, so it retransmits a clean copy.
    for (const proto::Frame &f : pkt.frames) {
        if (!f.verifyChecksum()) {
            ++_corruptDropped;
            return false;
        }
    }
    if (!admitSeq(pkt.frames.front().header.connId, pkt.th.seq)) {
        // Duplicate (our ACK was lost or slow): re-ACK so the sender
        // stops retrying, but never re-deliver to the RPC pipeline.
        sendAck(pkt);
        ++_dupSuppressed;
        return false;
    }
    sendAck(pkt);
    return reassemble(pkt);
}

} // namespace dagger::nic
