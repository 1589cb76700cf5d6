/**
 * @file
 * Registry snapshots, per-layer values, percentiles and span
 * statistics shared by the workloads.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "perfbench.hh"

namespace perfbench {

using dagger::sim::Histogram;
using dagger::sim::MetricRegistry;

std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

void
Rep::mix(std::string_view name, double v)
{
    auto byte = [this](unsigned char c) {
        digest ^= c;
        digest *= 0x100000001b3ull;
    };
    for (char c : name)
        byte(static_cast<unsigned char>(c));
    byte(0);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i)
        byte(static_cast<unsigned char>(bits >> (8 * i)));
}

Snapshot
snapshot(const MetricRegistry &reg)
{
    Snapshot s;
    for (const MetricRegistry::Entry &e : reg.entries()) {
        switch (e.kind) {
        case MetricRegistry::Kind::Counter:
            s[e.name] = static_cast<double>(e.counter->value());
            break;
        case MetricRegistry::Kind::IntGauge:
            s[e.name] = static_cast<double>(e.intGauge());
            break;
        case MetricRegistry::Kind::Gauge:
            s[e.name] = e.gauge();
            break;
        case MetricRegistry::Kind::Histogram:
            s[e.name + ".count"] =
                static_cast<double>(e.histogram->count());
            s[e.name + ".sum"] = e.histogram->mean() *
                static_cast<double>(e.histogram->count());
            break;
        case MetricRegistry::Kind::Section:
            break;
        }
    }
    return s;
}

double
sumOf(const Snapshot &s, std::string_view prefix, std::string_view suffix)
{
    double sum = 0;
    for (const auto &[name, v] : s)
        if (name.size() >= prefix.size() + suffix.size() &&
            std::string_view(name).starts_with(prefix) &&
            std::string_view(name).ends_with(suffix))
            sum += v;
    return sum;
}

Snapshot
delta(const Snapshot &before, const Snapshot &after)
{
    Snapshot d;
    for (const auto &[name, v] : after) {
        auto it = before.find(name);
        d[name] = v - (it == before.end() ? 0.0 : it->second);
    }
    return d;
}

void
mixSnapshot(Rep &rep, const Snapshot &d)
{
    for (const auto &[name, v] : d)
        rep.mix(name, v);
}

namespace {

double
ratio(double num, double den)
{
    return den == 0 ? kNotApplicable : num / den;
}

double
get(const Snapshot &s, const std::string &name)
{
    auto it = s.find(name);
    return it == s.end() ? 0.0 : it->second;
}

} // namespace

void
layerValues(Values &out, const Snapshot &d, const Snapshot &after,
            double reqs, double windowTicks)
{
    const double events = get(d, "events_executed");
    const double hits = get(d, "sim.events.pool_hits");
    const double misses = get(d, "sim.events.pool_misses");
    out.emplace_back("sim.events_per_req", ratio(events, reqs));
    out.emplace_back("sim.pool_miss_rate", ratio(misses, hits + misses));
    out.emplace_back("sim.far_admit_frac",
                     ratio(get(d, "sim.events.frame_admits") +
                               get(d, "sim.events.heap_admits"),
                           events));
    out.emplace_back("sim.max_pending", get(after, "sim.events.max_pending"));

    const double lines =
        get(d, "fabric.to_nic.lines") + get(d, "fabric.to_host.lines");
    const double txns =
        get(d, "fabric.to_nic.txns") + get(d, "fabric.to_host.txns");
    out.emplace_back("ic.lines_per_req", ratio(lines, reqs));
    out.emplace_back("ic.txns_per_req", ratio(txns, reqs));
    out.emplace_back("ic.lines_per_txn", ratio(lines, txns));
    out.emplace_back("ic.to_nic_util",
                     ratio(get(d, "fabric.to_nic.busy_ticks"), windowTicks));
    out.emplace_back("ic.to_host_util",
                     ratio(get(d, "fabric.to_host.busy_ticks"), windowTicks));
    out.emplace_back("ic.stalls_per_req",
                     ratio(sumOf(d, "fabric.port", ".stalls"), reqs));

    const double batches = sumOf(d, "node", ".nic.fetch_batch.count");
    const double cc_hits = sumOf(d, "node", ".nic.conn_cache.hits");
    const double cc_miss = sumOf(d, "node", ".nic.conn_cache.misses");
    const double hcc_hits = sumOf(d, "node", ".nic.hcc.hits");
    const double hcc_miss = sumOf(d, "node", ".nic.hcc.misses");
    out.emplace_back("nic.frames_per_req",
                     ratio(sumOf(d, "node", ".nic.frames_fetched"), reqs));
    out.emplace_back("nic.fetch_batch_mean",
                     ratio(sumOf(d, "node", ".nic.fetch_batch.sum"),
                           batches));
    out.emplace_back("nic.timeout_flush_frac",
                     ratio(sumOf(d, "node", ".nic.timeout_flushes"),
                           batches));
    out.emplace_back("nic.drops_per_req",
                     ratio(sumOf(d, "node", ".nic.drops_no_slot") +
                               sumOf(d, "node", ".nic.drops_no_connection") +
                               sumOf(d, "node", ".nic.malformed"),
                           reqs));
    out.emplace_back("nic.conn_cache_hit_rate",
                     ratio(cc_hits, cc_hits + cc_miss));
    out.emplace_back("nic.hcc_hit_rate", ratio(hcc_hits, hcc_hits + hcc_miss));
    out.emplace_back("nic.req_buffer_rejections",
                     sumOf(d, "node", ".nic.req_buffer.rejections"));

    out.emplace_back("net.forwarded_per_req",
                     ratio(get(d, "tor.forwarded"), reqs));
    out.emplace_back("net.dropped", get(d, "tor.dropped"));

    out.emplace_back("proto.bytes_copied_per_req",
                     ratio(get(d, "sim.payload.bytes_copied"), reqs));
    out.emplace_back("proto.handle_passes_per_req",
                     ratio(get(d, "sim.payload.handle_passes"), reqs));

    out.emplace_back("rpc.tx_blocked_per_req",
                     ratio(sumOf(d, "node", ".tx.blocked"), reqs));
    out.emplace_back("rpc.rx_drops", sumOf(d, "node", ".rx.drops"));
    out.emplace_back("rpc.retries_per_req",
                     ratio(get(d, "rpc.reliability.retries"), reqs));
    out.emplace_back("rpc.timeouts", get(d, "rpc.reliability.timeouts"));
    out.emplace_back("rpc.spurious_arms",
                     get(d, "rpc.reliability.spurious_arms"));
    out.emplace_back("rpc.resend_drops",
                     get(d, "rpc.reliability.resend_drops"));
    out.emplace_back("rpc.late_responses",
                     get(d, "rpc.reliability.late_responses"));
    out.emplace_back("svc.rpcs_per_req",
                     ratio(sumOf(d, "node", ".nic.rpcs_out"), reqs));
}

void
checkConservation(Rep &rep, dagger::rpc::DaggerSystem &sys)
{
    for (std::size_t n = 0; n < sys.numNodes(); ++n) {
        dagger::rpc::DaggerNode &node = sys.node(n);
        for (unsigned f = 0; f < node.numFlows(); ++f) {
            const dagger::rpc::TxRing &tx = node.flow(f).tx;
            const std::string who = "node" + std::to_string(n) + ".flow" +
                std::to_string(f) + ": ";
            rep.check(tx.pushedFrames() ==
                          tx.poppedFrames() + tx.pendingFrames(),
                      who + "TX pushed == popped + pending");
            rep.check(tx.pendingFrames() <= tx.used() &&
                          tx.used() <= tx.capacity(),
                      who + "TX pending <= used <= capacity");
        }
    }
    const Snapshot s = snapshot(sys.metrics());
    const double drops = sumOf(s, "node", ".nic.drops_no_slot") +
        sumOf(s, "node", ".nic.drops_no_connection") +
        sumOf(s, "node", ".nic.malformed") + get(s, "tor.dropped");
    rep.check(sumOf(s, "node", ".nic.rpcs_out") ==
                  sumOf(s, "node", ".nic.rpcs_in") + drops,
              "NIC rpcs_out == rpcs_in + drops with nothing in flight");
}

std::uint64_t
exactPercentile(std::vector<std::uint64_t> &samples, double p)
{
    if (samples.empty())
        return 0;
    const double exact = p / 100.0 * static_cast<double>(samples.size());
    auto rank = static_cast<std::size_t>(std::ceil(exact));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

double
interpPercentile(const Histogram &h, double p)
{
    const std::uint64_t n = h.count();
    if (n == 0)
        return 0;
    const double exact = p / 100.0 * static_cast<double>(n);
    auto rank = static_cast<std::uint64_t>(std::ceil(exact));
    rank = std::clamp<std::uint64_t>(rank, 1, n);
    // Bucket representative of the sample at 1-based rank r.
    auto at = [&h, n](std::uint64_t r) {
        return h.percentile(100.0 * (static_cast<double>(r) - 0.5) /
                            static_cast<double>(n));
    };
    const std::uint64_t mid = at(rank);
    if (mid < Histogram::kSubBuckets)
        return static_cast<double>(mid); // unit-wide buckets are exact
    // Ranks [first, last] share this bucket.
    std::uint64_t lo = 1, hi = rank;
    while (lo < hi) {
        const std::uint64_t m = lo + (hi - lo) / 2;
        if (at(m) < mid)
            lo = m + 1;
        else
            hi = m;
    }
    const std::uint64_t first = lo;
    lo = rank;
    hi = n;
    while (lo < hi) {
        const std::uint64_t m = lo + (hi - lo + 1) / 2;
        if (at(m) > mid)
            hi = m - 1;
        else
            lo = m;
    }
    const std::uint64_t last = lo;
    // A bucket of width 2^s has its midpoint at lo + 2^(s-1), with the
    // midpoint's top bit at s + kSubBucketBits.
    const int shift = std::bit_width(mid) - 1 - Histogram::kSubBucketBits;
    if (shift <= 0)
        return static_cast<double>(mid);
    const double width = std::ldexp(1.0, shift);
    const double bucket_lo = static_cast<double>(mid) - width / 2;
    return bucket_lo + width * (static_cast<double>(rank - first) + 0.5) /
        static_cast<double>(last - first + 1);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                     v.end());
    const double upper = v[mid];
    if (v.size() % 2 == 1)
        return upper;
    const double lower = *std::max_element(
        v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    return (lower + upper) / 2;
}

void
spanValues(Values &out, const SpanLog &log)
{
    const std::vector<Span> &spans = log.spans();
    // Host ns covered by each span's direct children.
    std::vector<std::uint64_t> child(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end - s.start;

    // Which spans sit inside a measured region (a runFor or runStorm).
    std::vector<char> measured(spans.size(), 0);
    std::vector<double> issue, handler, complete;
    double region = 0, region_self = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const bool top = s.kind == SpanKind::Run || s.kind == SpanKind::Storm;
        measured[i] = top ||
            (s.parent >= 0 && measured[static_cast<std::size_t>(s.parent)]);
        if (!measured[i])
            continue;
        const double dur = static_cast<double>(s.end - s.start);
        const double self = dur - static_cast<double>(child[i]);
        switch (s.kind) {
        case SpanKind::Run:
        case SpanKind::Storm:
            region += dur;
            region_self += self;
            break;
        case SpanKind::Issue: issue.push_back(dur); break;
        case SpanKind::Handler: handler.push_back(dur); break;
        case SpanKind::Complete: complete.push_back(self); break;
        case SpanKind::Setup:
        case SpanKind::Drain: break;
        }
    }
    auto med = [](std::vector<double> &v) {
        return v.empty() ? kNotApplicable : median(std::move(v));
    };
    out.emplace_back("rpc.issue_host_ns", med(issue));
    out.emplace_back("rpc.complete_host_ns", med(complete));
    out.emplace_back("app.handler_host_ns", med(handler));
    out.emplace_back("host.run_self_frac", ratio(region_self, region));
}

} // namespace perfbench
