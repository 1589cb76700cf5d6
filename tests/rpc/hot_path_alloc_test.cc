/**
 * @file
 * Allocation gates for the RPC hot path and for store set-up.
 *
 * Calls, frames and CCI-P completions live in storage that grows to
 * the work in flight and is then reused, the way Dagger's rings and
 * request buffer recycle entries through free FIFOs (§4.4).  This
 * binary replaces the global operator new/delete with counting
 * versions built on malloc/free, so a change that brings a per-RPC or
 * per-frame heap allocation back fails here, in every build preset
 * (the sanitizers intercept malloc underneath).
 *
 * The set-up gates hold the Flight app and its MICA stores to a cost
 * that grows with the records stored, not with the capacity reserved:
 * a per-record key or a per-set cache vector fails them.
 *
 * Counting covers only simulation steps and construction; no gtest
 * code runs while the counter is read.
 */

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "app/adapters.hh"
#include "app/mica.hh"
#include "rpc/testbed.hh"
#include "svc/flight.hh"

namespace {

std::atomic<std::uint64_t> gAllocs{0};

void *
countedAlloc(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dagger;
using namespace dagger::rpc;

/** One client flow over @p ring-entry rings, echoed after 10 ns. */
TestbedConfig
echoConfig(std::size_t ring)
{
    TestbedConfig cfg;
    cfg.txRingEntries = ring;
    cfg.rxRingEntries = ring;
    cfg.handler = echoHandler(sim::nsToTicks(10));
    return cfg;
}

/**
 * Closed-loop echo over UPI: one client flow keeps @p window calls in
 * flight, the server echoes the payload back.
 */
class EchoLoop
{
  public:
    EchoLoop(std::size_t payload, unsigned window, std::size_t ring,
             RetryPolicy retry = {})
        : _tb(echoConfig(ring)), _buf(payload)
    {
        _tb.client().setRetryPolicy(retry);
        for (std::size_t i = 0; i < payload; ++i)
            _buf[i] = static_cast<std::uint8_t>(i * 7 + 1);
        for (unsigned w = 0; w < window; ++w)
            issue();
    }

    /** Run until @p n more calls have completed. */
    void
    complete(std::uint64_t n)
    {
        const std::uint64_t target = _completed + n;
        while (_completed < target)
            _tb.system().runFor(sim::usToTicks(5));
    }

    std::uint64_t completed() const { return _completed; }
    std::uint64_t mismatches() const { return _mismatches; }
    RpcClient &client() { return _tb.client(); }
    DaggerSystem &system() { return _tb.system(); }

  private:
    void
    issue()
    {
        _tb.client().callAsync(
            kEchoFn, _buf.data(), _buf.size(),
            [this](const proto::RpcMessage &m) { done(m); });
    }

    void
    done(const proto::RpcMessage &m)
    {
        ++_completed;
        if (!(m.payload() == _buf))
            ++_mismatches;
        issue();
    }

    Testbed _tb;
    std::vector<std::uint8_t> _buf;
    std::uint64_t _completed = 0;
    std::uint64_t _mismatches = 0;
};

/**
 * Calls completed before counting.  Besides the RPC path's own
 * storage, every one of the event queue's 4096 timing-wheel buckets
 * keeps its vector and grows it to the most events it has ever held
 * at once; those maxima settle after about 80k calls of this loop.
 */
constexpr std::uint64_t kWarmup = 100000;

/** Heap allocations made while @p work runs. */
template <typename Work>
std::uint64_t
allocsIn(Work &&work)
{
    const std::uint64_t before = gAllocs.load(std::memory_order_relaxed);
    work();
    return gAllocs.load(std::memory_order_relaxed) - before;
}

/** Heap allocations made while @p loop completes @p n more calls. */
std::uint64_t
allocsOver(EchoLoop &loop, std::uint64_t n)
{
    return allocsIn([&] { loop.complete(n); });
}

TEST(HotPathAlloc, SmallEchoSteadyStateAllocatesNothing)
{
    // A 64 B RPC: 48 B of payload fill one cache-line frame.
    EchoLoop loop(proto::kFramePayload, 96, 512);
    loop.complete(kWarmup);
    const std::uint64_t allocs = allocsOver(loop, 10000);
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(loop.mismatches(), 0u);
}

TEST(HotPathAlloc, RetryPolicyWithoutLossAllocatesNothing)
{
    RetryPolicy retry;
    retry.timeout = sim::usToTicks(50);
    retry.maxRetries = 3;
    EchoLoop loop(proto::kFramePayload, 96, 512, retry);
    loop.complete(kWarmup);
    const std::uint64_t allocs = allocsOver(loop, 10000);
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(loop.client().retriesSent(), 0u);
    EXPECT_EQ(loop.client().timeouts(), 0u);
    EXPECT_EQ(loop.mismatches(), 0u);
}

TEST(HotPathAlloc, OpenLoopAllocationsDoNotGrowWithCompletions)
{
    // Testbed::offer's calls carry no continuation; such a response is
    // counted and dropped, so a run twice as long must not allocate per
    // extra completion.  What a fresh testbed still allocates late in
    // a run is the event queue's wheel buckets reaching new maxima
    // under Poisson bursts: about 0.06 per extra completion here.  A
    // container that keeps each response (one 512 B block per five
    // 88 B messages) adds 0.2 more.
    auto run = [](sim::Tick measure, std::uint64_t &responses) {
        Testbed tb(echoConfig(512));
        const std::uint64_t allocs = allocsIn(
            [&] { tb.offer(6.0, sim::msToTicks(1), measure); });
        responses = tb.client().responses();
        return allocs;
    };
    std::uint64_t short_done = 0, long_done = 0;
    const std::uint64_t short_allocs = run(sim::msToTicks(2), short_done);
    const std::uint64_t long_allocs = run(sim::msToTicks(4), long_done);
    ASSERT_GT(long_done, short_done + 10000);
    const double per_extra =
        (static_cast<double>(long_allocs) -
         static_cast<double>(short_allocs)) /
        static_cast<double>(long_done - short_done);
    EXPECT_LT(per_extra, 0.1)
        << "2 ms: " << short_allocs << " allocs for " << short_done
        << " responses, 4 ms: " << long_allocs << " for " << long_done;
}

TEST(HotPathAlloc, BulkEchoAllocationsDoNotGrowWithFrames)
{
    // 2 KB (43 frames) against 4 KB (86 frames).  What remains per RPC
    // is per message — the request's payload buffer and reassembly
    // state — so doubling the frames must not add allocations.
    constexpr std::uint64_t kCalls = 2000;
    EchoLoop small(2048, 8, 2048);
    EchoLoop large(4096, 8, 2048);
    small.complete(2000);
    large.complete(2000);
    const double per_small =
        static_cast<double>(allocsOver(small, kCalls)) / kCalls;
    const double per_large =
        static_cast<double>(allocsOver(large, kCalls)) / kCalls;
    EXPECT_LE(per_large, per_small + 0.5)
        << "2 KB: " << per_small << " allocs/RPC, 4 KB: " << per_large;
    EXPECT_EQ(small.mismatches(), 0u);
    EXPECT_EQ(large.mismatches(), 0u);
}

/** Events executed and calls completed over one simulated window. */
struct WindowCount
{
    std::uint64_t events = 0;
    std::uint64_t completions = 0;
};

/** Counts while @p loop runs @p window more simulated time. */
WindowCount
countOver(EchoLoop &loop, sim::Tick window)
{
    const std::uint64_t e0 = loop.system().eventsExecuted();
    const std::uint64_t c0 = loop.completed();
    loop.system().runFor(window);
    return {loop.system().eventsExecuted() - e0, loop.completed() - c0};
}

// The event gates: the simulation is deterministic, so the events and
// completions of a fixed steady-state window are exact numbers, in
// every build type.  The event counts are the bound a change may only
// lower; one that adds an event per RPC, or per frame, fails here.

TEST(HotPathEvents, SmallEchoEventsPerWindowAreExact)
{
    EchoLoop loop(proto::kFramePayload, 96, 512);
    loop.system().runFor(sim::msToTicks(1)); // warm-up
    const WindowCount n = countOver(loop, sim::msToTicks(1));
    EXPECT_EQ(n.completions, 12346u);
    EXPECT_EQ(n.events, 160492u); // 13.0 per RPC
    EXPECT_EQ(loop.mismatches(), 0u);
}

TEST(HotPathEvents, BulkEchoEventsPerWindowAreExact)
{
    EchoLoop loop(4096, 8, 2048);
    loop.system().runFor(sim::msToTicks(1)); // warm-up
    const WindowCount n = countOver(loop, sim::msToTicks(1));
    EXPECT_EQ(n.completions, 417u);
    EXPECT_EQ(n.events, 115142u); // 276.1 per RPC
    EXPECT_EQ(loop.mismatches(), 0u);
}

TEST(SetupAlloc, FlightAppCostsNoAllocationPerRecord)
{
    // The Optimized storm configuration.  Construction pre-seeds 200k
    // Citizens records and builds two MICA stores with their LLC
    // models; none of that may cost an allocation per record or per
    // cache set.
    svc::FlightConfig cfg;
    cfg.model = svc::ThreadingModel::Optimized;
    cfg.checkinLegBudget = sim::msToTicks(1);
    cfg.checkinLegRetries = 2;
    cfg.flightShedQueue = 64;
    std::unique_ptr<svc::FlightApp> app;
    const std::uint64_t allocs =
        allocsIn([&] { app = std::make_unique<svc::FlightApp>(cfg); });
    EXPECT_LE(allocs, 1000u);
}

TEST(SetupAlloc, MicaStoreAndBackendCostAFewAllocations)
{
    // The Citizens store: a 32 MB log, 2^16 index buckets and a 2^18
    // item LLC model.
    std::unique_ptr<app::MicaKvs> store;
    std::unique_ptr<app::MicaBackend> backend;
    const std::uint64_t allocs = allocsIn([&] {
        store = std::make_unique<app::MicaKvs>(1, 32u << 20, 1u << 16);
        backend = std::make_unique<app::MicaBackend>(*store);
    });
    EXPECT_LE(allocs, 8u);
}

} // namespace
