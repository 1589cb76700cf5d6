/**
 * @file
 * CPU model tests: serialization on a hardware thread, SMT penalty,
 * logical-thread placement.
 */

#include <gtest/gtest.h>

#include "rpc/cpu.hh"
#include "sim/event_queue.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;
using sim::EventQueue;
using sim::nsToTicks;
using sim::Tick;

TEST(CpuCore, WorkSerializesOnOneThread)
{
    EventQueue eq;
    CpuCore core(eq);
    std::vector<Tick> done;
    core.thread(0).execute(nsToTicks(100), [&] { done.push_back(eq.now()); });
    core.thread(0).execute(nsToTicks(100), [&] { done.push_back(eq.now()); });
    eq.runAll();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], nsToTicks(100));
    EXPECT_EQ(done[1], nsToTicks(200));
}

TEST(CpuCore, SiblingsContendViaSmtPenalty)
{
    EventQueue eq;
    CpuCore core(eq, 1.6);
    Tick t0_done = 0, t1_done = 0;
    core.thread(0).execute(nsToTicks(100), [&] { t0_done = eq.now(); });
    core.thread(1).execute(nsToTicks(100), [&] { t1_done = eq.now(); });
    eq.runAll();
    // Thread 0 issued first with an idle sibling: full speed.
    EXPECT_EQ(t0_done, nsToTicks(100));
    // Thread 1 overlaps thread 0: 1.6x slower.
    EXPECT_EQ(t1_done, nsToTicks(160));
}

TEST(CpuCore, NoContentionWhenSequential)
{
    EventQueue eq;
    CpuCore core(eq, 1.6);
    Tick t1_done = 0;
    core.thread(0).execute(nsToTicks(100), [&] {});
    eq.runAll();
    core.thread(1).execute(nsToTicks(100), [&] { t1_done = eq.now(); });
    eq.runAll();
    EXPECT_EQ(t1_done, nsToTicks(200));
}

TEST(CpuCore, UtilizationAccounting)
{
    EventQueue eq;
    CpuCore core(eq);
    core.thread(0).execute(nsToTicks(300), [] {});
    eq.runAll();
    EXPECT_NEAR(core.utilization(nsToTicks(600)), 0.5, 1e-9);
}

TEST(CpuSet, LogicalThreadPlacementMatchesPaper)
{
    EventQueue eq;
    CpuSet cpus(eq, 4);
    // "4 threads on 2 physical cores": threads 0,1 on core 0; 2,3 on 1.
    EXPECT_EQ(&cpus.logicalThread(0), &cpus.core(0).thread(0));
    EXPECT_EQ(&cpus.logicalThread(1), &cpus.core(0).thread(1));
    EXPECT_EQ(&cpus.logicalThread(2), &cpus.core(1).thread(0));
    EXPECT_EQ(&cpus.logicalThread(7), &cpus.core(3).thread(1));
}

TEST(CpuSetDeath, TooManyLogicalThreads)
{
    EventQueue eq;
    CpuSet cpus(eq, 2);
    EXPECT_DEATH(cpus.logicalThread(4), "exceeds core count");
}

TEST(HwThread, IdleReflectsBusyUntil)
{
    EventQueue eq;
    CpuCore core(eq);
    EXPECT_TRUE(core.thread(0).idle());
    core.thread(0).execute(nsToTicks(50), [] {});
    EXPECT_FALSE(core.thread(0).idle());
    eq.runAll();
    EXPECT_TRUE(core.thread(0).idle());
}

} // namespace
