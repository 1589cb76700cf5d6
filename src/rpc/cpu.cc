#include "rpc/cpu.hh"

#include "sim/logging.hh"

namespace dagger::rpc {

CpuCore::CpuCore(EventQueue &eq, double smt_penalty)
    : _eq(eq), _smtPenalty(smt_penalty)
{
    dagger_assert(smt_penalty >= 1.0, "SMT penalty must be >= 1.0");
    for (unsigned i = 0; i < _threads.size(); ++i) {
        _threads[i]._core = this;
        _threads[i]._index = i;
    }
}

HwThread &
CpuCore::thread(unsigned i)
{
    dagger_assert(i < _threads.size(), "bad hw thread ", i);
    return _threads[i];
}

double
CpuCore::utilization(Tick window) const
{
    if (window == 0)
        return 0.0;
    const Tick busy = _threads[0]._busyTicks + _threads[1]._busyTicks;
    const double u = static_cast<double>(busy) / static_cast<double>(window);
    return u > 1.0 ? 1.0 : u;
}

bool
HwThread::idle() const
{
    return _busyUntil <= _core->_eq.now();
}

void
HwThread::execute(Tick cost, EventFn fn)
{
    EventQueue &eq = _core->_eq;
    const Tick start = std::max(eq.now(), _busyUntil);
    // SMT contention: if the sibling hardware thread is busy past our
    // start time, this slice runs slower.
    const HwThread &sibling = _core->_threads[_index ^ 1];
    Tick effective = cost;
    if (sibling._busyUntil > start) {
        effective = static_cast<Tick>(
            static_cast<double>(cost) * _core->_smtPenalty);
    }
    _busyUntil = start + effective;
    _busyTicks += effective;
    eq.scheduleAt(_busyUntil, std::move(fn), sim::Priority::Software);
}

CpuSet::CpuSet(EventQueue &eq, unsigned cores, double smt_penalty)
{
    dagger_assert(cores >= 1, "CpuSet needs cores");
    _cores.reserve(cores);
    for (unsigned i = 0; i < cores; ++i)
        _cores.push_back(std::make_unique<CpuCore>(eq, smt_penalty));
}

CpuCore &
CpuSet::core(unsigned i)
{
    dagger_assert(i < _cores.size(), "bad core ", i);
    return *_cores[i];
}

HwThread &
CpuSet::logicalThread(unsigned t)
{
    dagger_assert(t / 2 < _cores.size(), "logical thread ", t,
                  " exceeds core count");
    return _cores[t / 2]->thread(t % 2);
}

} // namespace dagger::rpc
