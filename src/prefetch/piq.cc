#include "prefetch/piq.hh"

#include "common/logging.hh"

namespace fdip
{

Piq::Piq(std::size_t capacity)
    : q(capacity)
{}

void
Piq::push(Addr block_addr)
{
    panic_if(full(), "push to full PIQ");
    PiqEntry e;
    e.blockAddr = block_addr;
    q.push(e);
    ++unprobed_;
    stEnqueued.inc();
}

void
Piq::popFront()
{
    if (!q.front().probed_)
        --unprobed_;
    q.pop();
}

void
Piq::removeAt(std::size_t i)
{
    // The PIQ is small; compact by shifting (hardware uses a CAM).
    panic_if(i >= q.size(), "PIQ removeAt out of range");
    if (!q.at(i).probed_)
        --unprobed_;
    for (std::size_t k = i; k + 1 < q.size(); ++k)
        q.at(k) = q.at(k + 1);
    q.truncate(q.size() - 1);
    stRemoved.inc();
}

void
Piq::markProbed(std::size_t i)
{
    PiqEntry &e = q.at(i);
    if (!e.probed_) {
        e.probed_ = true;
        --unprobed_;
    }
}

bool
Piq::contains(Addr block_addr) const
{
    for (std::size_t i = 0; i < q.size(); ++i) {
        if (q.at(i).blockAddr == block_addr)
            return true;
    }
    return false;
}

void
Piq::flush()
{
    stFlushedEntries.inc(q.size());
    q.clear();
    unprobed_ = 0;
}

} // namespace fdip
