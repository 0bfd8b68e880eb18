/**
 * @file piq.hh
 * Prefetch Instruction Queue: FIFO of candidate cache-block addresses
 * awaiting prefetch issue, with per-entry probe state for the
 * remove-variant of cache probe filtering.
 */

#ifndef FDIP_PREFETCH_PIQ_HH
#define FDIP_PREFETCH_PIQ_HH

#include "common/circular_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "vm/mmu.hh"

namespace fdip
{

struct PiqEntry
{
    /** Candidate virtual block address from the FTQ scan. */
    Addr blockAddr = invalidAddr;
    /** Issue-time translation state (VM runs only). */
    PfTranslationState tr;

    /** Remove-CPF already verified this block misses in the L1. */
    bool probed() const { return probed_; }

  private:
    friend class Piq;
    /** Set only through Piq::markProbed(), which keeps the count. */
    bool probed_ = false;
};

class Piq
{
  public:
    explicit Piq(std::size_t capacity = 16);

    bool full() const { return q.full(); }
    bool empty() const { return q.empty(); }
    std::size_t size() const { return q.size(); }
    std::size_t capacity() const { return q.capacity(); }

    void push(Addr block_addr);
    PiqEntry &at(std::size_t i) { return q.at(i); }
    const PiqEntry &at(std::size_t i) const { return q.at(i); }
    PiqEntry &front() { return q.front(); }
    const PiqEntry &front() const { return q.front(); }
    void popFront();

    /** Remove entry @p i (probe said the block is already cached). */
    void removeAt(std::size_t i);

    /** Record that remove-CPF verified entry @p i misses in the L1. */
    void markProbed(std::size_t i);

    /** Number of queued entries not yet probed. */
    std::size_t unprobed() const { return unprobed_; }

    bool contains(Addr block_addr) const;

    void flush();

    StatSet stats;

  private:
    StatSet::Counter stEnqueued = stats.registerCounter("piq.enqueued");
    StatSet::Counter stRemoved = stats.registerCounter("piq.removed");
    StatSet::Counter stFlushedEntries =
        stats.registerCounter("piq.flushed_entries");

    CircularQueue<PiqEntry> q;
    std::size_t unprobed_ = 0;
};

} // namespace fdip

#endif // FDIP_PREFETCH_PIQ_HH
