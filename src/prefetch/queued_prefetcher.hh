/**
 * @file queued_prefetcher.hh
 * Shared base for prefetchers whose trigger logic feeds a FIFO of
 * candidate block addresses (next-line, MANA). The base owns the
 * queue and the issue path: each tick the head is translated, probed
 * against the L1-I tags, and issued into the prefetch buffer (or the
 * L1-I) until the queue drains, the head waits on a page walk, or the
 * hierarchy has no resource to spare. Quiescence and idle charging
 * follow from the same state, so a scheme built on this base gets
 * tick/skip parity without code of its own.
 *
 * Counters, under the scheme's prefix: tlb_dropped, tlb_wait_stalls,
 * already_cached, issue_stalls, issued, redundant.
 */

#ifndef FDIP_PREFETCH_QUEUED_PREFETCHER_HH
#define FDIP_PREFETCH_QUEUED_PREFETCHER_HH

#include <deque>
#include <string>

#include "prefetch/prefetcher.hh"

namespace fdip
{

class QueuedPrefetcher : public Prefetcher
{
  public:
    void tick(Cycle now) final;
    Cycle nextEventCycle(Cycle now) const final;
    void chargeIdleCycles(Cycle now, Cycle cycles) final;

  protected:
    /**
     * @param prefix stat-name prefix ("nlp", "mana")
     * @param queue_entries pending-queue size; 0 is rejected
     * @param fill_into_l1 ablation: fill the L1-I, not the prefetch
     *        buffer
     */
    QueuedPrefetcher(MemHierarchy &mem, const std::string &prefix,
                     std::size_t queue_entries, bool fill_into_l1);

    /** What enqueue() did with a candidate. */
    enum class Enqueued
    {
        Duplicate,     ///< already queued; nothing changed
        Added,         ///< appended
        DroppedOldest, ///< appended after dropping the full queue's head
    };

    /** Queue @p vaddr unless already queued; a full queue drops its
     *  oldest candidate to make room. */
    Enqueued enqueue(Addr vaddr);

    MemHierarchy &mem;

  private:
    struct Cand
    {
        Addr vaddr = invalidAddr;
        /** Issue-time translation state (VM runs only). */
        PfTranslationState tr;
    };

    StatSet::Counter stTlbDropped;
    StatSet::Counter stTlbWaitStalls;
    StatSet::Counter stAlreadyCached;
    StatSet::Counter stIssueStalls;
    StatSet::Counter stIssued;
    StatSet::Counter stRedundant;

    std::size_t capacity;
    FillDest dest;
    std::deque<Cand> pending;
};

} // namespace fdip

#endif // FDIP_PREFETCH_QUEUED_PREFETCHER_HH
