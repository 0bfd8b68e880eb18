#include "prefetch/queued_prefetcher.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fdip
{

QueuedPrefetcher::QueuedPrefetcher(MemHierarchy &mem_ref,
                                   const std::string &prefix,
                                   std::size_t queue_entries,
                                   bool fill_into_l1)
    : mem(mem_ref),
      stTlbDropped(stats.registerCounter(prefix + ".tlb_dropped")),
      stTlbWaitStalls(stats.registerCounter(prefix + ".tlb_wait_stalls")),
      stAlreadyCached(stats.registerCounter(prefix + ".already_cached")),
      stIssueStalls(stats.registerCounter(prefix + ".issue_stalls")),
      stIssued(stats.registerCounter(prefix + ".issued")),
      stRedundant(stats.registerCounter(prefix + ".redundant")),
      capacity(queue_entries),
      dest(fill_into_l1 ? FillDest::DemandL1 : FillDest::PrefetchBuffer)
{
    fatal_if(capacity == 0, "%s prefetch queue needs at least one entry",
             prefix.c_str());
}

QueuedPrefetcher::Enqueued
QueuedPrefetcher::enqueue(Addr vaddr)
{
    bool queued = std::any_of(
        pending.begin(), pending.end(),
        [vaddr](const Cand &c) { return c.vaddr == vaddr; });
    if (queued)
        return Enqueued::Duplicate;
    Enqueued result = Enqueued::Added;
    if (pending.size() >= capacity) {
        pending.pop_front();
        result = Enqueued::DroppedOldest;
    }
    Cand c;
    c.vaddr = vaddr;
    pending.push_back(c);
    return result;
}

Cycle
QueuedPrefetcher::nextEventCycle(Cycle now) const
{
    // An untranslated or ready head acts next cycle; a waiting head
    // wakes at its page-walk completion (kNever while the walk is
    // queued for a walker — the MMU's events cover the start).
    if (pending.empty())
        return kNever;
    return translationWakeCycle(pending.front().tr, now);
}

void
QueuedPrefetcher::chargeIdleCycles(Cycle now, Cycle cycles)
{
    if (!pending.empty() && translationWaiting(pending.front().tr))
        stTlbWaitStalls.inc(cycles);
}

void
QueuedPrefetcher::tick(Cycle now)
{
    while (!pending.empty()) {
        Cand &c = pending.front();
        switch (resolveTranslation(c.tr, c.vaddr, now)) {
          case TrResolve::Dropped:
            pending.pop_front();
            stTlbDropped.inc();
            continue;
          case TrResolve::Waiting:
            stTlbWaitStalls.inc();
            return; // head-of-line wait for the page walk
          case TrResolve::Ready:
            break;
        }
        // Do not waste bandwidth on blocks the cache already holds.
        if (mem.tagProbe(c.tr.paddr)) {
            pending.pop_front();
            stAlreadyCached.inc();
            continue;
        }
        auto result = mem.issuePrefetch(c.tr.paddr, now, dest);
        if (result == MemHierarchy::PfIssue::NoResource) {
            stIssueStalls.inc();
            return;
        }
        pending.pop_front();
        if (result == MemHierarchy::PfIssue::Issued)
            stIssued.inc();
        else
            stRedundant.inc();
    }
}

} // namespace fdip
