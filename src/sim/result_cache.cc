#include "sim/result_cache.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include <algorithm>
#include <vector>

#include "common/build_id.hh"
#include "common/env.hh"
#include "common/fault.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "sim/report.hh"

namespace fdip
{

namespace
{

/** One "key value" line; values never contain spaces. */
void
kv(std::string &out, const char *key, const std::string &value)
{
    out += key;
    out += ' ';
    out += value;
    out += '\n';
}

std::string
u64str(std::uint64_t v)
{
    return strprintf("%llu", static_cast<unsigned long long>(v));
}

/** %.17g round-trips IEEE doubles exactly through strtod. */
std::string
dblstr(double v)
{
    return strprintf("%.17g", v);
}

/**
 * Line-oriented reader that enforces the fixed key order of the
 * entry format. Any deviation flags failure with a reason.
 */
class EntryReader
{
  public:
    explicit EntryReader(const std::string &text) : in(text) {}

    bool ok() const { return error.empty(); }
    const std::string &reason() const { return error; }

    void
    fail(const std::string &why)
    {
        if (error.empty())
            error = why;
    }

    /** Next line's value for @p key; "" and failure on mismatch. */
    std::string
    expect(const char *key)
    {
        if (!ok())
            return "";
        std::string line;
        if (!std::getline(in, line)) {
            fail(strprintf("truncated before '%s'", key));
            return "";
        }
        if (line == key)
            return ""; // key-only line (the "end" marker)
        std::size_t sep = line.find(' ');
        if (sep == std::string::npos || line.substr(0, sep) != key) {
            fail(strprintf("expected '%s', got '%s'", key,
                           line.c_str()));
            return "";
        }
        return line.substr(sep + 1);
    }

    std::uint64_t
    expectU64(const char *key)
    {
        std::string v = expect(key);
        if (!ok())
            return 0;
        errno = 0;
        char *end = nullptr;
        unsigned long long n = std::strtoull(v.c_str(), &end, 10);
        if (errno != 0 || end == v.c_str() || *end != '\0') {
            fail(strprintf("bad integer for '%s': '%s'", key,
                           v.c_str()));
            return 0;
        }
        return n;
    }

    double
    expectDouble(const char *key)
    {
        std::string v = expect(key);
        if (!ok())
            return 0.0;
        errno = 0;
        char *end = nullptr;
        double d = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end != '\0') {
            fail(strprintf("bad double for '%s': '%s'", key, v.c_str()));
            return 0.0;
        }
        return d;
    }

    std::istringstream in;

  private:
    std::string error;
};

/**
 * The per-result body shared by the top-level entry and each nested
 * per-core row: every simulated field of one SimResults minus the
 * perCore list itself.
 */
void
encodeResultsBody(std::string &out, const SimResults &r)
{
    kv(out, "workload", r.workload);
    kv(out, "scheme", r.scheme);
    kv(out, "cycles", u64str(r.cycles));
    kv(out, "instructions", u64str(r.instructions));
    kv(out, "ipc", dblstr(r.ipc));
    kv(out, "mpki", dblstr(r.mpki));
    kv(out, "l2_bus_util", dblstr(r.l2BusUtil));
    kv(out, "mem_bus_util", dblstr(r.memBusUtil));
    kv(out, "prefetch_accuracy", dblstr(r.prefetchAccuracy));
    kv(out, "prefetch_coverage", dblstr(r.prefetchCoverage));
    kv(out, "prefetch_timely", dblstr(r.prefetchTimely));
    kv(out, "prefetch_late", dblstr(r.prefetchLate));
    kv(out, "prefetch_pollution", dblstr(r.prefetchPollution));
    kv(out, "cond_mispredict_per_kilo", dblstr(r.condMispredictPerKilo));
    kv(out, "host_seconds", dblstr(r.hostSeconds));
    kv(out, "host_kcycles_per_sec", dblstr(r.hostKcyclesPerSec));
    kv(out, "skipped_cycles", u64str(r.skippedCycles));
    kv(out, "total_cycles", u64str(r.totalCycles));

    out += strprintf("ftq_occupancy %llu",
                     static_cast<unsigned long long>(
                         r.ftqOccupancy.numBuckets()));
    for (std::size_t v = 0; v < r.ftqOccupancy.numBuckets(); ++v) {
        out += ' ';
        out += u64str(r.ftqOccupancy.bucket(v));
    }
    out += "\n";

    out += strprintf("pf_timeliness %llu",
                     static_cast<unsigned long long>(
                         r.pfTimeliness.numBuckets()));
    for (std::size_t v = 0; v < r.pfTimeliness.numBuckets(); ++v) {
        out += ' ';
        out += u64str(r.pfTimeliness.bucket(v));
    }
    out += "\n";

    const auto &entries = r.stats.entries();
    kv(out, "stats", u64str(entries.size()));
    for (const auto &[name, val] : entries)
        out += "stat " + name + " " + dblstr(val) + "\n";
}

/** Mirror of encodeResultsBody; errors accumulate in @p rd. */
void
decodeResultsBody(EntryReader &rd, SimResults &r)
{
    r.workload = rd.expect("workload");
    r.scheme = rd.expect("scheme");
    r.cycles = rd.expectU64("cycles");
    r.instructions = rd.expectU64("instructions");
    r.ipc = rd.expectDouble("ipc");
    r.mpki = rd.expectDouble("mpki");
    r.l2BusUtil = rd.expectDouble("l2_bus_util");
    r.memBusUtil = rd.expectDouble("mem_bus_util");
    r.prefetchAccuracy = rd.expectDouble("prefetch_accuracy");
    r.prefetchCoverage = rd.expectDouble("prefetch_coverage");
    r.prefetchTimely = rd.expectDouble("prefetch_timely");
    r.prefetchLate = rd.expectDouble("prefetch_late");
    r.prefetchPollution = rd.expectDouble("prefetch_pollution");
    r.condMispredictPerKilo =
        rd.expectDouble("cond_mispredict_per_kilo");
    r.hostSeconds = rd.expectDouble("host_seconds");
    r.hostKcyclesPerSec = rd.expectDouble("host_kcycles_per_sec");
    r.skippedCycles = rd.expectU64("skipped_cycles");
    r.totalCycles = rd.expectU64("total_cycles");

    std::string occ = rd.expect("ftq_occupancy");
    if (!rd.ok())
        return;
    {
        std::istringstream os(occ);
        std::uint64_t buckets = 0;
        if (!(os >> buckets) || buckets == 0) {
            rd.fail("bad ftq_occupancy bucket count");
            return;
        }
        Histogram h(buckets - 1);
        for (std::uint64_t v = 0; v < buckets; ++v) {
            std::uint64_t count = 0;
            if (!(os >> count)) {
                rd.fail("truncated ftq_occupancy buckets");
                return;
            }
            if (count > 0)
                h.sample(v, count);
        }
        r.ftqOccupancy = h;
    }

    std::string pft = rd.expect("pf_timeliness");
    if (!rd.ok())
        return;
    {
        std::istringstream os(pft);
        std::uint64_t buckets = 0;
        if (!(os >> buckets) || buckets == 0) {
            rd.fail("bad pf_timeliness bucket count");
            return;
        }
        Histogram h(buckets - 1);
        for (std::uint64_t v = 0; v < buckets; ++v) {
            std::uint64_t count = 0;
            if (!(os >> count)) {
                rd.fail("truncated pf_timeliness buckets");
                return;
            }
            if (count > 0)
                h.sample(v, count);
        }
        r.pfTimeliness = h;
    }

    std::uint64_t num_stats = rd.expectU64("stats");
    for (std::uint64_t i = 0; rd.ok() && i < num_stats; ++i) {
        std::string line;
        if (!std::getline(rd.in, line)) {
            rd.fail("truncated stat list");
            break;
        }
        std::istringstream ls(line);
        std::string tag, name, value;
        if (!(ls >> tag >> name >> value) || tag != "stat") {
            rd.fail(strprintf("bad stat line '%s'", line.c_str()));
            break;
        }
        errno = 0;
        char *end = nullptr;
        double d = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0') {
            rd.fail(strprintf("bad stat value '%s'", value.c_str()));
            break;
        }
        r.stats.set(name, d);
    }
}

} // namespace

std::string
encodeCacheEntry(std::uint64_t fingerprint, std::uint64_t warmup_insts,
                 std::uint64_t measure_insts, const SimResults &r)
{
    std::string out;
    kv(out, "fdip-result-cache",
       u64str(ResultCache::kFormatVersion));
    kv(out, "build", strprintf("%016llx",
       static_cast<unsigned long long>(buildIdentity())));
    kv(out, "fingerprint", strprintf("%016llx",
       static_cast<unsigned long long>(fingerprint)));
    kv(out, "warmup", u64str(warmup_insts));
    kv(out, "measure", u64str(measure_insts));
    encodeResultsBody(out, r);
    // Nested per-core rows (multi-core machines; 0 on single-core).
    kv(out, "per_core", u64str(r.perCore.size()));
    for (std::size_t i = 0; i < r.perCore.size(); ++i) {
        kv(out, "core", u64str(i));
        encodeResultsBody(out, r.perCore[i]);
    }
    // Hash of the canonical serialization of the *encoded* results.
    // The decoder recomputes it from the decoded SimResults, so any
    // divergence between this codec and serializeResults() — e.g. a
    // field added to SimResults and report.cc but missed here, which
    // would otherwise decode silently as a default value — rejects
    // the entry instead of serving wrong tables.
    kv(out, "canonical", strprintf("%016llx",
       static_cast<unsigned long long>(fnv1aHash(serializeResults(r)))));
    out += "end\n";
    return out;
}

std::optional<SimResults>
decodeCacheEntry(const std::string &text, std::uint64_t fingerprint,
                 std::uint64_t warmup_insts, std::uint64_t measure_insts,
                 std::string *error)
{
    EntryReader rd(text);
    auto failed = [&]() -> std::optional<SimResults> {
        if (error)
            *error = rd.reason();
        return std::nullopt;
    };

    std::uint64_t version = rd.expectU64("fdip-result-cache");
    if (rd.ok() && version != ResultCache::kFormatVersion)
        rd.fail(strprintf("format version %llu, want %u",
                          static_cast<unsigned long long>(version),
                          ResultCache::kFormatVersion));
    std::string build = rd.expect("build");
    if (rd.ok() &&
        build != strprintf("%016llx",
                           static_cast<unsigned long long>(
                               buildIdentity())))
        rd.fail(strprintf("stale entry: build identity mismatch "
                          "(entry %s, this build %016llx)",
                          build.c_str(),
                          static_cast<unsigned long long>(
                              buildIdentity())));
    std::string fp = rd.expect("fingerprint");
    if (rd.ok() &&
        fp != strprintf("%016llx",
                        static_cast<unsigned long long>(fingerprint)))
        rd.fail("stale entry: config fingerprint mismatch");
    std::uint64_t warmup = rd.expectU64("warmup");
    if (rd.ok() && warmup != warmup_insts)
        rd.fail("stale entry: warmup length mismatch");
    std::uint64_t measure = rd.expectU64("measure");
    if (rd.ok() && measure != measure_insts)
        rd.fail("stale entry: measure length mismatch");
    if (!rd.ok())
        return failed();

    SimResults r;
    decodeResultsBody(rd, r);
    if (!rd.ok())
        return failed();

    std::uint64_t num_cores = rd.expectU64("per_core");
    if (rd.ok() && num_cores > 64) {
        rd.fail("implausible per_core count");
        return failed();
    }
    for (std::uint64_t i = 0; rd.ok() && i < num_cores; ++i) {
        std::uint64_t idx = rd.expectU64("core");
        if (rd.ok() && idx != i)
            rd.fail("per-core rows out of order");
        SimResults row;
        decodeResultsBody(rd, row);
        if (rd.ok())
            r.perCore.push_back(std::move(row));
    }
    if (!rd.ok())
        return failed();

    std::string canonical = rd.expect("canonical");
    if (rd.ok() &&
        canonical != strprintf("%016llx",
                               static_cast<unsigned long long>(
                                   fnv1aHash(serializeResults(r)))))
        rd.fail("canonical-serialization hash mismatch (codec and "
                "serializeResults() disagree about this entry)");
    std::string tail = rd.expect("end");
    if (rd.ok() && !tail.empty())
        rd.fail("trailing garbage after 'end'");
    if (!rd.ok())
        return failed();
    return r;
}

std::uint64_t
ResultCache::budgetBytesFromEnv()
{
    return envUint("FDIP_CACHE_BUDGET_MB", 0) * 1024 * 1024;
}

ResultCache::ResultCache(std::string dir, std::uint64_t budget_bytes)
    : directory(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(directory, ec);
    if (ec)
        warn("result cache: cannot create '%s': %s (writes will fail)",
             directory.c_str(), ec.message().c_str());
    collectGarbage(budget_bytes);
}

void
ResultCache::collectGarbage(std::uint64_t budget_bytes)
{
    if (budget_bytes == 0)
        return; // unlimited: opening the cache stays O(1)

    struct File
    {
        std::string path;
        std::filesystem::file_time_type mtime;
        std::uint64_t size;
    };
    std::vector<File> files;
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &de :
         std::filesystem::directory_iterator(directory, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        std::string path = de.path().string();
        // Quarantined (.bad) files count against the budget too: they
        // are kept as evidence, not forever.
        bool entry = path.size() >= 7 &&
            path.compare(path.size() - 7, 7, ".result") == 0;
        bool bad = path.size() >= 4 &&
            path.compare(path.size() - 4, 4, ".bad") == 0;
        if (!entry && !bad)
            continue;
        std::uint64_t size = de.file_size(ec);
        if (ec)
            continue;
        files.push_back({path, de.last_write_time(ec), size});
        total += size;
    }
    if (total <= budget_bytes)
        return;

    // Oldest first; ties broken by path so eviction order is
    // deterministic when a test backdates several entries at once.
    std::sort(files.begin(), files.end(),
              [](const File &a, const File &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path;
              });
    std::uint64_t freed = 0;
    for (const File &f : files) {
        if (total - freed <= budget_bytes)
            break;
        std::error_code rm;
        if (std::filesystem::remove(f.path, rm) && !rm) {
            freed += f.size;
            ++numEvicted;
        }
    }
    if (numEvicted > 0) {
        inform("result cache: evicted %zu oldest entries (%llu KB) to "
               "meet the %llu MB budget",
               numEvicted,
               static_cast<unsigned long long>(freed / 1024),
               static_cast<unsigned long long>(
                   budget_bytes / (1024 * 1024)));
    }
}

std::unique_ptr<ResultCache>
ResultCache::fromEnv()
{
    if (const char *off = std::getenv("FDIP_NO_CACHE")) {
        if (*off != '\0' && std::strcmp(off, "0") != 0)
            return nullptr;
    }
    const char *dir = std::getenv("FDIP_CACHE_DIR");
    if (!dir || *dir == '\0')
        return nullptr;
    return std::make_unique<ResultCache>(dir);
}

std::string
ResultCache::entryPath(std::uint64_t fingerprint,
                       std::uint64_t warmup_insts,
                       std::uint64_t measure_insts) const
{
    return strprintf("%s/fp%016llx-w%llu-m%llu.result",
                     directory.c_str(),
                     static_cast<unsigned long long>(fingerprint),
                     static_cast<unsigned long long>(warmup_insts),
                     static_cast<unsigned long long>(measure_insts));
}

std::optional<SimResults>
ResultCache::load(std::uint64_t fingerprint, std::uint64_t warmup_insts,
                  std::uint64_t measure_insts) const
{
    std::string path = entryPath(fingerprint, warmup_insts,
                                 measure_insts);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt; // plain miss
    std::ostringstream buf;
    buf << in.rdbuf();

    std::string why;
    auto r = decodeCacheEntry(buf.str(), fingerprint, warmup_insts,
                              measure_insts, &why);
    if (!r) {
        // Quarantine rather than delete: the file is evidence (flaky
        // disk? torn write? stale build?) and moving it aside both
        // preserves it and guarantees the re-simulated entry cannot
        // collide with the bad bytes.
        in.close();
        std::string bad = path + ".bad";
        std::error_code ec;
        std::filesystem::rename(path, bad, ec);
        if (ec)
            bad = strprintf("<rename failed: %s>", ec.message().c_str());
        numQuarantined.fetch_add(1, std::memory_order_relaxed);
        warn("result cache: rejecting entry '%s': %s (quarantined as "
             "'%s')",
             path.c_str(), why.c_str(), bad.c_str());
    }
    return r;
}

void
ResultCache::store(std::uint64_t fingerprint, std::uint64_t warmup_insts,
                   std::uint64_t measure_insts, const SimResults &r) const
{
    std::string path = entryPath(fingerprint, warmup_insts,
                                 measure_insts);
    // Write-then-rename keeps concurrently sharing binaries safe: a
    // reader sees either no entry or a complete one, never a torn
    // write. Same-key writers race benignly (identical content).
    static std::atomic<unsigned long long> serial{0};
    std::string tmp = strprintf("%s.tmp%ld.%llu", path.c_str(),
                                static_cast<long>(::getpid()),
                                serial.fetch_add(1) + 1);
    std::string text = encodeCacheEntry(fingerprint, warmup_insts,
                                        measure_insts, r);
    if (FaultInjector::instance().corruptThisStore()) {
        warn("fault injection: tearing cache entry '%s'", path.c_str());
        text.resize(text.size() / 2);
    }
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("result cache: cannot write '%s'", tmp.c_str());
            return;
        }
        out << text;
        if (!out) {
            warn("result cache: short write to '%s'", tmp.c_str());
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("result cache: cannot publish '%s': %s", path.c_str(),
             ec.message().c_str());
        std::filesystem::remove(tmp, ec);
    }
}

} // namespace fdip
