/**
 * @file
 * Pipeline-wide metrics: monotonic counters and log2-bucketed latency
 * histograms, cheap enough to leave on in production.
 *
 * Design for the hot path (ring offer, worker dispatch, EP solve):
 *   - every instrument is sharded across a small fixed set of
 *     cache-line-aligned atomic cells; a thread picks its shard once
 *     (thread-local round-robin) and then every update is a single
 *     relaxed fetch_add with no false sharing between workers;
 *   - one global atomic enable flag gates all updates, so the
 *     disabled path is a relaxed load and a branch (~1 ns);
 *   - shards are merged only on scrape(), which walks every cell —
 *     scraping is the slow path by construction.
 *
 * Counters and histograms are owned by a MetricsRegistry keyed by
 * name ("ep.window_ns", "log.warnings", ...).  Lookup takes a mutex,
 * so call sites resolve their instrument once into a static reference
 * and keep only the fetch_add on the hot path.  The pipeline keeps
 * its event counts in the *Stats struct that owns each event
 * (SessionStats, AdmissionStats, ...); the registry holds what no
 * struct computes — latency/depth histograms — and the log counters.
 *
 * Histograms are fixed log2 buckets: bucket 0 holds the value 0,
 * bucket b >= 1 holds [2^(b-1), 2^b).  Percentiles come back as the
 * geometric midpoint of the bucket the rank lands in — at most
 * sqrt(2)x off the true value, which is plenty for latency
 * attribution (values are nanoseconds unless the name says
 * otherwise).
 *
 * Thread contract: every member of Counter/Histogram is safe from any
 * thread concurrently with any other, including scrape.  reset() is
 * the exception: it tolerates concurrent writers but may lose their
 * in-flight updates, so only quiescent callers (benches between runs,
 * tests) should use it.
 */

#ifndef BPERF_TELEMETRY_TELEMETRY_H
#define BPERF_TELEMETRY_TELEMETRY_H

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bperf {
namespace telemetry {

namespace detail {

/** The one global enable flag (defined in telemetry.cc; on by
 * default — the whole point is always-on observability). */
extern std::atomic<bool> g_enabled;

/** Shards per instrument: enough to keep a handful of workers off
 * each other's cache lines without bloating scrape. */
inline constexpr std::size_t kShards = 16;

/** This thread's shard: round-robin assignment on first use. */
std::size_t shardIndex();

} // namespace detail

/** Is telemetry collection enabled?  Relaxed load; hot-path safe. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Toggle collection process-wide (tests, benches, ops). */
void setEnabled(bool on);

/** Steady-clock nanoseconds — deliberately the same time base as
 * shim::steadyNowNanos(), so span stamps and shim publish stamps are
 * directly comparable. */
std::uint64_t nowNanos();

/** Process-unique nonzero id for a new window span. */
std::uint64_t nextTraceId();

/** Monotonic event counter, sharded per thread. */
class Counter
{
  public:
    /** Count n events; a relaxed load + branch when disabled. */
    void add(std::uint64_t n = 1)
    {
        if (enabled())
            addAlways(n);
    }

    /** Count regardless of the enable flag — for instruments that
     * must never miss (log.warnings / log.errors). */
    void addAlways(std::uint64_t n = 1)
    {
        shards_[detail::shardIndex()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Merged total across shards. */
    std::uint64_t value() const
    {
        std::uint64_t total = 0;
        for (const Shard &s : shards_)
            total += s.value.load(std::memory_order_relaxed);
        return total;
    }

    /** Zero all shards (quiescent callers only; see file header). */
    void reset()
    {
        for (Shard &s : shards_)
            s.value.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> value{0};
    };
    std::array<Shard, detail::kShards> shards_{};
};

/** Fixed log2-bucket latency histogram, sharded per thread. */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = 64;

    /** Bucket of value v: 0 -> 0, else bit_width(v) capped at the
     * last bucket, i.e. bucket b >= 1 covers [2^(b-1), 2^b). */
    static std::size_t bucketIndex(std::uint64_t v)
    {
        const std::size_t w =
            static_cast<std::size_t>(std::bit_width(v));
        return w < kBuckets ? w : kBuckets - 1;
    }

    /** Smallest value bucket b holds (0 for bucket 0). */
    static std::uint64_t bucketFloor(std::size_t b)
    {
        return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
    }

    /** Record one sample; a relaxed load + branch when disabled. */
    void record(std::uint64_t v)
    {
        if (!enabled())
            return;
        Shard &shard = shards_[detail::shardIndex()];
        shard.buckets[bucketIndex(v)].fetch_add(
            1, std::memory_order_relaxed);
        // Track the largest observed value so percentiles can clamp
        // their bucket representative to something actually recorded.
        std::uint64_t seen =
            shard.maxValue.load(std::memory_order_relaxed);
        while (v > seen && !shard.maxValue.compare_exchange_weak(
                               seen, v, std::memory_order_relaxed))
            ;
    }

    /** Merged view of the histogram at one scrape. */
    struct Snapshot
    {
        std::uint64_t count = 0;
        /** Largest value recorded (0 when empty). */
        std::uint64_t maxValue = 0;
        std::array<std::uint64_t, kBuckets> buckets{};

        /**
         * Approximate percentile; NaN when the histogram is empty.
         * The reported value is the geometric midpoint of the bucket
         * the rank lands in, clamped to maxValue — without the clamp
         * a top-bucket midpoint can exceed every recorded value by up
         * to sqrt(2)x, which turned tail latencies into values the
         * pipeline never produced.
         */
        double percentile(double p) const;
    };

    Snapshot snapshot() const;

    /** Zero all shards (quiescent callers only; see file header). */
    void reset();

  private:
    struct alignas(64) Shard
    {
        std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
        /** Largest value this shard has recorded. */
        std::atomic<std::uint64_t> maxValue{0};
    };
    std::array<Shard, detail::kShards> shards_{};
};

/** One counter at scrape time. */
struct CounterSample
{
    std::string name;
    std::uint64_t value = 0;
};

/** One histogram at scrape time (percentiles precomputed). */
struct HistogramSample
{
    std::string name;
    std::uint64_t count = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/** Everything the registry knows, merged at one instant per
 * instrument (instruments are not mutually coherent — each is
 * scraped independently while writers keep running). */
struct MetricsSnapshot
{
    std::vector<CounterSample> counters;
    std::vector<HistogramSample> histograms;
};

/**
 * Name-keyed home of every instrument.  Instruments live forever at
 * stable addresses once created, so call sites cache references:
 *
 *   static telemetry::Histogram &wait =
 *       telemetry::MetricsRegistry::global().histogram("ring.wait_ns");
 *   wait.record(nanos);
 */
class MetricsRegistry
{
  public:
    /** Find-or-create (mutex; resolve once, not per event). */
    Counter &counter(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Merged value of a counter; 0 when it was never created. */
    std::uint64_t counterValue(const std::string &name) const;

    /** Snapshot of a histogram; empty when it was never created. */
    Histogram::Snapshot histogramSnapshot(const std::string &name) const;

    /** Merge every instrument (names come back sorted). */
    MetricsSnapshot scrape() const;

    /** Zero every instrument (quiescent callers only). */
    void reset();

    /** The process-wide registry all pipeline instruments live in. */
    static MetricsRegistry &global();

  private:
    mutable std::mutex mutex_;
    /** Node-based maps: element addresses are stable forever. */
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace telemetry
} // namespace bperf

#endif // BPERF_TELEMETRY_TELEMETRY_H
