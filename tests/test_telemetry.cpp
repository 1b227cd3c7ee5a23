/** @file Tests for the telemetry layer: histogram bucket boundaries
 * and percentiles, sharded counters/histograms merged under
 * concurrent writers (run under TSan in CI), the enable flag
 * mid-stream, registry identity, window-span phase monotonicity
 * through the live service, the EP non-convergence counter, Chrome
 * trace export, and the log-level mirror counters. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/inference.h"
#include "json_checker.h"
#include "service/monitor_service.h"
#include "service/record_stream.h"
#include "sim/ground_truth.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "workloads/hibench.h"

namespace bperf {
namespace telemetry {
namespace {

/** RAII guard: telemetry is globally on by default; every test that
 * flips the flag must leave it the way it found it. */
struct EnabledGuard
{
    bool saved = enabled();
    ~EnabledGuard() { setEnabled(saved); }
};

TEST(Histogram, BucketBoundariesAreLog2)
{
    EXPECT_EQ(Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(Histogram::bucketIndex(7), 3u);
    EXPECT_EQ(Histogram::bucketIndex(8), 4u);
    EXPECT_EQ(Histogram::bucketIndex((1ull << 62) - 1), 62u);
    // The last bucket absorbs everything out of range.
    EXPECT_EQ(Histogram::bucketIndex(1ull << 62), 63u);
    EXPECT_EQ(Histogram::bucketIndex(
                  std::numeric_limits<std::uint64_t>::max()),
              63u);

    EXPECT_EQ(Histogram::bucketFloor(0), 0u);
    EXPECT_EQ(Histogram::bucketFloor(1), 1u);
    EXPECT_EQ(Histogram::bucketFloor(2), 2u);
    EXPECT_EQ(Histogram::bucketFloor(3), 4u);
    EXPECT_EQ(Histogram::bucketFloor(10), 512u);
    // Every value lands in the bucket whose floor bounds it.
    for (std::uint64_t v : {1ull, 2ull, 3ull, 100ull, 65535ull,
                            (1ull << 40) + 17}) {
        const std::size_t b = Histogram::bucketIndex(v);
        EXPECT_GE(v, Histogram::bucketFloor(b)) << v;
        if (b < Histogram::kBuckets - 1) {
            EXPECT_LT(v, Histogram::bucketFloor(b + 1)) << v;
        }
    }
}

TEST(Histogram, PercentilesStayInsideTheirBucket)
{
    EnabledGuard guard;
    setEnabled(true);
    Histogram h;
    EXPECT_TRUE(std::isnan(h.snapshot().percentile(50.0)));

    // A single sample of 1 reports exactly 1 (bucket 1 is {1}).
    h.record(1);
    EXPECT_DOUBLE_EQ(h.snapshot().percentile(50.0), 1.0);

    // 100 samples around 1000 ns: every percentile must land inside
    // bucket [512, 1024) x sqrt(2) bounds, i.e. within sqrt(2) of
    // the true value.
    Histogram spread;
    for (int i = 0; i < 100; ++i)
        spread.record(1000);
    const Histogram::Snapshot snap = spread.snapshot();
    EXPECT_EQ(snap.count, 100u);
    for (double p : {1.0, 50.0, 95.0, 99.0, 100.0}) {
        const double v = snap.percentile(p);
        EXPECT_GE(v, 512.0) << p;
        EXPECT_LT(v, 1024.0) << p;
    }

    // Mixed magnitudes order correctly: p50 over {64 x 100ns,
    // 36 x 10000ns} sits in 100's bucket, p99 in 10000's.
    Histogram mixed;
    for (int i = 0; i < 64; ++i)
        mixed.record(100);
    for (int i = 0; i < 36; ++i)
        mixed.record(10000);
    const Histogram::Snapshot m = mixed.snapshot();
    EXPECT_GE(m.percentile(50.0), 64.0);
    EXPECT_LT(m.percentile(50.0), 128.0);
    EXPECT_GE(m.percentile(99.0), 8192.0);
    EXPECT_LT(m.percentile(99.0), 16384.0);
}

TEST(Histogram, PercentilesNeverExceedRecordedMax)
{
    EnabledGuard guard;
    setEnabled(true);

    // Regression: a value just past a power of two lands in a bucket
    // whose geometric midpoint overshoots it — 8200 sits in
    // [8192, 16384) with midpoint ~11585, so the old code reported a
    // p99 ~41% above anything ever recorded.
    Histogram h;
    for (int i = 0; i < 100; ++i)
        h.record(8200);
    const Histogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.maxValue, 8200u);
    for (double p : {1.0, 50.0, 99.0, 100.0}) {
        const double v = snap.percentile(p);
        EXPECT_GE(v, 8192.0) << p;
        EXPECT_LE(v, 8200.0) << p;
    }

    // Mixed magnitudes: the clamp binds only to the overall max, so
    // mid-distribution percentiles keep their bucket midpoints while
    // the tail stays at or below the largest sample.
    Histogram mixed;
    for (int i = 0; i < 90; ++i)
        mixed.record(100);
    mixed.record(1 << 20);
    const Histogram::Snapshot m = mixed.snapshot();
    EXPECT_EQ(m.maxValue, std::uint64_t{1} << 20);
    EXPECT_LT(m.percentile(50.0), 128.0);
    EXPECT_LE(m.percentile(100.0),
              static_cast<double>(std::uint64_t{1} << 20));

    // reset() clears the tracked max along with the buckets.
    mixed.reset();
    EXPECT_EQ(mixed.snapshot().maxValue, 0u);
    EXPECT_EQ(mixed.snapshot().count, 0u);
}

TEST(Telemetry, ShardsMergeUnderConcurrentWriters)
{
    EnabledGuard guard;
    setEnabled(true);
    Counter counter;
    Histogram histogram;
    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kPerThread = 20000;

    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                counter.add();
                histogram.record((t + 1) * 100);
            }
            counter.add(2); // n > 1 merges too
        });
    }
    for (auto &w : writers)
        w.join();

    EXPECT_EQ(counter.value(), kThreads * kPerThread + 2 * kThreads);
    const Histogram::Snapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.count, kThreads * kPerThread);
    // The max merges across shards, not just within one writer's.
    EXPECT_EQ(snap.maxValue, kThreads * 100u);

    counter.reset();
    histogram.reset();
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(histogram.snapshot().count, 0u);
}

TEST(Telemetry, EnableFlagGatesCollectionMidStream)
{
    EnabledGuard guard;
    Counter counter;
    Histogram histogram;

    setEnabled(true);
    counter.add();
    histogram.record(5);
    EXPECT_EQ(counter.value(), 1u);
    EXPECT_EQ(histogram.snapshot().count, 1u);

    setEnabled(false);
    EXPECT_FALSE(enabled());
    counter.add(100);
    histogram.record(5);
    EXPECT_EQ(counter.value(), 1u);
    EXPECT_EQ(histogram.snapshot().count, 1u);
    // addAlways bypasses the gate (the log.* contract).
    counter.addAlways(3);
    EXPECT_EQ(counter.value(), 4u);

    setEnabled(true);
    counter.add();
    histogram.record(5);
    EXPECT_EQ(counter.value(), 5u);
    EXPECT_EQ(histogram.snapshot().count, 2u);
}

TEST(MetricsRegistry, SameNameIsSameInstrument)
{
    MetricsRegistry registry;
    Counter &a = registry.counter("x");
    Counter &b = registry.counter("x");
    EXPECT_EQ(&a, &b);
    Histogram &ha = registry.histogram("y");
    Histogram &hb = registry.histogram("y");
    EXPECT_EQ(&ha, &hb);

    EnabledGuard guard;
    setEnabled(true);
    a.add(7);
    EXPECT_EQ(registry.counterValue("x"), 7u);
    EXPECT_EQ(registry.counterValue("never-created"), 0u);
    EXPECT_EQ(registry.histogramSnapshot("never-created").count, 0u);

    ha.record(9);
    const MetricsSnapshot snap = registry.scrape();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].name, "x");
    EXPECT_EQ(snap.counters[0].value, 7u);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].name, "y");
    EXPECT_EQ(snap.histograms[0].count, 1u);

    registry.reset();
    EXPECT_EQ(registry.counterValue("x"), 0u);

    EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

TEST(Telemetry, TraceIdsAreUniqueAndNonzero)
{
    const std::uint64_t a = nextTraceId();
    const std::uint64_t b = nextTraceId();
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
}

// ---------------------------------------------------------------- spans

std::vector<sim::EventId>
monitoredSet(const sim::MicroarchDescriptor &uarch)
{
    std::vector<sim::EventId> events;
    for (sim::EventId e : uarch.fixedEvents())
        events.push_back(e);
    for (sim::Role r :
         {sim::Role::LlcMiss, sim::Role::L2Miss, sim::Role::L1DMiss,
          sim::Role::Loads, sim::Role::Stores, sim::Role::Branches,
          sim::Role::BranchMisses, sim::Role::StallMem})
        events.push_back(uarch.idForRole(r));
    return events;
}

sim::PerfResult
measuredRun(const sim::MicroarchDescriptor &uarch,
            const std::vector<sim::EventId> &monitored,
            std::size_t num_slices, std::uint64_t seed)
{
    const sim::GroundTruthGenerator generator(uarch,
                                              wl::makeHibench("KMeans"));
    const sim::TruthTrace truth = generator.generate(num_slices, seed);
    sim::PerfSessionConfig cfg;
    cfg.seed = seed * 3 + 1;
    sim::PerfSession session(uarch, cfg);
    return session.runRoundRobin(truth, monitored);
}

TEST(WindowSpans, PhasesAreMonotoneThroughTheService)
{
    EnabledGuard guard;
    setEnabled(true);
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();

    service::MonitorServiceConfig cfg;
    cfg.numWorkers = 2;
    cfg.sessionDefaults.streaming.inference.windowSlices = 6;
    telemetry::TraceCollector trace;
    cfg.trace = &trace;
    service::MonitorService daemon(uarch, cfg);

    const service::SessionId id = daemon.open(monitoredSet(uarch));
    const auto monitored = daemon.monitoredEvents(id);
    const auto run = measuredRun(uarch, monitored, 24, 321);

    std::mutex mutex;
    std::vector<service::WindowUpdate> updates;
    const auto sub =
        daemon.subscribe(id, [&](const service::WindowUpdate &u) {
            std::lock_guard<std::mutex> lock(mutex);
            updates.push_back(u);
        });
    ASSERT_TRUE(sub.has_value());

    daemon.ingestBatch(id, service::recordStream(run));
    daemon.quiesce();
    daemon.flushSubscriptions();
    const auto report = daemon.close(id);
    ASSERT_TRUE(report.has_value());
    daemon.flushSubscriptions();

    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(updates.size(), report->stats.windowsRun);
    ASSERT_GE(updates.size(), 2u);
    std::size_t streamed = 0;
    for (std::size_t i = 0; i < updates.size(); ++i) {
        const core::WindowSpan &span = updates[i].execution.span;
        EXPECT_NE(span.traceId, 0u) << i;
        EXPECT_EQ(updates[i].windowId, i + 1);
        ASSERT_NE(span.epStartNanos, 0u) << i;
        EXPECT_LE(span.epStartNanos, span.epEndNanos) << i;
        EXPECT_LE(span.epEndNanos, span.publishNanos) << i;
        // Streamed windows carry the record stamps; the close() tail
        // windows deliberately run without them (zero = unobserved).
        if (span.ingestNanos != 0) {
            ++streamed;
            EXPECT_LE(span.ingestNanos, span.assembleNanos) << i;
            EXPECT_LE(span.assembleNanos, span.epStartNanos) << i;
        }
    }
    EXPECT_GE(streamed, 1u);

    // Every spanned window produced trace slices, and the collector's
    // export is valid Chrome trace-event JSON with the span phases.
    EXPECT_GT(trace.eventCount(), 0u);
    const std::string json = trace.chromeTraceJson();
    EXPECT_TRUE(testutil::JsonChecker(json).valid());
    for (const char *phase :
         {"ingest-wait", "dispatch-wait", "ep-compute", "publish",
          "traceEvents", "displayTimeUnit"})
        EXPECT_NE(json.find(phase), std::string::npos) << phase;
}

TEST(EpCounters, UnconvergedWindowsAreCounted)
{
    // InferenceResult::epUnconvergedWindows counts windows whose EP
    // stopped at maxSweeps without meeting the tolerance.  A tolerance
    // of 0 can never be met; an infinite one is met by the first
    // sweep.  The engine counts whether or not telemetry is enabled.
    EnabledGuard guard;
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    const sim::PerfResult run =
        measuredRun(uarch, monitoredSet(uarch), 18, 77);
    const auto inferWithTolerance = [&](double tolerance) {
        core::InferenceConfig cfg;
        cfg.windowSlices = 6;
        cfg.ep.maxSweeps = 2;
        cfg.ep.tolerance = tolerance;
        return core::infer(uarch, run, cfg);
    };

    for (const bool on : {true, false}) {
        SCOPED_TRACE(on ? "telemetry enabled" : "telemetry disabled");
        setEnabled(on);
        const core::InferenceResult never = inferWithTolerance(0.0);
        EXPECT_EQ(never.windowsRun, 5u);
        EXPECT_EQ(never.epSweepsTotal, 2 * never.windowsRun);
        EXPECT_EQ(never.epUnconvergedWindows, never.windowsRun);

        const core::InferenceResult first_sweep =
            inferWithTolerance(std::numeric_limits<double>::infinity());
        EXPECT_EQ(first_sweep.windowsRun, 5u);
        EXPECT_EQ(first_sweep.epSweepsTotal, first_sweep.windowsRun);
        EXPECT_EQ(first_sweep.epUnconvergedWindows, 0u);
    }
}

TEST(TraceCollector, ExportsModeledBackendPhasesAndCountsDrops)
{
    TraceCollector trace(/*max_events=*/8);

    core::WindowExecution exec;
    exec.serviceSeconds = 2e-3;
    exec.transferSeconds = 0.5e-3;
    exec.queueWaitSeconds = 1e-3;
    exec.engineId = 3;
    exec.span.traceId = 42;
    exec.span.epStartNanos = nowNanos();
    exec.span.epEndNanos = exec.span.epStartNanos + 1000000;
    trace.addWindow(/*session_id=*/5, /*window_id=*/1, exec);

    EXPECT_GT(trace.eventCount(), 0u);
    const std::string json = trace.chromeTraceJson();
    EXPECT_TRUE(testutil::JsonChecker(json).valid());
    for (const char *phase : {"ep-compute", "backend-queue",
                              "backend-xfer", "backend-compute"})
        EXPECT_NE(json.find(phase), std::string::npos) << phase;
    EXPECT_NE(json.find("\"modeled\""), std::string::npos);

    // A window that ran with telemetry disabled (no EP stamp) is a
    // counted drop, not a zero-length slice.
    const std::uint64_t drops_before = trace.dropped();
    trace.addWindow(5, 2, core::WindowExecution{});
    EXPECT_EQ(trace.dropped(), drops_before + 1);

    // The cap bounds memory: overflow counts as dropped too.
    for (int i = 0; i < 16; ++i)
        trace.addWindow(5, 3 + i, exec);
    EXPECT_LE(trace.eventCount(), 8u);
    EXPECT_GT(trace.dropped(), drops_before + 1);
}

TEST(Logging, WarnAndErrorMirrorIntoCounters)
{
    EnabledGuard guard;
    auto &registry = MetricsRegistry::global();
    const std::uint64_t warns = registry.counterValue("log.warnings");
    const std::uint64_t errors = registry.counterValue("log.errors");

    // Counted even with collection disabled — "how many times did
    // something go wrong" must never depend on the enable flag (and
    // with verbosity off, neither line reaches stderr).
    setEnabled(false);
    bp_warn("telemetry test warning (ignore)");
    EXPECT_EQ(registry.counterValue("log.warnings"), warns + 1);
    setEnabled(true);
    bp_warn("telemetry test warning (ignore)");
    EXPECT_EQ(registry.counterValue("log.warnings"), warns + 2);
    EXPECT_EQ(registry.counterValue("log.errors"), errors);

    // bp_error counts as an error (it prints; keep the message
    // obviously intentional).
    bp_error("telemetry test error (intentional, ignore)");
    EXPECT_EQ(registry.counterValue("log.errors"), errors + 1);
    EXPECT_EQ(registry.counterValue("log.warnings"), warns + 2);

    // The service surfaces the same counters in its stats.
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    service::MonitorService daemon(uarch, {});
    const service::ServiceStats stats = daemon.stats();
    EXPECT_EQ(stats.logWarnings, registry.counterValue("log.warnings"));
    EXPECT_EQ(stats.logErrors, registry.counterValue("log.errors"));
}

} // namespace
} // namespace telemetry
} // namespace bperf
