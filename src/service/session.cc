#include "service/session.h"

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace bperf {
namespace service {

namespace {

telemetry::Counter &
ringOffersCounter()
{
    static telemetry::Counter &c =
        telemetry::MetricsRegistry::global().counter("ring.offers");
    return c;
}

telemetry::Counter &
ringDropsCounter()
{
    static telemetry::Counter &c =
        telemetry::MetricsRegistry::global().counter("ring.drops");
    return c;
}

telemetry::Histogram &
ringWaitHistogram()
{
    static telemetry::Histogram &h =
        telemetry::MetricsRegistry::global().histogram("ring.wait_ns");
    return h;
}

telemetry::Histogram &
publishFanoutHistogram()
{
    static telemetry::Histogram &h =
        telemetry::MetricsRegistry::global().histogram(
            "publish.fanout_ns");
    return h;
}

} // namespace

void
SessionStats::merge(const SessionStats &other)
{
    recordsOffered += other.recordsOffered;
    recordsIngested += other.recordsIngested;
    recordsDropped += other.recordsDropped;
    recordsRejected += other.recordsRejected;
    slicesAssembled += other.slicesAssembled;
    windowsRun += other.windowsRun;
    epSweeps += other.epSweeps;
    drainPasses += other.drainPasses;
    inferSeconds += other.inferSeconds;
    windowSeconds.merge(other.windowSeconds);
    modeledWindowSeconds.merge(other.modeledWindowSeconds);
    backendQueueSeconds.merge(other.backendQueueSeconds);
}

Session::Session(SessionId id, const sim::MicroarchDescriptor &uarch,
                 std::vector<sim::EventId> events, SessionConfig config,
                 std::string tenant, WindowSink window_sink)
    : id_(id), tenant_(std::move(tenant)), queue_(config.queueCapacity),
      inference_(uarch, std::move(events), config.streaming),
      windowSink_(std::move(window_sink))
{
}

bool
Session::offer(const sim::PerfRecord &rec)
{
    if (!telemetry::enabled())
        return queue_.push(rec);
    ringOffersCounter().add();
    sim::PerfRecord stamped = rec;
    stamped.ingestNanos = telemetry::nowNanos();
    const bool pushed = queue_.push(stamped);
    if (!pushed)
        ringDropsCounter().add();
    return pushed;
}

std::size_t
Session::drain()
{
    std::size_t drained = 0;
    while (auto rec = queue_.pop()) {
        if (rec->ingestNanos != 0 && telemetry::enabled()) {
            const std::uint64_t now = telemetry::nowNanos();
            if (now > rec->ingestNanos)
                ringWaitHistogram().record(now - rec->ingestNanos);
        }
        // Publish per completed window, not per drain pass: a long
        // backlog drains in one pass, and pollers should see
        // posteriors as soon as the first window lands.
        if (inference_.consume(*rec) > 0) {
            publishPosteriors();
            harvestWindows();
        }
        ++drained;
    }
    publishStats(/*drain_pass=*/true);
    return drained;
}

void
Session::finishStream()
{
    if (inference_.finish() > 0) {
        publishPosteriors();
        harvestWindows();
    }
    publishStats(/*drain_pass=*/false);
}

/**
 * Consume the engine's per-window latency samples: fold them into the
 * published statistics and emit one WindowUpdate per window to the
 * sink (subscriptions, admission in-flight accounting).  Runs on the
 * thread that ran the windows (worker or closer), so the engine reads
 * need no lock.
 */
void
Session::harvestWindows()
{
    const std::vector<core::WindowExecution> executions =
        inference_.takeWindowExecutions();
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        for (const auto &exec : executions) {
            stats_.windowSeconds.push(exec.hostSeconds);
            stats_.modeledWindowSeconds.push(exec.modeledSeconds);
            stats_.backendQueueSeconds.push(exec.queueWaitSeconds);
        }
    }
    if (executions.empty())
        return;
    if (windowSink_ == nullptr) {
        windowsReported_ += executions.size();
        return;
    }

    // The latest posterior is a fine per-window summary here: windows
    // complete one at a time in slice order, so all but the last
    // update of a multi-window harvest (rare: a drain crossing
    // several window boundaries in one record is impossible, but a
    // finish() tail can run two) share the final snapshot.
    WindowUpdate update;
    update.sessionId = id_;
    update.events = inference_.engine().events();
    update.posterior.reserve(update.events.size());
    {
        std::lock_guard<std::mutex> lock(publishMutex_);
        update.posterior = latest_;
    }
    for (const auto &exec : executions) {
        update.windowIndex = windowsReported_++;
        update.windowId = exec.windowOrdinal;
        update.endSlice = exec.endSlice;
        update.execution = exec;
        if (telemetry::enabled()) {
            update.execution.span.publishNanos = telemetry::nowNanos();
            windowSink_(update);
            const std::uint64_t after = telemetry::nowNanos();
            if (after > update.execution.span.publishNanos)
                publishFanoutHistogram().record(
                    after - update.execution.span.publishNanos);
        } else {
            windowSink_(update);
        }
    }
}

/**
 * Copy the engine's counters into the mutex-guarded snapshot.  The
 * engine itself is single-threaded (worker-owned); cross-thread
 * readers only ever see the published copy.
 */
void
Session::publishStats(bool drain_pass)
{
    // Per-window latency samples are folded in by harvestWindows();
    // this publishes the engine's cumulative counters.
    const auto &engine = inference_.engine();
    std::lock_guard<std::mutex> lock(statsMutex_);
    if (drain_pass)
        ++stats_.drainPasses;
    stats_.recordsRejected = inference_.recordsRejected();
    stats_.slicesAssembled = engine.slicesSeen();
    stats_.windowsRun = engine.windowsRun();
    stats_.epSweeps = engine.epSweepsTotal();
    stats_.inferSeconds = engine.inferSeconds();
}

void
Session::publishPosteriors()
{
    const auto &engine = inference_.engine();
    std::lock_guard<std::mutex> lock(publishMutex_);
    if (engine.latestPosteriors(latest_))
        latestValid_ = true;
}

std::optional<core::PosteriorPoint>
Session::latest(sim::EventId event) const
{
    std::lock_guard<std::mutex> lock(publishMutex_);
    if (!latestValid_)
        return std::nullopt;
    const auto &events = inference_.engine().events();
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i] == event)
            return latest_[i];
    }
    return std::nullopt;
}

SessionStats
Session::statsSnapshot() const
{
    SessionStats snap;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        snap = stats_;
    }
    // One coherent (pushed, dropped) pair: reading the two ring
    // counters at different instants could pair a stale push count
    // with a fresh drop count, breaking the snapshot invariant
    // recordsOffered == recordsIngested + recordsDropped against the
    // offer() calls actually completed.
    const sim::RingBuffer::Counters counters = queue_.counters();
    snap.recordsIngested = counters.pushed;
    snap.recordsDropped = counters.dropped;
    snap.recordsOffered = snap.recordsIngested + snap.recordsDropped;
    return snap;
}

} // namespace service
} // namespace bperf
