#include "service/session.h"

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace bperf {
namespace service {

namespace {

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
    epUnconvergedWindows += other.epUnconvergedWindows;
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
    inference_.setWindowHook(
        [this](const core::WindowExecution &exec) { reportWindow(exec); });
}

bool
Session::offer(const sim::PerfRecord &rec)
{
    if (!telemetry::enabled())
        return queue_.push(rec);
    sim::PerfRecord stamped = rec;
    stamped.ingestNanos = telemetry::nowNanos();
    return queue_.push(stamped);
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
        // Windows completed by the record report themselves through
        // reportWindow() as they run.
        inference_.consume(*rec);
        ++drained;
    }
    publishStats();
    return drained;
}

void
Session::finishStream()
{
    inference_.finish();
    publishStats();
}

/**
 * Per-window hook, run by the engine on the thread that ran the window
 * (worker or closer), so the engine reads need no lock.  Publishes the
 * window's posterior, folds its latency samples into the statistics
 * and emits its WindowUpdate to the sink (subscriptions, admission
 * in-flight accounting).  One record can complete many windows (a
 * slice gap up to kMaxSliceGap), and each later window overwrites the
 * engine's latest posterior, so every window is reported as it runs,
 * not once per drain: pollers see posteriors as soon as the first
 * window lands and every update carries its own window's posterior.
 */
void
Session::reportWindow(const core::WindowExecution &exec)
{
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.windowSeconds.push(exec.hostSeconds);
        stats_.modeledWindowSeconds.push(exec.modeledSeconds);
        stats_.backendQueueSeconds.push(exec.queueWaitSeconds);
    }
    WindowUpdate update;
    {
        std::lock_guard<std::mutex> lock(publishMutex_);
        if (inference_.engine().latestPosteriors(latest_))
            latestValid_ = true;
        if (windowSink_ != nullptr)
            update.posterior = latest_;
    }
    if (windowSink_ == nullptr) {
        ++windowsReported_;
        return;
    }

    update.sessionId = id_;
    update.events = inference_.engine().events();
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

/**
 * Copy the engine's counters into the mutex-guarded snapshot.  The
 * engine itself is single-threaded (worker-owned); cross-thread
 * readers only ever see the published copy.
 */
void
Session::publishStats()
{
    // Per-window latency samples are folded in by reportWindow();
    // this publishes the engine's cumulative counters.
    const auto &engine = inference_.engine();
    std::lock_guard<std::mutex> lock(statsMutex_);
    stats_.recordsRejected = inference_.recordsRejected();
    stats_.slicesAssembled = engine.slicesSeen();
    stats_.windowsRun = engine.windowsRun();
    stats_.epSweeps = engine.epSweepsTotal();
    stats_.epUnconvergedWindows = engine.epUnconvergedWindows();
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
