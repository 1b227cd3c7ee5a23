#include "pipeline.h"

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stop_token>
#include <thread>

#include "common/stats.h"
#include "service/monitor_service.h"
#include "service/slice_assembler.h"
#include "service/streaming_inference.h"
#include "shim/snapshot_reader.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace pipebench {

using namespace bperf;

namespace {

constexpr std::size_t kWorkers = 2;
/** Set-ups per pass: setup_s is their median, and the last set-up
 * service runs the workload. */
constexpr std::size_t kSetupRepeats = 25;
/** Steady state run before measuring starts (not measured); the
 * first second after set-up can hold a 100-250 ms stall. */
constexpr double kWarmSeconds = 2.0;
/** Two-sided 95% normal quantile (credible-interval half width). */
constexpr double kZ95 = 1.959963984540054;
/** Poll period of the light poller: one pass over every slot. */
constexpr std::uint64_t kLightPollPeriodNanos = 1'000'000;
/**
 * How long a poll of one session re-reads after a Torn or WriterDead
 * verdict before it counts as failed.  SnapshotReader judges a writer
 * dead when a slot's sequence stays on one odd value for 33
 * consecutive retries of its default 64.  That spin can end before a
 * publish does, so a read that lands mid-publish can get WriterDead
 * from a live writer.  A writer that is alive closes the publish and
 * a later read is Ok; a slot still odd after a second is dead.
 */
constexpr std::uint64_t kPollGiveUpNanos = 1'000'000'000;
/** Reads per session when the workload has no poller: taken after
 * the timed phase, with the service quiescent. */
constexpr std::size_t kQuiescentReadsPerSession = 25000;
/**
 * freshness_p99_ms is taken per block of this many consecutive
 * windows (by due time) and reported as the median over blocks, so
 * that a host stall (a shared machine can stop a vCPU for 1-250 ms)
 * moves the blocks it hits instead of the result.  1000 windows give
 * each block a true p99 with ten windows beyond it.
 */
constexpr std::size_t kBlockWindows = 1000;
/**
 * Reconciliation bound of the traced run: a window's hops (due ->
 * ingest -> assemble -> EP start -> EP end -> publish -> callback)
 * must add up to its traced freshness within this many nanoseconds.
 * Every stamp is on the one steady clock, so a sound trace adds up
 * exactly; a missing, reordered or misattributed stamp does not.
 */
constexpr std::uint64_t kReconcileBoundNanos = 1000;
/** Hop names, in the order of the stamps that end them. */
constexpr const char *kHops[6] = {"due->ingest", "ring",    "dispatch",
                                  "ep",          "publish", "delivery"};

std::uint64_t
now()
{
    return telemetry::nowNanos();
}

double
clockSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Sleep until a telemetry::nowNanos() instant (same clock). */
void
sleepUntil(std::uint64_t nanos)
{
    const timespec ts{static_cast<time_t>(nanos / 1'000'000'000),
                      static_cast<long>(nanos % 1'000'000'000)};
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) !=
           0) {
    }
}

std::uint64_t
bits(double x)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/** FNV-1a over (event, mean bits, stddev bits) triples: two equal
 * hashes mean bit-identical posteriors. */
class PosteriorHash
{
  public:
    void add(EventId event, const core::PosteriorPoint &p)
    {
        word(event);
        word(bits(p.mean));
        word(bits(p.stddev));
    }
    std::uint64_t value() const { return h_; }

  private:
    void word(std::uint64_t w)
    {
        for (int b = 0; b < 8; ++b) {
            h_ ^= (w >> (8 * b)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Exact percentiles of many non-negative integers: unit-wide buckets
 * up to 2^16 units, larger values kept as they are.  Holds millions
 * of shim reads without storing each one.
 */
class LinearHistogram
{
  public:
    explicit LinearHistogram(std::uint64_t unit) : unit_(unit) {}

    void add(std::uint64_t v)
    {
        const std::uint64_t b = v / unit_;
        if (b < kBuckets)
            ++buckets_[b];
        else
            overflow_.push_back(v);
        ++count_;
    }

    /** Linear-interpolated percentile (bperf::percentile's rule), in
     * the added values' units; 0 when empty. */
    double percentile(double p) const
    {
        if (count_ == 0)
            return 0.0;
        const double rank = p / 100.0 * static_cast<double>(count_ - 1);
        const auto lo = static_cast<std::uint64_t>(std::floor(rank));
        const double a = atRank(lo);
        const double b = lo + 1 < count_ ? atRank(lo + 1) : a;
        return a + (rank - static_cast<double>(lo)) * (b - a);
    }

  private:
    static constexpr std::size_t kBuckets = 1 << 16;

    double atRank(std::uint64_t rank) const
    {
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            seen += buckets_[b];
            if (seen > rank)
                return static_cast<double>(b * unit_) +
                       0.5 * static_cast<double>(unit_ - 1);
        }
        std::vector<std::uint64_t> big = overflow_;
        const auto k = static_cast<std::ptrdiff_t>(rank - seen);
        std::nth_element(big.begin(), big.begin() + k, big.end());
        return static_cast<double>(big[static_cast<std::size_t>(k)]);
    }

    std::uint64_t unit_;
    std::vector<std::uint32_t> buckets_ =
        std::vector<std::uint32_t>(kBuckets);
    std::vector<std::uint64_t> overflow_;
    std::uint64_t count_ = 0;
};

/** The highest percentile up to 99 that has at least ten samples
 * beyond it (the median when the sample is that small). */
double
tailPercent(std::size_t n)
{
    if (n <= 20)
        return 50.0;
    return std::min(99.0, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

double
pct(const std::vector<double> &xs, double p)
{
    return xs.empty() ? 0.0 : percentile(xs, p);
}

std::string
fmt(double x, int precision = 4)
{
    std::ostringstream os;
    os.precision(precision);
    os << x;
    return os.str();
}

/**
 * One lowest-priority (SCHED_IDLE) busy-waiting thread per CPU while
 * a pass is set up and measured.  They take only time no other thread
 * wants, and a waking thread preempts them at once; but they keep
 * every CPU out of its idle state.  On a virtual machine a halted
 * vCPU must be rescheduled by the host before a thread woken on it
 * runs, which adds host-dependent milliseconds to each wake-up of the
 * pipeline's threads; the spinners keep that out of the measurement
 * (the user-space form of the kernel's idle=poll).
 */
class IdleSpinners
{
  public:
    explicit IdleSpinners(std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            threads_.emplace_back([](std::stop_token stop) {
                sched_param param{};
                pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
                while (!stop.stop_requested()) {
#if defined(__x86_64__) || defined(__i386__)
                    __builtin_ia32_pause();
#elif defined(__aarch64__)
                    asm volatile("yield");
#endif
                }
            });
            clockid_t clock{};
            pthread_getcpuclockid(threads_.back().native_handle(), &clock);
            clocks_.push_back(clock);
        }
    }

    /** CPU time the spinners have used. */
    double cpuSeconds() const
    {
        double total = 0.0;
        for (clockid_t c : clocks_)
            total += clockSeconds(c);
        return total;
    }

  private:
    std::vector<std::jthread> threads_;
    std::vector<clockid_t> clocks_;
};

/** One delivered window, as the subscriber callback saw it. */
struct WindowRecord
{
    std::uint64_t windowId = 0;
    std::uint64_t windowIndex = 0;
    std::uint64_t endSlice = 0;
    std::uint64_t callbackNanos = 0;
    std::uint64_t hash = 0;
    core::WindowSpan span;
};

/** One slice batch the generator sent. */
struct SendRecord
{
    /** When it was due: its scheduled time in the open loop, its send
     * time in the closed loop. */
    std::uint64_t due = 0;
    /** The ingestBatch call (its end only in the traced run). */
    std::uint64_t start = 0;
    std::uint64_t end = 0;
};

/** Everything the benchmark tracks about one session. */
struct SessionState
{
    service::SessionId id = 0;
    service::SubscriptionId subscription = 0;
    /** Written by the dispatcher thread only. */
    std::vector<WindowRecord> windows;
    std::atomic<std::uint64_t> delivered{0};
    /** Written by the generator thread only; index = stream slice. */
    std::vector<SendRecord> sends;
    std::uint64_t offered = 0;
    /** Windows delivered by the end of the steady state. */
    std::size_t steadyWindows = 0;
};

/** What the shim poller saw. */
struct PollLog
{
    /** Polls: one per session per pass over the slots. */
    std::uint64_t polls = 0;
    /** Polls that got no Ok read (NotFound, Corrupt, or no Ok within
     * kPollGiveUpNanos). */
    std::uint64_t failedPolls = 0;
    /** read() calls, re-reads after Torn/WriterDead included. */
    std::uint64_t reads = 0;
    std::uint64_t reReads = 0;
    /** Reads timed (not preempted). */
    LinearHistogram readNanos{1};
    std::uint64_t preemptedReads = 0;
    long preemptions = 0;
    LinearHistogram ageNanos{100};
    std::uint64_t retries = 0;
    std::uint64_t notFound = 0;
    /** Two Ok reads of one window that disagreed. */
    std::uint64_t mismatched = 0;
    /** Per session: every distinct (windowIndex, hash) read Ok. */
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> seen;
};

/**
 * Slices session j streams while the service is set up: slices 0..k,
 * the last of which completes the first window, plus, in the open
 * loop, j mod stride more.  The schedule sends every session's next
 * slice in turn, so without that offset all sessions would complete
 * their windows in the same round and queue behind each other.
 */
std::size_t
warmupSlices(const WorkloadSpec &spec, std::size_t j)
{
    const std::size_t stride =
        std::max<std::size_t>(1, spec.windowSlices / 2);
    return spec.windowSlices + 1 + (spec.openLoop ? j % stride : 0);
}

/**
 * A service set up for the workload: constructed, every session
 * opened and subscribed, and warmed up until each session's first
 * window was delivered — which is what setup_s times.
 */
class Harness
{
  public:
    Harness(const sim::MicroarchDescriptor &uarch, const WorkloadSpec &spec,
            const std::vector<SessionInput> &inputs, bool traced,
            telemetry::TraceCollector *trace, std::size_t expected_windows)
        : inputs_(inputs), traced_(traced)
    {
        const std::uint64_t t0 = now();
        service::MonitorServiceConfig cfg;
        cfg.numWorkers = kWorkers;
        cfg.sessionDefaults =
            sessionConfig(spec, inputs.front().schedulePeriod);
        cfg.snapshot.enabled = true;
        cfg.trace = trace;
        service_ = std::make_unique<service::MonitorService>(uarch, cfg);
        for (std::size_t j = 0; j < spec.sessions; ++j) {
            auto st = std::make_unique<SessionState>();
            st->windows.reserve(expected_windows);
            const std::uint64_t o0 = now();
            st->id = service_->open(spec.events);
            if (traced)
                openMicros_.push_back(1e-3 *
                                      static_cast<double>(now() - o0));
            SessionState *raw = st.get();
            st->subscription = *service_->subscribe(
                st->id, [this, raw](const service::WindowUpdate &u) {
                    onWindow(*raw, u);
                });
            sessions_.push_back(std::move(st));
        }
        wake_.store(true);
        for (std::size_t j = 0; j < spec.sessions; ++j)
            for (std::size_t s = 0; s < warmupSlices(spec, j); ++s)
                send(j, s, 0);
        waitUntil([this] {
            for (const auto &st : sessions_)
                if (st->delivered.load(std::memory_order_acquire) == 0)
                    return false;
            return true;
        });
        wake_.store(false);
        setupSeconds_ = 1e-9 * static_cast<double>(now() - t0);
    }

    Harness(const Harness &) = delete;
    Harness &operator=(const Harness &) = delete;

    double setupSeconds() const { return setupSeconds_; }
    const std::vector<double> &openMicros() const { return openMicros_; }
    service::MonitorService &service() { return *service_; }
    SessionState &session(std::size_t j) { return *sessions_[j]; }

    /** Send stream slice s of session j, due at `due` (0 = now). */
    void send(std::size_t j, std::size_t s, std::uint64_t due)
    {
        SessionState &st = *sessions_[j];
        inputs_[j].recordsOf(s, batch_);
        SendRecord rec;
        rec.start = now();
        rec.due = due != 0 ? due : rec.start;
        service_->ingestBatch(st.id, batch_);
        if (traced_)
            rec.end = now();
        st.offered += batch_.size();
        if (st.sends.size() <= s)
            st.sends.resize(s + 1);
        st.sends[s] = rec;
    }

    /** Block until `ready` holds, re-checked after every delivered
     * window, or until `deadline` (telemetry clock; 0 = none). */
    template <typename Pred>
    void waitUntil(Pred ready, std::uint64_t deadline = 0)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (deadline == 0) {
            cv_.wait(lock, ready);
            return;
        }
        cv_.wait_until(lock,
                       std::chrono::steady_clock::time_point(
                           std::chrono::nanoseconds(deadline)),
                       ready);
    }

    /** Have the subscriber callbacks wake waitUntil() callers. */
    void setWake(bool on) { wake_.store(on); }

    /** The dispatcher thread's CPU clock, once it delivered. */
    bool dispatcherClock(clockid_t &clock) const
    {
        if (!dispatcherClockSet_.load(std::memory_order_acquire))
            return false;
        clock = dispatcherClock_;
        return true;
    }

    /** Close every session (the caller quiesced the service). */
    std::vector<service::SessionReport>
    closeAll(std::vector<double> &close_ms)
    {
        std::vector<service::SessionReport> reports;
        for (auto &st : sessions_) {
            const std::uint64_t c0 = now();
            reports.push_back(*service_->close(st->id));
            close_ms.push_back(1e-6 * static_cast<double>(now() - c0));
        }
        service_->flushSubscriptions();
        return reports;
    }

  private:
    /** Subscriber callback (dispatcher thread): log and wake. */
    void onWindow(SessionState &st, const service::WindowUpdate &u)
    {
        if (!dispatcherClockSet_.load(std::memory_order_relaxed)) {
            pthread_getcpuclockid(pthread_self(), &dispatcherClock_);
            dispatcherClockSet_.store(true, std::memory_order_release);
        }
        WindowRecord rec;
        rec.callbackNanos = now();
        rec.windowId = u.windowId;
        rec.windowIndex = u.windowIndex;
        rec.endSlice = u.endSlice;
        PosteriorHash hash;
        for (std::size_t i = 0; i < u.events.size(); ++i)
            hash.add(u.events[i], u.posterior[i]);
        rec.hash = hash.value();
        rec.span = u.execution.span;
        st.windows.push_back(rec);
        st.delivered.fetch_add(1, std::memory_order_release);
        if (wake_.load(std::memory_order_relaxed)) {
            { std::lock_guard<std::mutex> lock(mutex_); }
            cv_.notify_one();
        }
    }

    const std::vector<SessionInput> &inputs_;
    const bool traced_;
    std::vector<std::unique_ptr<SessionState>> sessions_;
    std::vector<PerfRecord> batch_;
    std::vector<double> openMicros_;
    double setupSeconds_ = 0.0;

    std::mutex mutex_;
    std::condition_variable cv_;
    std::atomic<bool> wake_{false};
    std::atomic<bool> dispatcherClockSet_{false};
    clockid_t dispatcherClock_{};

    /** Declared last: destroyed first, so the dispatcher is joined
     * before the session states its callbacks write go away. */
    std::unique_ptr<service::MonitorService> service_;
};

/** Involuntary context switches of the calling thread so far. */
long
preemptions()
{
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return ru.ru_nivcsw;
}

/**
 * One timed read of session j's slot.  A read during which the
 * poller was preempted is counted but not timed: its duration would
 * be the scheduler's, not the read's.
 */
shim::ReadStatus
timedRead(const shim::SnapshotReader &reader, std::uint64_t id,
          shim::PosteriorSnapshot &snap, PollLog &log)
{
    const std::uint64_t t0 = now();
    const shim::ReadStatus status = reader.read(id, snap);
    const std::uint64_t t1 = now();
    const long switches = preemptions();
    if (switches == log.preemptions)
        log.readNanos.add(t1 - t0);
    else
        ++log.preemptedReads;
    log.preemptions = switches;
    ++log.reads;
    if (status == shim::ReadStatus::NotFound)
        ++log.notFound;
    return status;
}

/**
 * One poll of session j, as a consumer makes it: read, and re-read
 * while the verdict is one a live writer can cause (Torn, or
 * WriterDead mid-publish; see kPollGiveUpNanos).  Every read counts
 * in ReaderStats and ops_failed_pct; the poll fails only without an
 * Ok read.
 */
void
pollOnce(const shim::SnapshotReader &reader, std::uint64_t id,
         std::size_t j, shim::PosteriorSnapshot &snap, PollLog &log)
{
    ++log.polls;
    shim::ReadStatus status = timedRead(reader, id, snap, log);
    const std::uint64_t give_up = now() + kPollGiveUpNanos;
    while ((status == shim::ReadStatus::Torn ||
            status == shim::ReadStatus::WriterDead) &&
           now() < give_up) {
        ++log.reReads;
        status = timedRead(reader, id, snap, log);
    }
    if (status != shim::ReadStatus::Ok) {
        ++log.failedPolls;
        return;
    }
    log.ageNanos.add(snap.ageNanos);
    log.retries += snap.retries;
    PosteriorHash hash;
    for (const auto &c : snap.counters)
        hash.add(c.event, c.posterior);
    auto &seen = log.seen[j];
    if (!seen.empty() && seen.back().first == snap.windowIndex) {
        if (seen.back().second != hash.value())
            ++log.mismatched;
        return;
    }
    seen.emplace_back(snap.windowIndex, hash.value());
}

/** CPU clocks sampled at one instant of the steady state. */
struct CpuSample
{
    std::uint64_t wall = 0;
    double process = 0.0;
    /** The benchmark's own threads. */
    double generator = 0.0;
    double poller = 0.0;
    double spinners = 0.0;
    /** The service's subscription dispatcher. */
    double dispatcher = 0.0;
};

/** Single-thread replay of one session's stream. */
struct Replay
{
    core::InferenceResult result;
    double seconds = 0.0;
    std::size_t slices = 0;
    /** Workspace + model buffer growths after the first window. */
    std::size_t allocationsAfterFirstWindow = 0;
};

Replay
replaySession(const sim::MicroarchDescriptor &uarch, const WorkloadSpec &spec,
              const SessionInput &input, std::size_t slices_sent)
{
    Replay out;
    service::StreamingInference inference(
        uarch, input.monitored,
        sessionConfig(spec, input.schedulePeriod).streaming);
    std::vector<PerfRecord> batch;
    bool first = true;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < slices_sent; ++s) {
        input.recordsOf(s, batch);
        for (const PerfRecord &rec : batch) {
            if (inference.consume(rec) > 0 && first) {
                first = false;
                out.allocationsAfterFirstWindow =
                    inference.epWorkspaceAllocations() +
                    inference.engine().modelAllocations();
            }
        }
    }
    inference.finish();
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    out.slices = inference.slicesAssembled();
    out.result = inference.takeResult();
    return out;
}

/** Bitwise equality of two posteriors; `why` names the difference. */
bool
samePosterior(const core::InferenceResult &a, const core::InferenceResult &b,
              std::string &why)
{
    if (a.events != b.events || a.firstSlice != b.firstSlice ||
        a.windowsRun != b.windowsRun || a.epSweepsTotal != b.epSweepsTotal ||
        a.series.size() != b.series.size()) {
        why = "events, windows or sweeps differ";
        return false;
    }
    for (std::size_t i = 0; i < a.series.size(); ++i) {
        if (a.series[i].size() != b.series[i].size() ||
            std::memcmp(a.series[i].data(), b.series[i].data(),
                        a.series[i].size() *
                            sizeof(core::PosteriorPoint)) != 0) {
            why = "posterior bits differ for event " +
                  std::to_string(a.events[i]);
            return false;
        }
    }
    return true;
}

/** One pass: set up, steady state, close, replay, check, measure. */
class Pass
{
  public:
    Pass(const sim::MicroarchDescriptor &uarch, const WorkloadSpec &spec,
         const std::vector<SessionInput> &inputs, const PassOptions &options)
        : uarch_(uarch), spec_(spec), inputs_(inputs), options_(options),
          S_(spec.sessions),
          stride_(std::max<std::size_t>(1, spec.windowSlices / 2)),
          rate_(options.rate > 0.0 ? options.rate : spec.sliceRate)
    {
    }

    PassResult run()
    {
        prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
        {
            IdleSpinners spinners(std::thread::hardware_concurrency());
            spinners_ = &spinners;
            setUp();
            steadyState();
            spinners_ = nullptr;
        }
        finish();
        // peak_rss_mb is the pipeline's: the replay below is the
        // gate's reference, and its memory grows with the slices a
        // run processed, which on a closed loop follow host speed.
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        out_.metrics["peak_rss_mb"] =
            static_cast<double>(ru.ru_maxrss) / 1024.0;
        replayAll();
        check();
        endToEnd();
        if (options_.traced)
            perLayer();
        return std::move(out_);
    }

  private:
    void setUp()
    {
        if (options_.traced)
            trace_ = std::make_unique<telemetry::TraceCollector>();
        const std::size_t expected_windows =
            spec_.openLoop ? slicesPerSession(spec_, options_) / stride_ + 8
                           : 1 << 16;
        // Set up several times; the last service runs the workload.
        for (std::size_t r = 0; r < kSetupRepeats; ++r) {
            const bool last = r + 1 == kSetupRepeats;
            h_.reset();
            h_ = std::make_unique<Harness>(uarch_, spec_, inputs_,
                                           options_.traced,
                                           last ? trace_.get() : nullptr,
                                           expected_windows);
            setupSeconds_.push_back(h_->setupSeconds());
            openMicros_.insert(openMicros_.end(), h_->openMicros().begin(),
                               h_->openMicros().end());
            if (!last) {
                h_->service().quiesce();
                std::vector<double> ignored;
                h_->closeAll(ignored);
            }
        }
        for (std::size_t j = 0; j < S_; ++j)
            nextSlice_.push_back(warmupSlices(spec_, j));
        h_->service().quiesce();
        h_->service().flushSubscriptions();
        telemetry::MetricsRegistry::global().reset();
        reader_.emplace(*h_->service().snapshotRegion());
        poll_.seen.resize(S_);
    }

    void steadyState()
    {
        std::jthread poller;
        if (spec_.poller != PollerMode::None) {
            poller = std::jthread([this](std::stop_token stop) {
                prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
                // The poller reads in whatever CPU time the pipeline
                // leaves: as a normal thread it would be a fifth
                // runnable thread on four CPUs and delay the
                // pipeline's wake-ups by whole scheduler slices.
                sched_param param{};
                pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
                shim::PosteriorSnapshot snap;
                std::uint64_t next = now();
                while (!stop.stop_requested()) {
                    for (std::size_t j = 0; j < S_; ++j)
                        pollOnce(*reader_, h_->session(j).id, j, snap, poll_);
                    if (spec_.poller == PollerMode::Light) {
                        next += kLightPollPeriodNanos;
                        const std::uint64_t t = now();
                        if (next > t)
                            sleepUntil(next);
                        else
                            next = t;
                    }
                }
            });
            pthread_getcpuclockid(poller.native_handle(), &pollerClock_);
            hasPoller_ = true;
        }
        const std::uint64_t t0 = now() + 1'000'000;
        const std::uint64_t m0 =
            t0 + static_cast<std::uint64_t>(kWarmSeconds * 1e9);
        const std::uint64_t end =
            m0 + static_cast<std::uint64_t>(options_.seconds * 1e9);
        if (spec_.openLoop)
            openLoop(t0, m0, end);
        else
            closedLoop(t0, m0, end);
        poller = {}; // stop and join
        h_->service().quiesce();
        h_->service().flushSubscriptions();
        for (std::size_t j = 0; j < S_; ++j)
            h_->session(j).steadyWindows = h_->session(j).windows.size();
    }

    /** Slot i: session i mod S sends its next slice, due t0 + i/rate
     * (sessions' slice clocks are staggered by 1/rate each). */
    void openLoop(std::uint64_t t0, std::uint64_t m0, std::uint64_t end)
    {
        const double interval = 1e9 / rate_;
        bool measuring = false;
        for (std::uint64_t i = 0;; ++i) {
            const std::uint64_t due =
                t0 + static_cast<std::uint64_t>(static_cast<double>(i) *
                                                interval);
            if (due >= end)
                break;
            if (!measuring && due >= m0) {
                sleepUntil(m0);
                c0_ = sample();
                measuring = true;
            }
            if (now() < due)
                sleepUntil(due);
            const std::size_t j = i % S_;
            h_->send(j, nextSlice_[j]++, due);
            if (measuring)
                latenessMicros_.push_back(
                    1e-3 *
                    static_cast<double>(h_->session(j).sends.back().start -
                                        due));
        }
        sleepUntil(end);
        c1_ = sample();
    }

    /** Each session sends the slices that complete its next window
     * only after its previous window was delivered. */
    void closedLoop(std::uint64_t t0, std::uint64_t m0, std::uint64_t end)
    {
        std::vector<std::uint64_t> expected(S_, 1);
        auto ready = [&](std::size_t j) {
            return h_->session(j).delivered.load(std::memory_order_acquire) >=
                   expected[j];
        };
        h_->setWake(true);
        sleepUntil(t0);
        bool measuring = false;
        for (;;) {
            const std::uint64_t t = now();
            if (!measuring && t >= m0) {
                c0_ = sample();
                measuring = true;
            }
            if (t >= end)
                break;
            bool sent = false;
            for (std::size_t j = 0; j < S_; ++j) {
                if (!ready(j))
                    continue;
                for (std::size_t s = 0; s < stride_; ++s)
                    h_->send(j, nextSlice_[j]++, 0);
                ++expected[j];
                sent = true;
            }
            if (!sent)
                h_->waitUntil(
                    [&] {
                        for (std::size_t j = 0; j < S_; ++j)
                            if (ready(j))
                                return true;
                        return false;
                    },
                    measuring ? end : m0);
        }
        c1_ = sample();
        h_->setWake(false);
    }

    CpuSample sample() const
    {
        CpuSample c;
        c.wall = now();
        c.process = processCpuSeconds();
        c.generator = clockSeconds(CLOCK_THREAD_CPUTIME_ID);
        if (hasPoller_)
            c.poller = clockSeconds(pollerClock_);
        c.spinners = spinners_->cpuSeconds();
        clockid_t dispatcher{};
        if (h_->dispatcherClock(dispatcher))
            c.dispatcher = clockSeconds(dispatcher);
        return c;
    }

    /** Counters at the end of the steady state, quiescent shim reads
     * for poller-less workloads, then every session's close(). */
    void finish()
    {
        auto &registry = telemetry::MetricsRegistry::global();
        fanout_ = registry.histogramSnapshot("publish.fanout_ns");
        shimPublish_ = registry.histogramSnapshot("shim.publish_ns");
        if (spec_.poller == PollerMode::None) {
            shim::PosteriorSnapshot snap;
            for (std::size_t r = 0; r < kQuiescentReadsPerSession; ++r)
                for (std::size_t j = 0; j < S_; ++j)
                    pollOnce(*reader_, h_->session(j).id, j, snap, poll_);
        }
        readerStats_ = reader_->stats();
        reports_ = h_->closeAll(closeMillis_);
        for (std::size_t j = 0; j < S_; ++j) {
            const auto stats =
                *h_->service().subscriptionStats(h_->session(j).subscription);
            updatesPublished_ += stats.published;
            updatesDropped_ += stats.dropped;
        }
    }

    /** Replay every session's stream through a single-thread
     * StreamingInference, sessions in parallel: the gate's reference,
     * and (per-session seconds summed) core.seq_slices_per_s. */
    void replayAll()
    {
        replays_.resize(S_);
        std::atomic<std::size_t> next{0};
        auto work = [&] {
            for (std::size_t j; (j = next.fetch_add(1)) < S_;)
                replays_[j] =
                    replaySession(uarch_, spec_, inputs_[j], nextSlice_[j]);
        };
        {
            std::vector<std::jthread> pool;
            for (std::size_t t = 1; t < std::thread::hardware_concurrency();
                 ++t)
                pool.emplace_back(work);
            work();
        }
    }

    /** The correctness gate, plus accuracy against the truth. */
    void check()
    {
        double bp_err = 0.0, linux_err = 0.0, covered = 0.0;
        bool flipped = false;
        for (std::size_t j = 0; j < S_; ++j) {
            const SessionState &st = h_->session(j);
            const service::SessionReport &rep = reports_[j];
            const core::InferenceResult &post = rep.posterior;
            const SessionInput &in = inputs_[j];
            const std::string who = "session " + std::to_string(j) + ": ";
            auto fail = [&](const std::string &what) {
                out_.failures.push_back(who + what);
            };
            recordsOffered_ += st.offered;
            recordsDropped_ += rep.stats.recordsDropped;
            recordsRejected_ += rep.stats.recordsRejected;

            if (rep.stats.recordsDropped + rep.stats.recordsRejected == 0) {
                core::InferenceResult &reference = replays_[j].result;
                if (options_.flipPosteriorBit && !flipped) {
                    double &x = reference.series[0][0].mean;
                    const std::uint64_t flip = bits(x) ^ 1;
                    std::memcpy(&x, &flip, sizeof x);
                    flipped = true;
                }
                std::string why;
                if (!samePosterior(post, reference, why))
                    fail("close() posterior differs from the single-thread "
                         "replay (" + why + ")");
            }
            if (st.windows.size() != post.windowsRun)
                fail(std::to_string(st.windows.size()) +
                     " windows delivered, " + std::to_string(post.windowsRun) +
                     " run");
            for (std::size_t w = 0; w < st.windows.size(); ++w) {
                if (st.windows[w].windowId != w + 1 ||
                    st.windows[w].windowIndex != w) {
                    fail("window ids not gap-free at delivery " +
                         std::to_string(w));
                    break;
                }
            }
            for (const auto &[index, hash] : poll_.seen[j]) {
                if (index >= st.windows.size() ||
                    st.windows[index].hash != hash) {
                    fail("shim read of window " + std::to_string(index) +
                         " does not match the subscription stream");
                    break;
                }
            }
            if (post.events != in.monitored) {
                fail("monitored events differ from the generated input");
                continue;
            }
            for (std::size_t i = 0; i < post.series.size(); ++i) {
                for (std::size_t t = 0; t < post.series[i].size(); ++t) {
                    const std::size_t b =
                        (post.firstSlice + t) % in.generatedSlices();
                    const double truth = in.truth[b][i];
                    if (!(truth > 0.0))
                        continue;
                    const core::PosteriorPoint &p = post.series[i][t];
                    bp_err += std::abs(p.mean - truth) / truth;
                    linux_err +=
                        std::abs(in.perfEstimate[b][i] - truth) / truth;
                    if (std::abs(p.mean - truth) <= kZ95 * p.stddev)
                        covered += 1.0;
                    points_ += 1.0;
                }
            }
        }
        if (poll_.mismatched > 0)
            out_.failures.push_back(std::to_string(poll_.mismatched) +
                                    " shim reads of one window disagreed");
        if (options_.flipPosteriorBit && !flipped)
            out_.failures.push_back("no session kept every record, so no "
                                    "posterior was compared");
        errorPct_ = 100.0 * bp_err / points_;
        coveragePct_ = 100.0 * covered / points_;
        const double linux_pct = 100.0 * linux_err / points_;
        out_.accuracyClaimMet = errorPct_ < linux_pct;
        out_.notes.push_back(
            std::string("accuracy claim ") +
            (out_.accuracyClaimMet ? "met" : "NOT MET") +
            ": BayesPerf error " + fmt(errorPct_) + "% vs Linux " +
            fmt(linux_pct) + "% over " + fmt(points_, 10) +
            " (event, slice) points; 95% CI coverage " + fmt(coveragePct_) +
            "%");
    }

    void endToEnd()
    {
        // Steady-state windows: slices inferred by callback time,
        // freshness (and, traced, hops) by due time.
        std::vector<std::pair<std::uint64_t, double>> by_due;
        for (std::size_t j = 0; j < S_; ++j) {
            const SessionState &st = h_->session(j);
            for (std::size_t w = 1; w < st.steadyWindows; ++w) {
                const WindowRecord &rec = st.windows[w];
                if (rec.callbackNanos >= c0_.wall &&
                    rec.callbackNanos <= c1_.wall)
                    slicesInferred_ += static_cast<double>(
                        rec.endSlice - st.windows[w - 1].endSlice);
                const SendRecord &send = st.sends[rec.endSlice];
                if (send.due < c0_.wall || send.due > c1_.wall)
                    continue;
                const double fresh =
                    1e-6 * static_cast<double>(rec.callbackNanos - send.due);
                freshMillis_.push_back(fresh);
                by_due.emplace_back(send.due, fresh);
                if (options_.traced)
                    traceHops(rec, send);
            }
        }
        wallSeconds_ = 1e-9 * static_cast<double>(c1_.wall - c0_.wall);
        daemonCpu_ = (c1_.process - c0_.process) -
                     (c1_.generator - c0_.generator) -
                     (c1_.poller - c0_.poller) -
                     (c1_.spinners - c0_.spinners);
        tailP_ = tailPercent(freshMillis_.size());
        std::sort(by_due.begin(), by_due.end());
        const std::size_t n_blocks =
            std::max<std::size_t>(1, by_due.size() / kBlockWindows);
        std::vector<double> block_tails;
        for (std::size_t b = 0; b < n_blocks; ++b) {
            // The last block takes the remainder.
            const auto first = by_due.begin() + static_cast<std::ptrdiff_t>(
                                                    b * kBlockWindows);
            const auto last = b + 1 == n_blocks
                                  ? by_due.end()
                                  : first + static_cast<std::ptrdiff_t>(
                                                kBlockWindows);
            std::vector<double> block;
            for (auto it = first; it != last; ++it)
                block.push_back(it->second);
            block_tails.push_back(pct(block, tailPercent(block.size())));
        }

        auto &m = out_.metrics;
        m["setup_s"] = median(setupSeconds_);
        m["throughput_slices_per_s"] = slicesInferred_ / wallSeconds_;
        m["freshness_p50_ms"] = pct(freshMillis_, 50.0);
        m["freshness_p99_ms"] = median(block_tails);
        m["shim_read_p50_ns"] = poll_.readNanos.percentile(50.0);
        m["shim_read_p99_ns"] = poll_.readNanos.percentile(99.0);
        m["error_pct"] = errorPct_;
        m["calib_gap_pct"] = std::abs(coveragePct_ - 95.0);
        m["daemon_cpu_us_per_slice"] = 1e6 * daemonCpu_ / slicesInferred_;

        // ops_failed_pct counts every read() verdict; attempted and
        // failed count polls (pollOnce).
        const shim::ReaderStats &rs = readerStats_;
        const std::uint64_t reads = poll_.reads;
        const std::uint64_t lost =
            recordsDropped_ + recordsRejected_ + updatesDropped_;
        out_.attempted = recordsOffered_ + updatesPublished_ + poll_.polls;
        out_.failed = lost + poll_.failedPolls;
        m["ops_failed_pct"] =
            100.0 *
            static_cast<double>(lost + rs.tornReads + rs.corruptReads +
                                rs.deadReads + poll_.notFound) /
            static_cast<double>(recordsOffered_ + updatesPublished_ + reads);

        std::ostringstream note;
        note << "steady state " << fmt(wallSeconds_) << " s: "
             << fmt(slicesInferred_, 10) << " slices inferred ("
             << fmt(m["throughput_slices_per_s"]) << "/s";
        if (spec_.openLoop)
            note << " against " << fmt(rate_) << "/s offered";
        note << "); freshness over " << freshMillis_.size() << " windows: p"
             << fmt(tailP_, 3) << " " << fmt(pct(freshMillis_, tailP_))
             << " ms overall; " << n_blocks << " block tails";
        for (double t : block_tails)
            note << " " << fmt(t, 3);
        note << " ms";
        out_.notes.push_back(note.str());
        note.str("");
        note << poll_.polls << " shim polls"
             << (spec_.poller == PollerMode::None ? " (quiescent)" : "")
             << ", " << poll_.failedPolls << " failed; " << reads
             << " reads (" << poll_.reReads << " re-reads after torn/"
             << "writer dead, " << poll_.preemptedReads
             << " preempted, untimed)"
             << ": ok " << rs.okReads << ", not found " << rs.notFoundReads
             << ", torn " << rs.tornReads << ", corrupt " << rs.corruptReads
             << ", writer dead " << rs.deadReads << "; records offered "
             << recordsOffered_ << ", dropped " << recordsDropped_
             << ", rejected " << recordsRejected_ << "; window updates "
             << updatesPublished_ << ", dropped " << updatesDropped_;
        out_.notes.push_back(note.str());
        note.str("");
        note << "set-up seconds (median of " << setupSeconds_.size() << "):";
        for (double s : setupSeconds_)
            note << " " << fmt(s);
        out_.notes.push_back(note.str());
    }

    /** One steady-state window of the traced pass: its hops, checked
     * against its freshness. */
    void traceHops(const WindowRecord &rec, const SendRecord &send)
    {
        const core::WindowSpan &sp = rec.span;
        const std::uint64_t stamps[7] = {
            send.due,       sp.ingestNanos, sp.assembleNanos,
            sp.epStartNanos, sp.epEndNanos,  sp.publishNanos,
            rec.callbackNanos};
        // The completing record entered the ring inside the
        // ingestBatch call that sent its slice.
        bool ok = sp.ingestNanos >= send.start && sp.ingestNanos <= send.end;
        std::uint64_t total = 0;
        for (int hop = 0; hop < 6; ++hop) {
            ok = ok && stamps[hop + 1] >= stamps[hop];
            const std::uint64_t d = stamps[hop + 1] - stamps[hop];
            total += d;
            hopSum_[hop] += static_cast<double>(d);
        }
        const std::uint64_t fresh = rec.callbackNanos - send.due;
        const std::uint64_t gap = total > fresh ? total - fresh : fresh - total;
        if (!ok || gap > kReconcileBoundNanos)
            ++unreconciled_;
        ringMicros_.push_back(1e-3 *
                              static_cast<double>(stamps[2] - stamps[1]));
        dispatchMicros_.push_back(1e-3 *
                                  static_cast<double>(stamps[3] - stamps[2]));
        windowMicros_.push_back(1e-3 *
                                static_cast<double>(stamps[4] - stamps[3]));
        lagMicros_.push_back(1e-3 * static_cast<double>(stamps[6] - stamps[5]));
    }

    void perLayer()
    {
        if (unreconciled_ > 0)
            out_.failures.push_back(
                std::to_string(unreconciled_) +
                " traced windows whose hops do not add up to their "
                "freshness within " +
                std::to_string(kReconcileBoundNanos) + " ns");
        std::ostringstream hops;
        hops << "hop means (us) over " << freshMillis_.size() << " windows:";
        for (int hop = 0; hop < 6; ++hop)
            hops << " " << kHops[hop] << "="
                 << fmt(1e-3 * hopSum_[hop] /
                        static_cast<double>(freshMillis_.size()));
        hops << "; freshness mean " << fmt(1e3 * mean(freshMillis_))
             << " us; " << unreconciled_ << " windows off by more than "
             << kReconcileBoundNanos << " ns";
        out_.notes.push_back(hops.str());

        double ingest_ns = 0.0, ingest_records = 0.0;
        for (std::size_t j = 0; j < S_; ++j) {
            const SessionState &st = h_->session(j);
            for (std::size_t s = 0; s < st.sends.size(); ++s) {
                if (st.sends[s].start < c0_.wall ||
                    st.sends[s].start > c1_.wall)
                    continue;
                ingest_ns +=
                    static_cast<double>(st.sends[s].end - st.sends[s].start);
                ingest_records += static_cast<double>(
                    inputs_[j].slices[s % inputs_[j].generatedSlices()].size());
            }
        }
        double replay_s = 0.0, replay_slices = 0.0, windows = 0.0;
        std::size_t steady_allocs = 0;
        core::InferenceResult sums;
        for (std::size_t j = 0; j < S_; ++j) {
            const core::InferenceResult &post = reports_[j].posterior;
            replay_s += replays_[j].seconds;
            replay_slices += static_cast<double>(replays_[j].slices);
            windows += static_cast<double>(post.windowsRun);
            sums.epSweepsTotal += post.epSweepsTotal;
            sums.epMomentEvaluations += post.epMomentEvaluations;
            sums.epRank1Updates += post.epRank1Updates;
            sums.epFullSolves += post.epFullSolves;
            sums.epBlockFlushes += post.epBlockFlushes;
            sums.epSkippedUpdates += post.epSkippedUpdates;
            steady_allocs += post.epWorkspaceAllocations +
                             post.modelAllocations -
                             replays_[j].allocationsAfterFirstWindow;
        }
        double feed_ns = 0.0, feed_records = 0.0;
        std::vector<core::SliceMeasurements> ready;
        std::vector<PerfRecord> batch;
        for (std::size_t j = 0; j < S_; ++j) {
            service::SliceAssembler assembler(inputs_[j].monitored, true);
            const auto t0 = std::chrono::steady_clock::now();
            for (std::size_t s = 0; s < nextSlice_[j]; ++s) {
                inputs_[j].recordsOf(s, batch);
                for (const PerfRecord &rec : batch) {
                    ready.clear();
                    assembler.feed(rec, ready);
                }
                feed_records += static_cast<double>(batch.size());
            }
            feed_ns += std::chrono::duration<double, std::nano>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        }
        const double seq_rate = replay_slices / replay_s;
        const double worker_cpu =
            daemonCpu_ - (c1_.dispatcher - c0_.dispatcher);
        const double throughput = slicesInferred_ / wallSeconds_;
        const shim::ReaderStats &rs = readerStats_;
        auto per_window = [&](std::size_t n) {
            return static_cast<double>(n) / windows;
        };

        auto &m = out_.metrics;
        m["loadgen.lateness_p99_us"] = pct(latenessMicros_, 99.0);
        m["service.ingest_ns_per_record"] = ingest_ns / ingest_records;
        m["service.records_dropped"] = static_cast<double>(recordsDropped_);
        m["service.records_rejected"] =
            static_cast<double>(recordsRejected_);
        m["service.open_us_p50"] = pct(openMicros_, 50.0);
        m["service.close_ms_p50"] = pct(closeMillis_, 50.0);
        m["service.close_ms_max"] =
            *std::max_element(closeMillis_.begin(), closeMillis_.end());
        m["service.ring_wait_us_p50"] = pct(ringMicros_, 50.0);
        m["service.ring_wait_us_p99"] = pct(ringMicros_, tailP_);
        m["service.dispatch_wait_us_p50"] = pct(dispatchMicros_, 50.0);
        m["service.dispatch_wait_us_p99"] = pct(dispatchMicros_, tailP_);
        m["service.worker_busy_pct"] =
            100.0 * worker_cpu / (static_cast<double>(kWorkers) * wallSeconds_);
        m["service.parallel_efficiency"] =
            throughput / (static_cast<double>(kWorkers) * seq_rate);
        m["assembler.feed_ns_per_record"] = feed_ns / feed_records;
        m["core.window_us_p50"] = pct(windowMicros_, 50.0);
        m["core.window_us_p99"] = pct(windowMicros_, tailP_);
        m["core.seq_slices_per_s"] = seq_rate;
        m["core.sweeps_per_window"] = per_window(sums.epSweepsTotal);
        m["core.moment_evals_per_window"] =
            per_window(sums.epMomentEvaluations);
        m["core.rank1_updates_per_window"] = per_window(sums.epRank1Updates);
        m["core.full_solves_per_window"] = per_window(sums.epFullSolves);
        m["core.block_flushes_per_window"] = per_window(sums.epBlockFlushes);
        m["core.skipped_updates_per_window"] =
            per_window(sums.epSkippedUpdates);
        m["core.steady_state_allocations"] =
            static_cast<double>(steady_allocs);
        m["sinks.fanout_us_p50"] =
            fanout_.count > 0 ? 1e-3 * fanout_.percentile(50.0) : 0.0;
        m["sinks.fanout_us_p99"] =
            fanout_.count > 0 ? 1e-3 * fanout_.percentile(99.0) : 0.0;
        m["sinks.shim_publish_ns_p50"] =
            shimPublish_.count > 0 ? shimPublish_.percentile(50.0) : 0.0;
        m["sinks.delivery_lag_us_p50"] = pct(lagMicros_, 50.0);
        m["sinks.delivery_lag_us_p99"] = pct(lagMicros_, tailP_);
        m["sinks.updates_dropped"] = static_cast<double>(updatesDropped_);
        m["shim.age_us_p50"] = 1e-3 * poll_.ageNanos.percentile(50.0);
        m["shim.age_us_p99"] = 1e-3 * poll_.ageNanos.percentile(99.0);
        m["shim.retries_per_kread"] =
            1000.0 * static_cast<double>(poll_.retries) /
            static_cast<double>(poll_.reads);
        m["shim.torn"] = static_cast<double>(rs.tornReads);
        m["shim.corrupt"] = static_cast<double>(rs.corruptReads);
        m["shim.writer_dead"] = static_cast<double>(rs.deadReads);
        if (!options_.chromeTracePath.empty() &&
            !trace_->writeChromeTrace(options_.chromeTracePath))
            out_.notes.push_back("could not write " +
                                 options_.chromeTracePath);
    }

    const sim::MicroarchDescriptor &uarch_;
    const WorkloadSpec &spec_;
    const std::vector<SessionInput> &inputs_;
    const PassOptions &options_;
    const std::size_t S_;
    const std::size_t stride_;
    const double rate_;
    PassResult out_;

    IdleSpinners *spinners_ = nullptr;
    std::unique_ptr<telemetry::TraceCollector> trace_;
    /** Declared after trace_: the service's sinks write into it. */
    std::unique_ptr<Harness> h_;
    std::optional<shim::SnapshotReader> reader_;
    std::vector<std::size_t> nextSlice_;
    std::vector<double> setupSeconds_, openMicros_, closeMillis_;

    PollLog poll_;
    bool hasPoller_ = false;
    clockid_t pollerClock_{};
    CpuSample c0_, c1_;
    std::vector<double> latenessMicros_;

    telemetry::Histogram::Snapshot fanout_, shimPublish_;
    shim::ReaderStats readerStats_;
    std::vector<service::SessionReport> reports_;
    std::uint64_t updatesPublished_ = 0, updatesDropped_ = 0;
    std::vector<Replay> replays_;

    std::uint64_t recordsOffered_ = 0, recordsDropped_ = 0,
                  recordsRejected_ = 0;
    double points_ = 0.0, errorPct_ = 0.0, coveragePct_ = 0.0;

    double slicesInferred_ = 0.0, wallSeconds_ = 0.0, daemonCpu_ = 0.0;
    double tailP_ = 99.0;
    std::vector<double> freshMillis_;
    std::vector<double> ringMicros_, dispatchMicros_, windowMicros_,
        lagMicros_;
    double hopSum_[6] = {};
    std::uint64_t unreconciled_ = 0;
};

} // namespace

std::size_t
slicesPerSession(const WorkloadSpec &spec, const PassOptions &options)
{
    if (!spec.openLoop)
        return 1024; // closed-loop streams replay it cyclically
    const double rate = options.rate > 0.0 ? options.rate : spec.sliceRate;
    const double per_session = rate / static_cast<double>(spec.sessions);
    return spec.windowSlices + 3 +
           static_cast<std::size_t>(std::ceil(
               per_session * (kWarmSeconds + options.seconds)));
}

PassResult
runPass(const sim::MicroarchDescriptor &uarch, const WorkloadSpec &spec,
        const std::vector<SessionInput> &inputs, const PassOptions &options)
{
    return Pass(uarch, spec, inputs, options).run();
}

} // namespace pipebench
