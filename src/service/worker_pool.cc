#include "service/worker_pool.h"

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace bperf {
namespace service {

namespace {

telemetry::Histogram &
dispatchWaitHistogram()
{
    static telemetry::Histogram &h =
        telemetry::MetricsRegistry::global().histogram(
            "worker.dispatch_wait_ns");
    return h;
}

} // namespace

WorkerPool::WorkerPool(std::size_t num_threads,
                       std::function<void(SessionId)> process)
    : process_(std::move(process))
{
    bp_assert(num_threads > 0, "worker pool needs at least one thread");
    bp_assert(process_ != nullptr, "worker pool needs a process callback");
    threads_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
WorkerPool::submit(SessionId id)
{
    QueuedSession entry;
    entry.id = id;
    if (telemetry::enabled())
        entry.submitNanos = telemetry::nowNanos();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(entry);
    }
    cv_.notify_one();
}

void
WorkerPool::quiesce()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock,
                 [this] { return queue_.empty() && active_ == 0; });
}

void
WorkerPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (stopping_)
            return;
        const QueuedSession entry = queue_.front();
        queue_.pop_front();
        ++active_;
        lock.unlock();
        if (entry.submitNanos != 0 && telemetry::enabled()) {
            const std::uint64_t now = telemetry::nowNanos();
            if (now > entry.submitNanos)
                dispatchWaitHistogram().record(now - entry.submitNanos);
        }
        process_(entry.id);
        lock.lock();
        --active_;
        if (queue_.empty() && active_ == 0)
            idleCv_.notify_all();
    }
}

} // namespace service
} // namespace bperf
