#include "service/subscription.h"

#include "telemetry/telemetry.h"

namespace bperf {
namespace service {

namespace {

telemetry::Histogram &
queueDepthHistogram()
{
    static telemetry::Histogram &h =
        telemetry::MetricsRegistry::global().histogram(
            "subscription.queue_depth");
    return h;
}

telemetry::Histogram &
deliveryLagHistogram()
{
    static telemetry::Histogram &h =
        telemetry::MetricsRegistry::global().histogram(
            "subscription.delivery_lag_ns");
    return h;
}

} // namespace

SubscriptionHub::SubscriptionHub(std::size_t queue_capacity)
    : queueCapacity_(queue_capacity == 0 ? 1 : queue_capacity),
      dispatcher_([this] { dispatchLoop(); })
{
}

SubscriptionHub::~SubscriptionHub()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workCv_.notify_all();
    dispatcher_.join();
    // Whatever never got delivered is accounted as dropped, so
    // published == delivered + dropped holds at rest too.
    for (auto &[id, sub] : subscribers_) {
        (void)id;
        sub->stats.dropped += sub->queue.size();
        sub->queue.clear();
    }
    queuedTotal_ = 0;
}

SubscriptionId
SubscriptionHub::subscribe(std::uint64_t session_id,
                           WindowCallback callback)
{
    auto sub = std::make_shared<Subscriber>();
    sub->sessionId = session_id;
    sub->callback = std::move(callback);
    std::lock_guard<std::mutex> lock(mutex_);
    const SubscriptionId id = nextId_++;
    subscribers_.emplace(id, std::move(sub));
    return id;
}

bool
SubscriptionHub::unsubscribe(SubscriptionId id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = subscribers_.find(id);
    if (it == subscribers_.end() || !it->second->active)
        return false;
    Subscriber &sub = *it->second;
    // Keep the entry so stats(id) stays answerable; just stop
    // delivery and drop whatever was still queued.
    sub.active = false;
    sub.stats.dropped += sub.queue.size();
    queuedTotal_ -= sub.queue.size();
    sub.queue.clear();
    idleCv_.notify_all();
    return true;
}

void
SubscriptionHub::publish(const WindowUpdate &update)
{
    bool notify = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return;
        for (auto &[id, sub] : subscribers_) {
            (void)id;
            if (!sub->active || sub->sessionId != update.sessionId)
                continue;
            ++sub->stats.published;
            if (sub->queue.size() >= queueCapacity_) {
                // Slow consumer: evict the oldest update so the
                // subscriber keeps seeing the freshest windows.
                sub->queue.pop_front();
                ++sub->stats.dropped;
                --queuedTotal_;
            }
            sub->queue.push_back(update);
            ++queuedTotal_;
            notify = true;
        }
        // Sampled once per publish: hub-wide queued backlog.
        queueDepthHistogram().record(queuedTotal_);
    }
    if (notify)
        workCv_.notify_one();
}

void
SubscriptionHub::dispatchLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    SubscriptionId cursor = 0;
    for (;;) {
        workCv_.wait(lock,
                     [this] { return stopping_ || queuedTotal_ > 0; });
        if (stopping_)
            return;

        // Round-robin across subscribers: first non-empty queue after
        // the cursor, wrapping, so one busy session cannot starve
        // another session's subscribers.
        std::shared_ptr<Subscriber> next;
        auto it = subscribers_.upper_bound(cursor);
        for (std::size_t step = 0; step <= subscribers_.size(); ++step) {
            if (it == subscribers_.end()) {
                it = subscribers_.begin();
                if (it == subscribers_.end())
                    break;
            }
            if (it->second->active && !it->second->queue.empty()) {
                cursor = it->first;
                next = it->second;
                break;
            }
            ++it;
        }
        if (!next)
            continue; // raced with unsubscribe; re-evaluate

        WindowUpdate update = std::move(next->queue.front());
        next->queue.pop_front();
        --queuedTotal_;
        dispatching_ = true;
        lock.unlock();
        // The callback runs without the hub lock: it may take its
        // own locks or be slow without stalling publishers.
        next->callback(update);
        if (update.execution.span.publishNanos != 0 &&
            telemetry::enabled()) {
            const std::uint64_t now = telemetry::nowNanos();
            if (now > update.execution.span.publishNanos)
                deliveryLagHistogram().record(
                    now - update.execution.span.publishNanos);
        }
        lock.lock();
        ++next->stats.delivered;
        dispatching_ = false;
        idleCv_.notify_all();
    }
}

void
SubscriptionHub::flush()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this] {
        return (queuedTotal_ == 0 && !dispatching_) || stopping_;
    });
}

std::optional<SubscriptionStats>
SubscriptionHub::stats(SubscriptionId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = subscribers_.find(id);
    if (it == subscribers_.end())
        return std::nullopt;
    return it->second->stats;
}

SubscriptionStats
SubscriptionHub::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    SubscriptionStats sum;
    for (const auto &[id, sub] : subscribers_) {
        (void)id;
        sum.published += sub->stats.published;
        sum.delivered += sub->stats.delivered;
        sum.dropped += sub->stats.dropped;
    }
    return sum;
}

std::size_t
SubscriptionHub::subscriberCount(std::uint64_t session_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t count = 0;
    for (const auto &[id, sub] : subscribers_) {
        (void)id;
        if (sub->active && sub->sessionId == session_id)
            ++count;
    }
    return count;
}

} // namespace service
} // namespace bperf
