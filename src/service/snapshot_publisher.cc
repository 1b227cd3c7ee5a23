#include "service/snapshot_publisher.h"

#include "telemetry/telemetry.h"

namespace bperf {
namespace service {

namespace {

shim::SnapshotRegionConfig
regionConfig(const SnapshotConfig &config)
{
    shim::SnapshotRegionConfig region;
    region.slots = config.slots;
    region.maxEvents = config.maxEvents;
    return region;
}

telemetry::Histogram &
shimPublishHistogram()
{
    static telemetry::Histogram &h =
        telemetry::MetricsRegistry::global().histogram("shim.publish_ns");
    return h;
}

} // namespace

SnapshotPublisher::SnapshotPublisher(const SnapshotConfig &config)
    : region_(regionConfig(config), config.shmName),
      slotUsed_(config.slots, false)
{
}

std::optional<std::size_t>
SnapshotPublisher::allocate(std::uint64_t session_id,
                            std::size_t event_count)
{
    if (event_count > region_.maxEvents())
        return std::nullopt; // does not fit a slot
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t slot = 0; slot < slotUsed_.size(); ++slot) {
        if (slotUsed_[slot])
            continue;
        slotUsed_[slot] = true;
        slotOf_[session_id] = slot;
        return slot;
    }
    return std::nullopt; // table full
}

void
SnapshotPublisher::release(std::uint64_t session_id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slotOf_.find(session_id);
    if (it == slotOf_.end())
        return; // never exported
    const std::size_t slot = it->second;
    // Invalidate before the slot becomes allocatable: a slot must
    // never have two writers, and the next owner's first publish is
    // ordered after this critical section through mutex_.
    region_.invalidate(slot);
    slotOf_.erase(it);
    slotUsed_[slot] = false;
}

void
SnapshotPublisher::publish(std::size_t slot, const WindowUpdate &update)
{
    const std::uint64_t start = shim::steadyNowNanos();
    region_.write(slot, update.sessionId, update.windowIndex,
                  update.endSlice, update.execution, update.events,
                  update.posterior, start);
    if (telemetry::enabled()) {
        const std::uint64_t end = shim::steadyNowNanos();
        if (end > start)
            shimPublishHistogram().record(end - start);
    }
}

void
SnapshotPublisher::countDrop()
{
    drops_.fetch_add(1, std::memory_order_relaxed);
}

bool
SnapshotPublisher::publishSelfMetrics(const std::vector<SelfMetric> &metrics)
{
    std::lock_guard<std::mutex> lock(selfMutex_);
    if (!selfSlot_) {
        // Claim lazily: a daemon that never publishes self-metrics
        // leaves the slot free for a tenant.  Event-count 0 passes
        // the capacity check; actual publishes truncate below.
        selfSlot_ = allocate(kSelfMetricsSessionId, 0);
        if (!selfSlot_) {
            countDrop();
            return false;
        }
    }
    const std::size_t count =
        metrics.size() < region_.maxEvents() ? metrics.size()
                                             : region_.maxEvents();
    // Shape the metrics as a WindowUpdate and go through publish():
    // self-metrics publishes are ordinary publishes, counted by the
    // same region header word and sampled into the same
    // shim.publish_ns histogram — not a parallel path that
    // duplicates (and drifts from) the accounting.
    selfUpdate_.sessionId = kSelfMetricsSessionId;
    selfUpdate_.windowIndex = selfWindow_++;
    selfUpdate_.windowId = selfWindow_;
    selfUpdate_.endSlice = 0;
    selfUpdate_.execution = core::WindowExecution{};
    selfUpdate_.events.clear();
    selfUpdate_.posterior.clear();
    for (std::size_t i = 0; i < count; ++i) {
        selfUpdate_.events.push_back(metrics[i].id);
        selfUpdate_.posterior.push_back({metrics[i].value, 0.0});
    }
    publish(*selfSlot_, selfUpdate_);
    return true;
}

SnapshotPublisherStats
SnapshotPublisher::stats() const
{
    SnapshotPublisherStats out;
    out.enabled = true;
    // The region header's publish counter is the single source of
    // truth (the same word readers watch for freshness).
    out.publishes = region_.publishes();
    out.publishDrops = drops_.load(std::memory_order_relaxed);
    out.slotCapacity = region_.slots();
    std::lock_guard<std::mutex> lock(mutex_);
    out.slotsLive = slotOf_.size();
    return out;
}

} // namespace service
} // namespace bperf
