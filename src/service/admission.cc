#include "service/admission.h"

#include <algorithm>

#include "common/logging.h"

namespace bperf {
namespace service {

const char *
admissionErrorName(AdmissionError error)
{
    switch (error) {
      case AdmissionError::None: return "none";
      case AdmissionError::SessionQuota: return "session-quota";
      case AdmissionError::RateLimited: return "rate-limited";
      case AdmissionError::WindowQuota: return "window-quota";
      case AdmissionError::BackendSaturated: return "backend-saturated";
    }
    return "unknown";
}

void
AdmissionStats::merge(const AdmissionStats &other)
{
    sessionsAdmitted += other.sessionsAdmitted;
    sessionsRejected += other.sessionsRejected;
    recordsAdmitted += other.recordsAdmitted;
    recordsThrottled += other.recordsThrottled;
    recordsShed += other.recordsShed;
}

AdmissionController::AdmissionController(AdmissionConfig config,
                                         const core::InferenceBackend *backend)
    : config_(std::move(config)), backend_(backend)
{
    bp_assert(config_.slicePeriodSeconds > 0.0,
              "admission needs a positive slice period");
}

AdmissionController::Tenant &
AdmissionController::tenant(const std::string &name)
{
    auto it = tenants_.find(name);
    if (it == tenants_.end()) {
        Tenant t;
        const auto quota_it = config_.tenantQuotas.find(name);
        t.quota = quota_it != config_.tenantQuotas.end()
                      ? quota_it->second
                      : config_.defaultQuota;
        t.tokens = bucketDepth(t.quota);
        it = tenants_.emplace(name, std::move(t)).first;
    }
    return it->second;
}

double
AdmissionController::bucketDepth(const TenantQuota &quota)
{
    if (quota.burstRecords > 0.0)
        return quota.burstRecords;
    // Default burst: one second's worth of sustained rate.
    return quota.recordsPerSecond;
}

void
AdmissionController::setQuota(const std::string &name,
                              const TenantQuota &quota)
{
    std::lock_guard<std::mutex> lock(mutex_);
    config_.tenantQuotas[name] = quota;
    Tenant &t = tenant(name);
    t.quota = quota;
    t.tokens = std::min(t.tokens, bucketDepth(quota));
    if (!t.bucketPrimed)
        t.tokens = bucketDepth(quota);
}

AdmissionError
AdmissionController::admitSession(const std::string &name)
{
    if (!config_.enabled)
        return AdmissionError::None;
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant &t = tenant(name);
    if (t.quota.maxSessions != 0 &&
        t.liveSessions >= t.quota.maxSessions) {
        ++t.stats.sessionsRejected;
        return AdmissionError::SessionQuota;
    }
    // Latency feedback: the backend's own "now" (its latest release)
    // freezes when nothing executes, so evaluate the backlog at the
    // newest stream time any record has reached — and skip the check
    // entirely when no sessions are live, since a backlog nobody is
    // feeding is stale by definition (otherwise a saturated-then-
    // drained pool would shed every future open forever).
    if (config_.shedQueueSeconds > 0.0 && backend_ != nullptr &&
        totalLiveSessions_ > 0) {
        const core::BackendQueueDepth depth =
            backend_->queueDepth(lastStreamSeconds_);
        const double now =
            std::max(depth.nowSeconds, lastStreamSeconds_);
        if (depth.queueSecondsAt(now) > config_.shedQueueSeconds) {
            ++t.stats.sessionsRejected;
            return AdmissionError::BackendSaturated;
        }
    }
    ++t.liveSessions;
    ++totalLiveSessions_;
    ++t.stats.sessionsAdmitted;
    return AdmissionError::None;
}

void
AdmissionController::sessionClosed(const std::string &name)
{
    if (!config_.enabled)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant &t = tenant(name);
    if (t.liveSessions > 0) {
        --t.liveSessions;
        --totalLiveSessions_;
    }
}

void
AdmissionController::refill(Tenant &t, double streamSeconds) const
{
    if (t.quota.recordsPerSecond <= 0.0)
        return;
    if (!t.bucketPrimed) {
        t.bucketPrimed = true;
        t.lastRefillSeconds = streamSeconds;
        return;
    }
    const double elapsed = streamSeconds - t.lastRefillSeconds;
    if (elapsed <= 0.0)
        return;
    t.tokens = std::min(bucketDepth(t.quota),
                        t.tokens + elapsed * t.quota.recordsPerSecond);
    t.lastRefillSeconds = streamSeconds;
}

void
AdmissionController::purgeInFlight(Tenant &t, double streamSeconds)
{
    auto &windows = t.inFlightCompletions;
    windows.erase(std::remove_if(windows.begin(), windows.end(),
                                 [streamSeconds](double completion) {
                                     return completion <= streamSeconds;
                                 }),
                  windows.end());
}

AdmissionError
AdmissionController::admitRecord(const std::string &name,
                                 double streamSeconds)
{
    if (!config_.enabled)
        return AdmissionError::None;
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant &t = tenant(name);
    lastStreamSeconds_ = std::max(lastStreamSeconds_, streamSeconds);

    // Latency feedback first: a saturated pool sheds regardless of
    // how many tokens the tenant has banked.
    if (config_.throttleQueueSeconds > 0.0 && backend_ != nullptr) {
        const core::BackendQueueDepth depth =
            backend_->queueDepth(streamSeconds);
        if (depth.queueSecondsAt(streamSeconds) >
            config_.throttleQueueSeconds) {
            ++t.stats.recordsShed;
            return AdmissionError::BackendSaturated;
        }
    }

    if (t.quota.maxInFlightWindows != 0) {
        purgeInFlight(t, streamSeconds);
        if (t.inFlightCompletions.size() >= t.quota.maxInFlightWindows) {
            ++t.stats.recordsThrottled;
            return AdmissionError::WindowQuota;
        }
    }

    if (t.quota.recordsPerSecond > 0.0) {
        refill(t, streamSeconds);
        if (t.tokens < 1.0) {
            ++t.stats.recordsThrottled;
            return AdmissionError::RateLimited;
        }
        t.tokens -= 1.0;
    }

    ++t.stats.recordsAdmitted;
    return AdmissionError::None;
}

void
AdmissionController::windowExecuted(const std::string &name,
                                    const core::WindowExecution &execution)
{
    if (!config_.enabled)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant &t = tenant(name);
    if (t.quota.maxInFlightWindows == 0)
        return;
    const double release = static_cast<double>(execution.endSlice) *
                           config_.slicePeriodSeconds;
    purgeInFlight(t, release);
    t.inFlightCompletions.push_back(release + execution.modeledSeconds);
}

std::vector<TenantAdmissionStats>
AdmissionController::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TenantAdmissionStats> out;
    out.reserve(tenants_.size());
    for (const auto &[name, t] : tenants_) {
        TenantAdmissionStats row;
        row.tenant = name;
        row.stats = t.stats;
        row.liveSessions = t.liveSessions;
        out.push_back(std::move(row));
    }
    return out;
}

TenantAdmissionStats
AdmissionController::tenantStats(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    TenantAdmissionStats row;
    row.tenant = name;
    const auto it = tenants_.find(name);
    if (it != tenants_.end()) {
        row.stats = it->second.stats;
        row.liveSessions = it->second.liveSessions;
    }
    return row;
}

core::BackendQueueDepth
AdmissionController::backendQueue() const
{
    if (backend_ == nullptr)
        return core::BackendQueueDepth{};
    double now = 0.0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        now = lastStreamSeconds_;
    }
    return backend_->queueDepth(now);
}

} // namespace service
} // namespace bperf
