#include "core/backend.h"

namespace bperf {
namespace core {

WindowExecution
HostBackend::execute(const WindowJob &job)
{
    WindowExecution exec;
    exec.engineId = 0;
    exec.endSlice = job.endSlice;
    exec.queueWaitSeconds = 0.0;
    exec.serviceSeconds = job.hostSeconds;
    exec.transferSeconds = 0.0;
    exec.modeledSeconds = job.hostSeconds;

    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.windowsExecuted;
    stats_.queueWaitSeconds.push(exec.queueWaitSeconds);
    stats_.serviceSeconds.push(exec.serviceSeconds);
    stats_.modeledSeconds.push(exec.modeledSeconds);
    return exec;
}

BackendStats
HostBackend::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
HostBackend::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = BackendStats{};
}

} // namespace core
} // namespace bperf
