#include "service/streaming_inference.h"

#include "telemetry/telemetry.h"

namespace bperf {
namespace service {

StreamingInference::StreamingInference(const sim::MicroarchDescriptor &uarch,
                                       std::vector<sim::EventId> events,
                                       StreamingConfig config)
    : assembler_(events, /*align_to_first_record=*/true),
      engine_(uarch, std::move(events), config.inference,
              config.schedulePeriod)
{
}

std::size_t
StreamingInference::consume(const sim::PerfRecord &rec)
{
    ready_.clear();
    assembler_.feed(rec, ready_);
    // A session attached mid-stream starts at its first record's
    // slice; hand that offset to the engine so backend release times
    // stay on the producer's absolute slice clock.  The record also
    // floors release times: windows it completes (including catch-up
    // windows over shed/stalled stretches) dispatch now, not in the
    // past.
    engine_.setSliceOrigin(assembler_.originSlice());
    engine_.setReleaseFloor(rec.slice);
    // Windows completed by this record carry its ring-to-drain phase
    // stamps in their WindowSpan (finish()-tail windows stay
    // unstamped: no record drives them).
    engine_.setRecordStamps(rec.ingestNanos, telemetry::enabled()
                                                 ? telemetry::nowNanos()
                                                 : 0);
    std::size_t windows = 0;
    for (const auto &slice : ready_)
        windows += engine_.push(slice);
    return windows;
}

std::size_t
StreamingInference::finish()
{
    ready_.clear();
    assembler_.flush(ready_);
    // Tail windows have no triggering record: leave spans unstamped
    // rather than inheriting the last consumed record's stamps.
    engine_.setRecordStamps(0, 0);
    std::size_t windows = 0;
    for (const auto &slice : ready_)
        windows += engine_.push(slice);
    windows += engine_.finish();
    return windows;
}

} // namespace service
} // namespace bperf
