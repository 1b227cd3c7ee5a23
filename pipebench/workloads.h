/**
 * @file
 * The benchmark's named workloads and their pre-generated inputs.
 *
 * Inputs are made outside every timed region, from the seed alone:
 * GroundTruthGenerator -> PerfSession::runRoundRobin -> recordStream.
 * The service under test only ever sees the resulting PerfRecords.
 */

#ifndef PIPEBENCH_WORKLOADS_H
#define PIPEBENCH_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/session.h"
#include "sim/microarch.h"
#include "sim/ring_buffer.h"

namespace pipebench {

using bperf::sim::EventId;
using bperf::sim::PerfRecord;

/** How the shim poller thread reads while the workload runs. */
enum class PollerMode {
    /** No poller in the timed phase; the slot table is read only
     * after it, while the service is quiescent. */
    None,
    /** One pass over every session's slot per poll period. */
    Light,
    /** Back-to-back passes over every slot, no pause. */
    Continuous,
};

/** One named workload: session shape, load model and poller. */
struct WorkloadSpec
{
    std::string name;
    std::size_t sessions = 0;
    /** Events handed to MonitorService::open (fixed counters are
     * added by the service). */
    std::vector<EventId> events;
    /** Window length k. */
    std::size_t windowSlices = 0;
    /** PMI reads per observed slice (records per event per slice). */
    std::size_t pmiReads = 4;
    /** Open loop sends on a fixed schedule; closed loop sends a
     * session's next window only after its last one was delivered. */
    bool openLoop = true;
    /** Aggregate offered slice rate over all sessions (open loop). */
    double sliceRate = 0.0;
    PollerMode poller = PollerMode::None;
};

/** Every workload the benchmark runs by name (BENCHMARK.json lists
 * the ones it gates; see README.md). */
std::vector<WorkloadSpec>
allWorkloads(const bperf::sim::MicroarchDescriptor &uarch);

/** The pre-generated input of one session. */
struct SessionInput
{
    /** Monitored set as the service resolves it (fixed first). */
    std::vector<EventId> monitored;
    std::size_t schedulePeriod = 0;
    /** Records of each generated slice (slice field = its index). */
    std::vector<std::vector<PerfRecord>> slices;
    /** truth[t][i]: true count of monitored[i] in generated slice t. */
    std::vector<std::vector<double>> truth;
    /** perfEstimate[t][i]: perf's time-scaled estimate of the same. */
    std::vector<std::vector<double>> perfEstimate;

    /** Records of stream slice s: generated slice s mod size,
     * written into `out` with the slice field set to s. */
    void recordsOf(std::size_t s, std::vector<PerfRecord> &out) const;
    std::size_t generatedSlices() const { return slices.size(); }
};

/** The session configuration every session of the workload runs
 * with: the service default, plus the workload's k. */
bperf::service::SessionConfig sessionConfig(const WorkloadSpec &spec,
                                            std::size_t schedule_period);

/**
 * Generate every session's input for a run that streams
 * `slices_per_session` slices per session.  Session j runs HiBench
 * workload j (mod 29); the seed drives truth and sampling noise.
 */
std::vector<SessionInput>
generateInputs(const bperf::sim::MicroarchDescriptor &uarch,
               const WorkloadSpec &spec, std::size_t slices_per_session,
               std::uint64_t seed);

} // namespace pipebench

#endif // PIPEBENCH_WORKLOADS_H
