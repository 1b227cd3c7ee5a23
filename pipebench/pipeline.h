/**
 * @file
 * One pass of a workload through the real in-process pipeline:
 *
 *   MonitorService::open/subscribe/ingestBatch/close -> SPSC ring ->
 *   SliceAssembler -> WindowedInference EP -> subscription + snapshot
 *   shim sinks -> shim::SnapshotReader
 *
 * driven by one generator thread (the calling thread) and, where the
 * workload has one, one shim-poller thread, against a 2-worker
 * service.  A pass measures, then checks its outputs (the correctness
 * gate) and reports named metrics.
 */

#ifndef PIPEBENCH_PIPELINE_H
#define PIPEBENCH_PIPELINE_H

#include <map>
#include <string>
#include <vector>

#include "sim/microarch.h"
#include "workloads.h"

namespace pipebench {

/** Settings of one pass. */
struct PassOptions
{
    /** Length of the measured steady state. */
    double seconds = 15.0;
    /** Record bench-side spans and per-layer metrics (the traced
     * run).  Timed runs take no spans. */
    bool traced = false;
    /** Aggregate open-loop slice rate; 0 keeps the workload's. */
    double rate = 0.0;
    /** Self-test: flip one posterior bit in the replay copy, which
     * must make the gate fail. */
    bool flipPosteriorBit = false;
    /** Where the traced run writes its Chrome trace ("" = nowhere). */
    std::string chromeTracePath;
};

/** Everything one pass measured and checked. */
struct PassResult
{
    /** Metric name -> value (end-to-end and per-layer). */
    std::map<std::string, double> metrics;
    /** Human-readable lines: sample counts, decompositions. */
    std::vector<std::string> notes;
    /** The paper's claim on this run: BayesPerf's error_pct is below
     * perf's time-scaled (LinuxEstimator) error on the same records.
     * Reported, not gated: see README.md. */
    bool accuracyClaimMet = false;
    /** Correctness-gate failures (empty = correct). */
    std::vector<std::string> failures;
    /** Operations attempted and failed (records offered, window
     * updates published, shim polls). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Slices generated per session for a pass of this length. */
std::size_t slicesPerSession(const WorkloadSpec &spec,
                             const PassOptions &options);

/** Run one pass over pre-generated inputs. */
PassResult runPass(const bperf::sim::MicroarchDescriptor &uarch,
                   const WorkloadSpec &spec,
                   const std::vector<SessionInput> &inputs,
                   const PassOptions &options);

} // namespace pipebench

#endif // PIPEBENCH_PIPELINE_H
