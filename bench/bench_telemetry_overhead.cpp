/**
 * @file
 * Cost of the telemetry layer itself — the observability tentpole's
 * acceptance gate: enabled telemetry must stay under 5% on the
 * per-window EP hot path, and disabled telemetry must be ~free.
 *
 * Two views:
 *   1. Primitive micro-costs: one counter add and one histogram
 *      record with collection enabled vs disabled (the disabled path
 *      is a single relaxed atomic load), one steady-clock stamp, and
 *      one full registry scrape.
 *   2. End-to-end: µs per window of the bench_ep_window streaming
 *      workload (13 events, k = 6) with telemetry enabled vs
 *      disabled, interleaved best-of so the two configurations see
 *      the same thermal/frequency conditions.
 *
 * Writes BENCH_telemetry.json into the working directory (the CI
 * bench smoke step uploads it).  BP_QUICK=1 shrinks repetitions.
 */

#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/inference.h"
#include "sim/ground_truth.h"
#include "sim/perf_session.h"
#include "telemetry/telemetry.h"
#include "workloads/hibench.h"

using namespace bperf;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Same realistic multiplexed run as bench_ep_window (13 events). */
sim::PerfResult
makeRun(const sim::MicroarchDescriptor &uarch,
        std::vector<sim::EventId> &monitored, std::size_t num_slices)
{
    for (sim::EventId e : uarch.fixedEvents())
        monitored.push_back(e);
    for (sim::Role r :
         {sim::Role::LlcMiss, sim::Role::L2Miss, sim::Role::L1DMiss,
          sim::Role::Loads, sim::Role::Stores, sim::Role::Branches,
          sim::Role::BranchMisses, sim::Role::StallMem,
          sim::Role::StallTotal, sim::Role::DramBytes})
        monitored.push_back(uarch.idForRole(r));
    const auto workload = wl::makeHibench("KMeans");
    const sim::GroundTruthGenerator generator(uarch, workload);
    const sim::TruthTrace truth = generator.generate(num_slices, 9000);
    sim::PerfSessionConfig cfg;
    cfg.seed = 77;
    sim::PerfSession session(uarch, cfg);
    return session.runRoundRobin(truth, monitored);
}

/** Best-of-reps µs per window of one core::infer() pass. */
double
timeWindows(const sim::MicroarchDescriptor &uarch,
            const core::InferenceConfig &cfg, const sim::PerfResult &run,
            std::size_t reps)
{
    double best = 1e300;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        const core::InferenceResult r = core::infer(uarch, run, cfg);
        best = std::min(best,
                        1e6 * r.wallSeconds /
                            static_cast<double>(r.windowsRun));
    }
    return best;
}

} // namespace

int
main()
{
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    const std::size_t reps = bench::quickMode() ? 2 : 7;
    const std::size_t num_slices = bench::quickMode() ? 24 : 96;

    auto &registry = telemetry::MetricsRegistry::global();
    telemetry::Counter &counter = registry.counter("bench.counter");
    telemetry::Histogram &histogram =
        registry.histogram("bench.histogram");

    // ------------------------------------------------ primitive costs
    const std::size_t iters = bench::quickMode() ? 400000 : 4000000;

    auto time_ns = [iters](auto &&fn) {
        const double t0 = now();
        for (std::size_t i = 0; i < iters; ++i)
            fn(i);
        return 1e9 * (now() - t0) / static_cast<double>(iters);
    };

    telemetry::setEnabled(true);
    const double counter_on_ns =
        time_ns([&](std::size_t) { counter.add(); });
    const double histogram_on_ns =
        time_ns([&](std::size_t i) { histogram.record(i | 1); });
    telemetry::setEnabled(false);
    const double counter_off_ns =
        time_ns([&](std::size_t) { counter.add(); });
    const double histogram_off_ns =
        time_ns([&](std::size_t i) { histogram.record(i | 1); });
    telemetry::setEnabled(true);

    std::uint64_t clock_sink = 0;
    const double clock_ns =
        time_ns([&](std::size_t) { clock_sink += telemetry::nowNanos(); });

    const std::size_t scrape_reps = bench::quickMode() ? 200 : 2000;
    std::size_t scrape_sink = 0;
    double t0 = now();
    for (std::size_t i = 0; i < scrape_reps; ++i)
        scrape_sink += registry.scrape().counters.size();
    const double scrape_us =
        1e6 * (now() - t0) / static_cast<double>(scrape_reps);

    TablePrinter micro({"primitive", "ns/op"});
    micro.addRow("counter add (enabled)", {counter_on_ns});
    micro.addRow("counter add (disabled)", {counter_off_ns});
    micro.addRow("histogram record (enabled)", {histogram_on_ns});
    micro.addRow("histogram record (disabled)", {histogram_off_ns});
    micro.addRow("steady-clock stamp", {clock_ns});
    std::cout << "Telemetry primitive costs (" << iters
              << " iterations):\n";
    micro.print(std::cout);
    std::cout << "  registry scrape: " << scrape_us << " us ("
              << scrape_sink / scrape_reps << " counters)\n";

    // ------------------------------------------------ hot-path overhead
    std::vector<sim::EventId> monitored;
    const sim::PerfResult run = makeRun(uarch, monitored, num_slices);
    core::InferenceConfig cfg;
    cfg.windowSlices = 6;

    // Interleave enabled/disabled reps and keep each side's best, so
    // neither configuration systematically sees a warmer machine.
    double on_us = 1e300, off_us = 1e300;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        telemetry::setEnabled(false);
        off_us = std::min(off_us, timeWindows(uarch, cfg, run, 1));
        telemetry::setEnabled(true);
        on_us = std::min(on_us, timeWindows(uarch, cfg, run, 1));
    }
    const double overhead_pct = 100.0 * (on_us - off_us) / off_us;

    TablePrinter table({"config", "us/window"});
    table.addRow("telemetry disabled", {off_us});
    table.addRow("telemetry enabled", {on_us});
    std::cout << "\nPer-window EP latency (" << monitored.size()
              << " events, k=6, " << num_slices << " slices):\n";
    table.print(std::cout);
    std::cout << "  enabled overhead: " << overhead_pct << " %\n";

    // ------------------------------------------------------ JSON output
    bench::JsonWriter json;
    json.beginObject()
        .field("events", monitored.size())
        .field("window_slices", 6)
        .field("us_per_window_disabled", off_us)
        .field("us_per_window_enabled", on_us)
        .field("overhead_pct", overhead_pct)
        .field("counter_add_ns_enabled", counter_on_ns)
        .field("counter_add_ns_disabled", counter_off_ns)
        .field("histogram_record_ns_enabled", histogram_on_ns)
        .field("histogram_record_ns_disabled", histogram_off_ns)
        .field("clock_stamp_ns", clock_ns)
        .field("scrape_us", scrape_us)
        .endObject();
    if (!json.writeFile("BENCH_telemetry.json")) {
        std::cerr << "failed to write BENCH_telemetry.json\n";
        return 1;
    }
    std::cout << "\nwrote BENCH_telemetry.json\n";
    return 0;
}
