/**
 * @file
 * pipebench: the repository's one end-to-end benchmark.
 *
 *   pipebench --workload NAME --seed N --seconds S --trace 0|1
 *             [--commit ID] [--out-dir DIR] [--rate SLICES_PER_S]
 *             [--flip-posterior-bit]
 *
 * --trace 0 runs the timed pass and reports the end-to-end metrics;
 * --trace 1 runs a timed pass and then a traced pass, and reports the
 * per-layer metrics.  Either way the correctness gate runs, every
 * metric is printed as "name value unit", the result (with host
 * facts) is written to DIR as JSON, and the last line of standard
 * output is one JSON object {correct, attempted, failed, metrics}.
 * The exit code is 0 only when the gate passed.  See README.md.
 */


#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/quad_kernel.h"
#include "pipeline.h"
#include "workloads.h"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif

namespace pipebench {
namespace {

/** A double that JsonWriter prints with every significant digit
 * (shortest round-trip form) instead of the stream's default six. */
struct Exact
{
    double v = 0.0;
};

std::ostream &
operator<<(std::ostream &os, Exact x)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, x.v);
    return os.write(buf, r.ptr - buf);
}

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics (--trace 0), as BENCHMARK.json names them. */
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_slices_per_s", "slices/s"},
    {"freshness_p50_ms", "ms"},
    {"shim_read_p50_ns", "ns"},
    {"shim_read_p99_ns", "ns"},
    {"error_pct", "%"},
    {"calib_gap_pct", "%"},
    {"daemon_cpu_us_per_slice", "us"},
    {"peak_rss_mb", "MB"},
};

/** The per-layer metrics (--trace 1), plus two whole-pipeline
 * figures that cannot carry a regression bound: freshness_p99_ms is
 * set by host noise, ops_failed_pct must read 0 (README.md). */
const std::vector<MetricDef> kPerLayer = {
    {"freshness_p99_ms", "ms"},
    {"ops_failed_pct", "%"},
    {"loadgen.lateness_p99_us", "us"},
    {"service.ingest_ns_per_record", "ns"},
    {"service.records_dropped", "count"},
    {"service.records_rejected", "count"},
    {"service.open_us_p50", "us"},
    {"service.close_ms_p50", "ms"},
    {"service.close_ms_max", "ms"},
    {"service.ring_wait_us_p50", "us"},
    {"service.ring_wait_us_p99", "us"},
    {"service.dispatch_wait_us_p50", "us"},
    {"service.dispatch_wait_us_p99", "us"},
    {"service.worker_busy_pct", "%"},
    {"service.parallel_efficiency", "ratio"},
    {"assembler.feed_ns_per_record", "ns"},
    {"core.window_us_p50", "us"},
    {"core.window_us_p99", "us"},
    {"core.seq_slices_per_s", "slices/s"},
    {"core.sweeps_per_window", "count"},
    {"core.moment_evals_per_window", "count"},
    {"core.rank1_updates_per_window", "count"},
    {"core.full_solves_per_window", "count"},
    {"core.block_flushes_per_window", "count"},
    {"core.skipped_updates_per_window", "count"},
    {"core.steady_state_allocations", "count"},
    {"sinks.fanout_us_p50", "us"},
    {"sinks.fanout_us_p99", "us"},
    {"sinks.shim_publish_ns_p50", "ns"},
    {"sinks.delivery_lag_us_p50", "us"},
    {"sinks.delivery_lag_us_p99", "us"},
    {"sinks.updates_dropped", "count"},
    {"shim.age_us_p50", "us"},
    {"shim.age_us_p99", "us"},
    {"shim.retries_per_kread", "count"},
    {"shim.torn", "count"},
    {"shim.corrupt", "count"},
    {"shim.writer_dead", "count"},
    {"trace.overhead_pct", "%"},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    int trace = 0;
    std::string commit = "unknown";
    std::string outDir;
    double rate = 0.0;
    bool flipPosteriorBit = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "pipebench: " << why << "\n"
              << "usage: pipebench --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--commit ID] [--out-dir DIR]"
                 " [--rate SLICES_PER_S] [--flip-posterior-bit]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--flip-posterior-bit") {
            a.flipPosteriorBit = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (!(a.seconds > 0.0 && a.seconds <= 60.0))
                usage("--seconds must be in (0, 60]");
        } else if (flag == "--trace") {
            a.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
            if (a.trace != 0 && a.trace != 1)
                usage("--trace must be 0 or 1");
        } else if (flag == "--commit") {
            a.commit = value;
        } else if (flag == "--out-dir") {
            a.outDir = value;
        } else if (flag == "--rate") {
            a.rate = std::strtod(value.c_str(), &end);
            if (!(a.rate > 0.0))
                usage("--rate must be positive");
        } else {
            usage("unknown flag " + flag);
        }
        if (end != nullptr && *end != '\0')
            usage("bad value for " + flag + ": " + value);
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

} // namespace
} // namespace pipebench

int
main(int argc, char **argv)
{
    using namespace pipebench;
    using bperf::bench::JsonWriter;

    const Args args = parseArgs(argc, argv);
    const bperf::sim::MicroarchDescriptor uarch = bperf::sim::makeX86Skylake();
    const std::vector<WorkloadSpec> workloads = allWorkloads(uarch);
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : workloads)
        if (w.name == args.workload)
            spec = &w;
    if (spec == nullptr)
        usage("unknown workload " + args.workload);

    PassOptions options;
    options.seconds = args.seconds;
    options.rate = args.rate;
    options.flipPosteriorBit = args.flipPosteriorBit;

    const std::vector<SessionInput> inputs = generateInputs(
        uarch, *spec, slicesPerSession(*spec, options), args.seed);
    std::cout << "workload " << spec->name << ": " << spec->sessions
              << " sessions x " << inputs.front().monitored.size()
              << " events, k=" << spec->windowSlices << ", "
              << spec->pmiReads << " PMI reads/slice, "
              << (spec->openLoop ? "open" : "closed") << " loop, "
              << inputs.front().generatedSlices()
              << " generated slices/session\n";

    // --trace 1: a timed pass first, as the reference of
    // trace.overhead_pct, then the traced pass.
    std::vector<PassResult> passes;
    passes.push_back(runPass(uarch, *spec, inputs, options));
    if (args.trace == 1) {
        options.traced = true;
        if (!args.outDir.empty())
            options.chromeTracePath = args.outDir + "/" + spec->name +
                                      "-seed" + std::to_string(args.seed) +
                                      "-chrome-trace.json";
        passes.push_back(runPass(uarch, *spec, inputs, options));
    }
    PassResult &result = passes.back();
    if (args.trace == 1) {
        const double untraced =
            passes.front().metrics.at("daemon_cpu_us_per_slice");
        result.metrics["trace.overhead_pct"] =
            100.0 *
            (result.metrics.at("daemon_cpu_us_per_slice") / untraced - 1.0);
    }

    std::vector<std::string> failures;
    std::uint64_t attempted = 0, failed = 0;
    for (const PassResult &p : passes) {
        const char *tag = &p == &result ? "" : "[untraced] ";
        for (const std::string &note : p.notes)
            std::cout << tag << note << "\n";
        failures.insert(failures.end(), p.failures.begin(),
                        p.failures.end());
        attempted += p.attempted;
        failed += p.failed;
    }
    const std::vector<MetricDef> &defs =
        args.trace == 0 ? kEndToEnd : kPerLayer;
    for (const MetricDef &d : defs) {
        const double v = result.metrics.at(d.name);
        if (!std::isfinite(v))
            failures.push_back(std::string("metric ") + d.name +
                               " is not finite");
        std::cout << d.name << " " << v << " " << d.unit << "\n";
    }
    const bool correct = failures.empty();
    for (const std::string &f : failures)
        std::cout << "GATE FAILED: " << f << "\n";

    auto host = [&](JsonWriter &w) {
        w.field("nproc", std::thread::hardware_concurrency())
            .field("cpu_model", cpuModel())
            .field("quad_kernel", bperf::core::activeQuadKernelName())
            .field("compiler", std::string("gcc ") + __VERSION__)
            .field("build_type", PIPEBENCH_BUILD_TYPE)
            .field("commit", args.commit)
            .field("seed", args.seed);
    };
    auto metrics = [&](JsonWriter &w) {
        w.beginObject("metrics");
        for (const MetricDef &d : defs) {
            const double v = result.metrics.at(d.name);
            w.beginObject(d.name)
                .field("value", Exact{std::isfinite(v) ? v : 0.0})
                .field("unit", d.unit)
                .endObject();
        }
        w.endObject();
    };
    JsonWriter facts;
    facts.beginObject();
    host(facts);
    facts.endObject();
    std::cout << "host " << facts.str() << "\n";

    if (!args.outDir.empty()) {
        JsonWriter artifact;
        artifact.beginObject()
            .field("workload", spec->name)
            .field("trace", args.trace)
            .field("seconds", Exact{args.seconds})
            .field("correct", correct)
            .field("accuracy_claim_met", result.accuracyClaimMet)
            .field("attempted", attempted)
            .field("failed", failed)
            .beginObject("host");
        host(artifact);
        artifact.endObject();
        metrics(artifact);
        artifact.beginArray("notes");
        for (const PassResult &p : passes)
            for (const std::string &note : p.notes)
                artifact.value(note);
        artifact.endArray().beginArray("failures");
        for (const std::string &f : failures)
            artifact.value(f);
        artifact.endArray().endObject();
        const std::string path = args.outDir + "/" + spec->name + "-trace" +
                                 std::to_string(args.trace) + "-seed" +
                                 std::to_string(args.seed) + ".json";
        if (!artifact.writeFile(path))
            std::cerr << "pipebench: could not write " << path << "\n";
    }

    JsonWriter line;
    line.beginObject()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed);
    metrics(line);
    line.endObject();
    std::cout << line.str() << std::endl;
    return correct ? 0 : 1;
}
