/**
 * @file
 * Shared harness used by the benchmark binaries that regenerate the
 * paper's tables and figures: monitored-set construction, estimator
 * comparison runs, and paper-style reporting.
 */

#ifndef BPERF_BENCH_BENCH_UTIL_H
#define BPERF_BENCH_BENCH_UTIL_H

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/error_metrics.h"
#include "common/stats.h"
#include "common/logging.h"
#include "sim/ground_truth.h"
#include "sim/microarch.h"
#include "sim/workload_profile.h"

namespace bperf {
namespace bench {

/**
 * Minimal streaming writer for the BENCH_*.json artifacts, shared by
 * every bench binary so the schema (nesting, comma placement, number
 * formatting) is produced by exactly one piece of code instead of
 * per-bench printf JSON.
 *
 * Usage: begin/end calls must nest properly; value() / field() emit
 * scalars into the current array / object.  str() returns the
 * document, writeFile() dumps it with a trailing newline.
 */
class JsonWriter
{
  public:
    JsonWriter() { out_ << std::boolalpha; }

    JsonWriter &beginObject(const std::string &key = "")
    {
        open(key);
        out_ << '{';
        stack_.push_back(Scope::Object);
        first_ = true;
        return *this;
    }

    JsonWriter &endObject()
    {
        bp_assert(!stack_.empty() && stack_.back() == Scope::Object,
                  "endObject() outside an object");
        stack_.pop_back();
        out_ << '}';
        first_ = false;
        return *this;
    }

    JsonWriter &beginArray(const std::string &key = "")
    {
        open(key);
        out_ << '[';
        stack_.push_back(Scope::Array);
        first_ = true;
        return *this;
    }

    JsonWriter &endArray()
    {
        bp_assert(!stack_.empty() && stack_.back() == Scope::Array,
                  "endArray() outside an array");
        stack_.pop_back();
        out_ << ']';
        first_ = false;
        return *this;
    }

    template <typename T>
    JsonWriter &field(const std::string &key, const T &value)
    {
        open(key);
        scalar(value);
        return *this;
    }

    template <typename T> JsonWriter &value(const T &value)
    {
        open("");
        scalar(value);
        return *this;
    }

    /** The finished document; all scopes must be closed. */
    std::string str() const
    {
        bp_assert(stack_.empty(), "unclosed JSON scope");
        return out_.str();
    }

    /** Write the document (plus trailing newline) to `path`. */
    bool writeFile(const std::string &path) const
    {
        std::ofstream file(path);
        if (!file)
            return false;
        file << str() << '\n';
        return static_cast<bool>(file);
    }

  private:
    enum class Scope { Object, Array };

    void open(const std::string &key)
    {
        if (!first_ && !stack_.empty())
            out_ << ", ";
        first_ = false;
        if (!stack_.empty() && stack_.back() == Scope::Object) {
            bp_assert(!key.empty(), "object member needs a key");
            scalar(key);
            out_ << ": ";
        } else {
            bp_assert(key.empty(), "key given outside an object");
        }
    }

    void scalar(const std::string &v)
    {
        out_ << '"';
        for (char c : v) {
            switch (c) {
              case '"': out_ << "\\\""; break;
              case '\\': out_ << "\\\\"; break;
              case '\n': out_ << "\\n"; break;
              case '\t': out_ << "\\t"; break;
              default: out_ << c; break;
            }
        }
        out_ << '"';
    }
    void scalar(const char *v) { scalar(std::string(v)); }
    void scalar(bool v) { out_ << (v ? "true" : "false"); }
    void scalar(double v)
    {
        // JSON has no nan/inf literals; a percentile over an empty
        // sample set (0-window run) must come out as null, not as a
        // bare token that breaks every consumer of the artifact.
        if (std::isfinite(v))
            out_ << v;
        else
            out_ << "null";
    }
    void scalar(float v) { scalar(static_cast<double>(v)); }
    template <typename T> void scalar(const T &v) { out_ << v; }

    std::ostringstream out_;
    std::vector<Scope> stack_;
    bool first_ = true;
};

/** One estimator's error on one run. */
struct EstimatorErrors
{
    std::string name;
    /** Average error across the 10 standard derived metrics (%). */
    double derivedErrorPct = 0.0;
    /** Average per-event trace error (%). */
    double eventErrorPct = 0.0;
};

/** Knobs for a comparison run. */
struct ComparisonConfig
{
    std::size_t numSlices = 96;
    std::uint64_t truthSeed = 1234;
    std::uint64_t samplingSeed = 77;
    std::uint64_t pollSeed = 991;
    /** Overlap-aware schedule (the paper's design); false packs
     * round-robin like Linux (see SchedulerConfig). */
    bool reserveOverlapSlot = true;
    bool includeWmPin = false;
    bool includeBayesPerf = true;
};

/**
 * The monitored event set of the paper's evaluation: the HPCs behind
 * the 10 standard derived metrics plus their invariant-related
 * neighbours — 29 distinct programmable events, as in section 2's
 * derived-event example.
 */
std::vector<sim::EventId>
evaluationEventSet(const sim::MicroarchDescriptor &uarch);

/** First `n` events of a deterministic padded monitoring order. */
std::vector<sim::EventId>
paddedEventSet(const sim::MicroarchDescriptor &uarch, std::size_t n);

/**
 * Run one workload under sampling, score Linux / CounterMiner /
 * (optionally WM+Pin) / BayesPerf against a polled reference run of
 * the same execution.
 */
std::vector<EstimatorErrors>
compareEstimators(const sim::MicroarchDescriptor &uarch,
                  const sim::WorkloadProfile &workload,
                  const std::vector<sim::EventId> &monitored,
                  const ComparisonConfig &config);

/**
 * percentile() for bench reporting paths: an empty sample set (e.g. a
 * 0-window run) yields NaN instead of dying, which the JsonWriter
 * serializes as null.  Inline so test binaries that only include the
 * header get it without linking the bench-util library.
 */
inline double
percentileOrNan(const std::vector<double> &xs, double p)
{
    if (xs.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return percentile(xs, p);
}

/** True when the BP_QUICK environment variable asks for short runs. */
bool quickMode();

/** numSlices, honoring quick mode. */
std::size_t defaultSlices();

} // namespace bench
} // namespace bperf

#endif // BPERF_BENCH_BENCH_UTIL_H
