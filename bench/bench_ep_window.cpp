/**
 * @file
 * Per-window EP latency of the inference hot path: the chain sweep
 * (JointStrategy::Chain, block-local marginals from block-tridiagonal
 * messages) against the dense reference (JointStrategy::DenseResolve,
 * a full n x n re-solve per site update), at two window shapes:
 *   - 13 events x k = 6 (n = 78), the paper's deployment shape, also
 *     timed with scalar quadrature and with MCMC moments;
 *   - 32 events x k = 8 (n = 256), a wide window, where the dense
 *     reference runs a single window (each one takes seconds).
 * Plus kernel micro-costs on the n = 78 chain (one quadrature pass,
 * one block-local rank-1 update, one chain pass, one dense
 * factorization), on the n = 256 window (one block marginal over the
 * block's site variables and over all of them, one block elimination,
 * the mean site variables per block) and the chain path's EP op
 * counts per window, so the µs numbers can be decomposed.
 *
 * Writes BENCH_ep_window.json into the working directory (the CI
 * bench smoke step uploads it).  BP_QUICK=1 shrinks repetitions.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/bayesperf.h"
#include "core/ep.h"
#include "core/inference.h"
#include "core/model_builder.h"
#include "core/quad_kernel.h"
#include "sim/ground_truth.h"
#include "sim/perf_session.h"
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

/** The 13-event monitored set of the n = 78 shape. */
std::vector<sim::EventId>
deploymentEvents(const sim::MicroarchDescriptor &uarch)
{
    std::vector<sim::EventId> monitored;
    for (sim::EventId e : uarch.fixedEvents())
        monitored.push_back(e);
    for (sim::Role r :
         {sim::Role::LlcMiss, sim::Role::L2Miss, sim::Role::L1DMiss,
          sim::Role::Loads, sim::Role::Stores, sim::Role::Branches,
          sim::Role::BranchMisses, sim::Role::StallMem,
          sim::Role::StallTotal, sim::Role::DramBytes})
        monitored.push_back(uarch.idForRole(r));
    return monitored;
}

/** A realistic multiplexed measurement run of `monitored`. */
sim::PerfResult
makeRun(const sim::MicroarchDescriptor &uarch,
        const std::vector<sim::EventId> &monitored, std::size_t num_slices)
{
    const auto workload = wl::makeHibench("KMeans");
    const sim::GroundTruthGenerator generator(uarch, workload);
    const sim::TruthTrace truth = generator.generate(num_slices, 9000);
    sim::PerfSessionConfig cfg;
    cfg.seed = 77;
    sim::PerfSession session(uarch, cfg);
    return session.runRoundRobin(truth, monitored);
}

/**
 * Gaussian part of a window graph: e events x k slices, slice-major
 * ids, a walk per event across slices and one three-event invariant
 * per slice, so the chain's block is one slice (e variables).
 */
graph::FactorGraph
makeChainGraph(std::size_t e, std::size_t k)
{
    graph::FactorGraph g;
    for (std::size_t i = 0; i < e * k; ++i) {
        const auto v = g.addVariable("v" + std::to_string(i), 100.0);
        g.addGaussianPrior("p", v, 100.0, 30.0);
    }
    auto id = [e](std::size_t t, std::size_t i) {
        return static_cast<graph::VarId>(t * e + i);
    };
    for (std::size_t t = 0; t < k; ++t) {
        g.addLinearGaussian("inv", {{id(t, 0), 1.0}, {id(t, 1), 1.0},
                                    {id(t, 2), -1.0}},
                            0.0, 5.0);
        for (std::size_t i = 0; t > 0 && i < e; ++i)
            g.addLinearGaussian("w", {{id(t, i), 1.0}, {id(t - 1, i), -1.0}},
                                0.0, 10.0);
    }
    return g;
}

struct WindowTiming
{
    double usPerWindow = 0.0;
    std::size_t windows = 0;
    std::size_t sweeps = 0;
    /** EP op counts of one full run (decomposes the µs number). */
    std::size_t momentEvals = 0;
    std::size_t rank1Updates = 0;
    std::size_t fullSolves = 0;
    std::size_t blockFlushes = 0;
    /** Buffer growths across the run: ~0 after the first window means
     * the arenas recycle instead of reallocating. */
    std::size_t allocations = 0;
};

WindowTiming
timeConfig(const sim::MicroarchDescriptor &uarch,
           const sim::PerfResult &run, const core::EpConfig &ep,
           std::size_t window_slices, std::size_t reps)
{
    core::InferenceConfig cfg;
    cfg.windowSlices = window_slices;
    cfg.ep = ep;

    WindowTiming t;
    double best = 1e300;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        const core::InferenceResult r = core::infer(uarch, run, cfg);
        t.windows = r.windowsRun;
        t.sweeps = r.epSweepsTotal;
        t.momentEvals = r.epMomentEvaluations;
        t.rank1Updates = r.epRank1Updates;
        t.fullSolves = r.epFullSolves;
        t.blockFlushes = r.epBlockFlushes;
        t.allocations = r.epWorkspaceAllocations + r.modelAllocations;
        best = std::min(best,
                        1e6 * r.wallSeconds /
                            static_cast<double>(r.windowsRun));
    }
    t.usPerWindow = best;
    return t;
}

/** Chain kernel costs on a real wide window graph (see main). */
struct WideKernelCosts
{
    /** Mean distinct site variables per block (the kept set). */
    double keptPerBlock = 0.0;
    /** One block marginal over the kept set, averaged over blocks. */
    double marginalSitesUs = 0.0;
    /** One block marginal over every variable of the block. */
    double marginalAllUs = 0.0;
    /** One forward elimination (assemble + factor + Schur message). */
    double eliminationUs = 0.0;
};

/**
 * The first window of `run` as a WindowModel with one Student-t site
 * per observed event and slice (default model, no level hints or
 * normalizer), timed kernel by kernel on graph::ChainSolver.
 */
WideKernelCosts
timeWideKernels(const sim::MicroarchDescriptor &uarch,
                const sim::PerfResult &run, std::size_t k)
{
    core::WindowModel model(uarch, run.monitored, k, core::ModelConfig{});
    for (std::size_t i = 0; i < run.monitored.size(); ++i) {
        for (std::size_t t = 0; t < k; ++t) {
            const sim::SliceSample &sample = run.traces[i].slices[t];
            if (!sample.observed)
                continue;
            core::MeasurementModel m;
            m.loc = sample.scaled();
            m.scale = std::max(0.05 * std::abs(m.loc), 1.0);
            model.addMeasurement(run.monitored[i], t, m);
        }
    }
    const graph::FactorGraph &g = model.graph();
    graph::ChainSolver chain;
    chain.rebind(g);
    const std::size_t blocks = chain.numBlocks();
    std::vector<std::vector<std::size_t>> keep(blocks);
    for (graph::FactorId fid : g.factorsOfKind(graph::FactorKind::StudentT)) {
        const graph::VarId v = g.factor(fid).vars[0];
        const std::size_t t = v / chain.blockSize();
        keep[t].push_back(v - chain.blockBegin(t));
    }
    std::size_t kept = 0;
    for (auto &set : keep) {
        std::sort(set.begin(), set.end());
        set.erase(std::unique(set.begin(), set.end()), set.end());
        kept += set.size();
    }
    std::vector<std::size_t> all(chain.blockSize());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;

    const std::vector<graph::Gaussian> sites(g.numVariables(),
                                             graph::Gaussian::flat());
    graph::GaussianJoint local;
    const std::size_t iters = bench::quickMode() ? 20 : 200;
    WideKernelCosts c;
    c.keptPerBlock = static_cast<double>(kept) / static_cast<double>(blocks);
    double sites_s = 0.0, all_s = 0.0, elim_s = 0.0;
    std::size_t marginals = 0;
    for (std::size_t it = 0; it < iters; ++it) {
        chain.beginSweep(sites);
        for (std::size_t t = 0; t < blocks; ++t) {
            const std::span<const std::size_t> all_t(all.data(),
                                                     chain.blockLength(t));
            double t0 = now();
            if (!keep[t].empty()) {
                chain.blockMarginal(t, sites, keep[t], local);
                ++marginals;
            }
            const double t1 = now();
            chain.blockMarginal(t, sites, all_t, local);
            const double t2 = now();
            chain.passForward(t, sites);
            const double t3 = now();
            sites_s += t1 - t0;
            all_s += t2 - t1;
            if (t + 1 < blocks)
                elim_s += t3 - t2;
        }
    }
    c.marginalSitesUs =
        1e6 * sites_s / static_cast<double>(marginals ? marginals : 1);
    c.marginalAllUs = 1e6 * all_s / static_cast<double>(iters * blocks);
    c.eliminationUs =
        1e6 * elim_s / static_cast<double>(iters * (blocks - 1));
    return c;
}

} // namespace

int
main()
{
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    const std::size_t reps = bench::quickMode() ? 1 : 5;
    const std::size_t num_slices = bench::quickMode() ? 24 : 96;
    constexpr std::size_t kSlices = 6, kWideSlices = 8;

    // ------------------------------------------- n = 78 end-to-end paths
    const std::vector<sim::EventId> monitored = deploymentEvents(uarch);
    const sim::PerfResult run = makeRun(uarch, monitored, num_slices);

    core::EpConfig ep_fast; // chain sweep + SIMD quadrature defaults
    const WindowTiming fast = timeConfig(uarch, run, ep_fast, kSlices, reps);

    core::EpConfig ep_scalar = ep_fast;
    ep_scalar.simdQuadrature = false;
    const WindowTiming scalar =
        timeConfig(uarch, run, ep_scalar, kSlices, reps);

    core::EpConfig ep_dense;
    ep_dense.jointStrategy = core::JointStrategy::DenseResolve;
    const WindowTiming dense = timeConfig(uarch, run, ep_dense, kSlices, reps);

    core::EpConfig ep_mcmc;
    ep_mcmc.method = core::MomentMethod::Mcmc;
    const WindowTiming fast_mcmc =
        timeConfig(uarch, run, ep_mcmc, kSlices, reps);

    // ------------------------------------------ n = 256 end-to-end paths
    const std::vector<sim::EventId> wide_events =
        core::resolveMonitoredSet(uarch, bench::evaluationEventSet(uarch));
    const sim::PerfResult wide_run =
        makeRun(uarch, wide_events, num_slices);
    const WindowTiming wide_fast =
        timeConfig(uarch, wide_run, ep_fast, kWideSlices, reps);
    const sim::PerfResult wide_one =
        makeRun(uarch, wide_events, kWideSlices);
    const WindowTiming wide_dense =
        timeConfig(uarch, wide_one, ep_dense, kWideSlices, 1);

    TablePrinter table({"config", "n", "us/window", "windows", "sweeps",
                        "speedup vs dense"});
    auto row = [&](const std::string &name, std::size_t n,
                   const WindowTiming &t, const WindowTiming &ref) {
        table.addRow(name, {static_cast<double>(n), t.usPerWindow,
                            static_cast<double>(t.windows),
                            static_cast<double>(t.sweeps),
                            ref.usPerWindow / t.usPerWindow});
    };
    const std::size_t n = monitored.size() * kSlices;
    const std::size_t wide_n = wide_events.size() * kWideSlices;
    row("chain + SIMD quadrature", n, fast, dense);
    row("chain + scalar quadrature", n, scalar, dense);
    row("dense re-solve reference", n, dense, dense);
    row("chain + MCMC moments", n, fast_mcmc, dense);
    row("chain + SIMD quadrature", wide_n, wide_fast, wide_dense);
    row("dense re-solve reference", wide_n, wide_dense, wide_dense);

    std::cout << "\nPer-window EP latency (" << monitored.size() << "x"
              << kSlices << " and " << wide_events.size() << "x"
              << kWideSlices << " events x slices, " << num_slices
              << " slices, quadrature " << core::activeQuadKernelName()
              << "):\n";
    table.print(std::cout);

    const double w = static_cast<double>(fast.windows ? fast.windows : 1);
    std::cout << "\nChain ops per window (n=" << n << "): "
              << fast.momentEvals / w << " moment evals, "
              << fast.rank1Updates / w << " rank-1 updates, "
              << fast.fullSolves / w << " chain passes, "
              << fast.blockFlushes / w << " block factorizations; "
              << fast.allocations << " buffer growths total\n";

    // ---------------------------------------- kernel micro-costs, n = 78
    const std::size_t quad_iters = bench::quickMode() ? 20000 : 200000;
    double m = 0.0, v = 0.0, sink = 0.0;
    double t0 = now();
    for (std::size_t i = 0; i < quad_iters; ++i) {
        core::tiltedMomentsQuadrature(100.0 + (i % 7), 25.0, 103.0, 4.0,
                                      3.0, 129, m, v);
        sink += m;
    }
    const double quad_us = 1e6 * (now() - t0) / quad_iters;

    const graph::FactorGraph g = makeChainGraph(monitored.size(), kSlices);
    const std::vector<graph::Gaussian> sites(n, graph::Gaussian::flat());
    graph::ChainSolver chain;
    chain.rebind(g);
    graph::GaussianJoint local;
    graph::SolverScratch scratch;
    std::vector<double> mean, stddev;

    const std::size_t r1_iters = bench::quickMode() ? 5000 : 50000;
    chain.beginSweep(sites);
    const std::vector<std::size_t> all_vars = [&] {
        std::vector<std::size_t> v(chain.blockLength(0));
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = i;
        return v;
    }();
    chain.blockMarginal(0, sites, all_vars, local);
    t0 = now();
    for (std::size_t i = 0; i < r1_iters; ++i) {
        // Alternate up/down so the block stays near its start state.
        const double dl = (i % 2 == 0) ? 1e-4 : -1e-4;
        graph::GaussianSolver::rank1SiteUpdate(
            local, static_cast<graph::VarId>(i % chain.blockSize()), dl, dl,
            scratch);
    }
    const double rank1_us = 1e6 * (now() - t0) / r1_iters;

    const std::size_t pass_iters = bench::quickMode() ? 500 : 5000;
    t0 = now();
    for (std::size_t i = 0; i < pass_iters; ++i)
        chain.marginals(sites, mean, stddev, local);
    const double pass_us = 1e6 * (now() - t0) / pass_iters;

    const graph::GaussianSolver solver(g);
    graph::GaussianJoint joint;
    const std::size_t solve_iters = bench::quickMode() ? 200 : 2000;
    t0 = now();
    for (std::size_t i = 0; i < solve_iters; ++i)
        solver.solveInto({}, joint, scratch);
    const double solve_us = 1e6 * (now() - t0) / solve_iters;

    std::cout << "\nKernel micro-costs at n=" << n << " (blocks of "
              << chain.blockSize() << "):\n"
              << "  fused quadrature (129 pts):  " << quad_us << " us\n"
              << "  block rank-1 site update:    " << rank1_us << " us\n"
              << "  chain pass (all marginals):  " << pass_us << " us\n"
              << "  dense n x n factorization:   " << solve_us << " us\n"
              << "  (sink " << sink + mean[0] << ")\n";

    // ---------------------------------------- kernel micro-costs, n = 256
    const WideKernelCosts wide = timeWideKernels(uarch, wide_run, kWideSlices);
    std::cout << "\nKernel micro-costs at n=" << wide_n << " (blocks of "
              << wide_events.size() << ", " << wide.keptPerBlock
              << " site variables per block on average):\n"
              << "  block marginal, site variables: " << wide.marginalSitesUs
              << " us\n"
              << "  block marginal, all variables:  " << wide.marginalAllUs
              << " us\n"
              << "  one block elimination:          " << wide.eliminationUs
              << " us\n";

    // ------------------------------------------------------ JSON output
    bench::JsonWriter json;
    json.beginObject()
        .field("events", monitored.size())
        .field("window_slices", kSlices)
        .field("joint_size", n)
        .field("quad_kernel", core::activeQuadKernelName())
        .field("us_per_window_fast", fast.usPerWindow)
        .field("us_per_window_scalar", scalar.usPerWindow)
        .field("us_per_window_dense", dense.usPerWindow)
        .field("us_per_window_mcmc", fast_mcmc.usPerWindow)
        .field("speedup_fast_vs_dense",
               dense.usPerWindow / fast.usPerWindow)
        .field("speedup_simd_vs_scalar",
               scalar.usPerWindow / fast.usPerWindow)
        .field("wide_events", wide_events.size())
        .field("wide_window_slices", kWideSlices)
        .field("wide_joint_size", wide_n)
        .field("us_per_window_fast_wide", wide_fast.usPerWindow)
        .field("us_per_window_dense_wide", wide_dense.usPerWindow)
        .field("speedup_fast_vs_dense_wide",
               wide_dense.usPerWindow / wide_fast.usPerWindow)
        .field("moment_evals_per_window", fast.momentEvals / w)
        .field("rank1_updates_per_window", fast.rank1Updates / w)
        .field("full_solves_per_window", fast.fullSolves / w)
        .field("block_flushes_per_window", fast.blockFlushes / w)
        .field("buffer_growths", fast.allocations)
        .field("quadrature_us", quad_us)
        .field("rank1_update_us", rank1_us)
        .field("chain_pass_us", pass_us)
        .field("full_solve_us", solve_us)
        .field("wide_kept_per_block", wide.keptPerBlock)
        .field("wide_block_marginal_sites_us", wide.marginalSitesUs)
        .field("wide_block_marginal_all_us", wide.marginalAllUs)
        .field("wide_elimination_us", wide.eliminationUs)
        .endObject();
    if (!json.writeFile("BENCH_ep_window.json")) {
        std::cerr << "failed to write BENCH_ep_window.json\n";
        return 1;
    }
    std::cout << "\nwrote BENCH_ep_window.json\n";
    return 0;
}
