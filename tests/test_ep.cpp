/**
 * @file
 * Tests for Expectation Propagation: tilted-moment computation,
 * agreement with exact Gaussian inference, the chain sweep against the
 * dense reference, robustness behaviour.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/ep.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/model_builder.h"
#include "graph/exact.h"
#include "sim/microarch.h"

namespace bperf {
namespace core {
namespace {

using graph::FactorGraph;

TEST(TiltedMoments, GaussianLikelihoodIsExact)
{
    // With nu large the Student-t is essentially Gaussian, and the
    // tilted moments have a closed form.
    const double cav_mean = 1.0, cav_var = 4.0;
    const double loc = 3.0, scale = 1.0, nu = 1e6;
    double m, v;
    tiltedMomentsQuadrature(cav_mean, cav_var, loc, scale, nu, 401, m, v);

    const double lam = 1.0 / cav_var + 1.0 / (scale * scale);
    const double expected_mean =
        (cav_mean / cav_var + loc / (scale * scale)) / lam;
    const double expected_var = 1.0 / lam;
    EXPECT_NEAR(m, expected_mean, 1e-3);
    EXPECT_NEAR(v, expected_var, 1e-3);
}

TEST(TiltedMoments, McmcMatchesQuadrature)
{
    const double cav_mean = 2.0, cav_var = 1.0;
    const double loc = 0.0, scale = 0.5, nu = 4.0;
    double mq, vq, mm, vm;
    tiltedMomentsQuadrature(cav_mean, cav_var, loc, scale, nu, 401, mq, vq);
    tiltedMomentsMcmc(cav_mean, cav_var, loc, scale, nu, 20000, 2000, 13,
                      mm, vm);
    EXPECT_NEAR(mm, mq, 0.05 * std::sqrt(vq) * 3.0);
    EXPECT_NEAR(vm, vq, 0.2 * vq);
}

TEST(TiltedMoments, GaussianLimitAcrossScales)
{
    // nu -> infinity: the Student-t degenerates to a Gaussian and the
    // tilted moments have the conjugate closed form.  Sweep scales
    // spanning the five orders of magnitude real counters cover.
    const double nu = 1e8;
    struct Case
    {
        double cm, cv, loc, scale;
    } cases[] = {
        {1.0, 4.0, 3.0, 1.0},
        {1e9, 1e16, 1.2e9, 5e7},
        {-2.0, 0.25, -1.5, 2.0},
        {3e4, 9e6, 2.8e4, 1.5e3},
    };
    for (const Case &c : cases) {
        double m, v;
        tiltedMomentsQuadrature(c.cm, c.cv, c.loc, c.scale, nu, 801, m, v);
        const double lam = 1.0 / c.cv + 1.0 / (c.scale * c.scale);
        const double expected_mean =
            (c.cm / c.cv + c.loc / (c.scale * c.scale)) / lam;
        const double expected_var = 1.0 / lam;
        EXPECT_NEAR(m, expected_mean, 2e-3 * std::sqrt(expected_var));
        EXPECT_NEAR(v, expected_var, 2e-3 * expected_var);
    }
}

/**
 * The pre-rewrite reference: two passes over a materialized
 * log-weight buffer, with the full (constant-carrying) log-densities.
 * The fused single-pass loop must reproduce it.
 */
void
tiltedMomentsTwoPassReference(double cavity_mean, double cavity_var,
                              double loc, double scale, double nu,
                              std::size_t points, double &mean_out,
                              double &var_out)
{
    const double cavity_sd = std::sqrt(cavity_var);
    const double lo =
        std::min(cavity_mean - 8.0 * cavity_sd, loc - 10.0 * scale);
    const double hi =
        std::max(cavity_mean + 8.0 * cavity_sd, loc + 10.0 * scale);
    const double step = (hi - lo) / static_cast<double>(points - 1);

    std::vector<double> logw(points);
    double max_logw = -1e300;
    for (std::size_t i = 0; i < points; ++i) {
        const double x = lo + step * static_cast<double>(i);
        logw[i] = normalLogPdf(x, cavity_mean, cavity_sd) +
                  studentTLogPdf(x, nu, loc, scale);
        max_logw = std::max(max_logw, logw[i]);
    }
    double z = 0.0, m1 = 0.0, m2 = 0.0;
    for (std::size_t i = 0; i < points; ++i) {
        const double x = lo + step * static_cast<double>(i);
        const double w = std::exp(logw[i] - max_logw);
        z += w;
        m1 += w * x;
        m2 += w * x * x;
    }
    mean_out = m1 / z;
    var_out = std::max(m2 / z - mean_out * mean_out, 1e-30);
}

TEST(TiltedMoments, FusedLoopMatchesTwoPassReference)
{
    struct Case
    {
        double cm, cv, loc, scale, nu;
    } cases[] = {
        {2.0, 1.0, 0.0, 0.5, 4.0},    // overlapping, heavy tail
        {0.0, 1.0, 50.0, 1.0, 3.0},   // far outlier (skip path hot)
        {1e9, 1e16, 9.5e8, 2e7, 30.0},// counter magnitudes
        {5.0, 100.0, 5.0, 0.01, 3.0}, // likelihood much tighter
        {-3.0, 0.04, -2.9, 5.0, 2.0}, // cavity much tighter, nu <= 2
    };
    for (const Case &c : cases) {
        for (std::size_t points : {129u, 257u}) {
            double mf, vf, mr, vr;
            tiltedMomentsQuadrature(c.cm, c.cv, c.loc, c.scale, c.nu,
                                    points, mf, vf);
            tiltedMomentsTwoPassReference(c.cm, c.cv, c.loc, c.scale,
                                          c.nu, points, mr, vr);
            // Dropping the shared density constants must be invisible
            // at double precision.  The variance bound carries an
            // extra eps * mean^2 term: this naive reference computes
            // m2/z - mean^2 in raw coordinates, so *its* result loses
            // up to eps * mean^2 to cancellation — error the centered
            // production kernel no longer makes.
            EXPECT_NEAR(mf, mr, 1e-9 * (std::abs(mr) + std::sqrt(vr)))
                << "points=" << points;
            EXPECT_NEAR(vf, vr, 1e-9 * vr + 1e-14 * mr * mr)
                << "points=" << points;
        }
    }
}

TEST(TiltedMoments, HeavyTailRejectsOutlier)
{
    // A Student-t likelihood far from a tight cavity should barely
    // move the posterior (robustness), unlike a Gaussian would.
    double m, v;
    tiltedMomentsQuadrature(0.0, 1.0, 50.0, 1.0, 3.0, 801, m, v);
    EXPECT_LT(std::abs(m), 1.0);
}

/** Build a small chain graph with Student-t measurements. */
FactorGraph
makeChain(double nu)
{
    FactorGraph g;
    const auto a = g.addVariable("a", 10.0);
    const auto b = g.addVariable("b", 10.0);
    const auto c = g.addVariable("c", 10.0);
    g.addGaussianPrior("pa", a, 10.0, 20.0);
    g.addGaussianPrior("pb", b, 10.0, 20.0);
    g.addGaussianPrior("pc", c, 10.0, 20.0);
    // a + b = c (tight linear invariant).
    g.addLinearGaussian("sum", {{a, 1.0}, {b, 1.0}, {c, -1.0}}, 0.0, 0.01);
    g.addStudentT("ma", a, 4.0, 1.0, nu);
    g.addStudentT("mb", b, 6.0, 1.0, nu);
    g.addStudentT("mc", c, 11.0, 1.0, nu);
    return g;
}

TEST(ExpectationPropagation, MatchesExactGaussianInference)
{
    // With nu large, Student-t factors are Gaussian and EP must agree
    // with the exact information-form solve.
    FactorGraph g = makeChain(1e6);

    EpConfig cfg;
    cfg.maxSweeps = 30;
    cfg.tolerance = 1e-9;
    ExpectationPropagation ep(cfg);
    const EpResult result = ep.run(g);
    EXPECT_TRUE(result.converged);

    // Exact: treat the t factors as Gaussian priors.
    FactorGraph ge;
    const auto a = ge.addVariable("a", 10.0);
    const auto b = ge.addVariable("b", 10.0);
    const auto c = ge.addVariable("c", 10.0);
    ge.addGaussianPrior("pa", a, 10.0, 20.0);
    ge.addGaussianPrior("pb", b, 10.0, 20.0);
    ge.addGaussianPrior("pc", c, 10.0, 20.0);
    ge.addLinearGaussian("sum", {{a, 1.0}, {b, 1.0}, {c, -1.0}}, 0.0, 0.01);
    ge.addGaussianPrior("ma", a, 4.0, 1.0);
    ge.addGaussianPrior("mb", b, 6.0, 1.0);
    ge.addGaussianPrior("mc", c, 11.0, 1.0);
    graph::GaussianSolver solver(ge);
    const graph::GaussianJoint exact = solver.solve();

    for (std::size_t v = 0; v < 3; ++v) {
        EXPECT_NEAR(result.mean[v], exact.mean[v], 5e-3)
            << "variable " << v;
        EXPECT_NEAR(result.stddev[v],
                    std::sqrt(exact.covariance(v, v)), 5e-3)
            << "variable " << v;
    }
}

TEST(ExpectationPropagation, InvariantPullsEstimatesTogether)
{
    // Conflicting measurements + a tight invariant: the posterior
    // must satisfy a + b ≈ c much better than the raw measurements.
    FactorGraph g = makeChain(5.0);
    ExpectationPropagation ep;
    const EpResult r = ep.run(g);
    const double residual = r.mean[0] + r.mean[1] - r.mean[2];
    EXPECT_LT(std::abs(residual), 0.2);
}

TEST(ExpectationPropagation, McmcPathAgreesWithQuadrature)
{
    FactorGraph g = makeChain(5.0);

    EpConfig cq;
    cq.method = MomentMethod::Quadrature;
    const EpResult rq = ExpectationPropagation(cq).run(g);

    EpConfig cm;
    cm.method = MomentMethod::Mcmc;
    cm.mcmcSamples = 4000;
    cm.mcmcBurnin = 500;
    const EpResult rm = ExpectationPropagation(cm).run(g);

    for (std::size_t v = 0; v < 3; ++v)
        EXPECT_NEAR(rm.mean[v], rq.mean[v], 0.25) << "variable " << v;
}

TEST(ExpectationPropagation, WorkspaceReuseIsAllocationFree)
{
    FactorGraph g = makeChain(5.0);
    EpWorkspace ws;
    ExpectationPropagation ep;
    const EpResult first = ep.run(g, ws);
    EXPECT_GT(first.workspaceAllocations, 0u);
    for (int i = 0; i < 3; ++i) {
        // Same graph shape, warm workspace: no buffer growth, and the
        // posterior is bitwise reproducible.
        const EpResult again = ep.run(g, ws);
        EXPECT_EQ(again.workspaceAllocations, 0u);
        for (std::size_t v = 0; v < 3; ++v) {
            EXPECT_DOUBLE_EQ(again.mean[v], first.mean[v]);
            EXPECT_DOUBLE_EQ(again.stddev[v], first.stddev[v]);
        }
    }
    EXPECT_EQ(ws.runs(), 4u);
}

TEST(ExpectationPropagation, Rank1UpdatesMatchDenseResolve)
{
    for (double nu : {3.0, 5.0, 1e6}) {
        FactorGraph g = makeChain(nu);
        EpConfig fast;
        fast.jointStrategy = JointStrategy::Chain;
        EpConfig dense;
        dense.jointStrategy = JointStrategy::DenseResolve;
        const EpResult rf = ExpectationPropagation(fast).run(g);
        const EpResult rd = ExpectationPropagation(dense).run(g);
        EXPECT_GT(rf.rank1Updates, 0u);
        EXPECT_EQ(rd.rank1Updates, 0u);
        // Sweep counts may differ by one when a sweep's movement sits
        // at the tolerance boundary; the posteriors must still agree.
        EXPECT_NEAR(static_cast<double>(rf.sweeps),
                    static_cast<double>(rd.sweeps), 1.0)
            << "nu=" << nu;
        for (std::size_t v = 0; v < 3; ++v) {
            EXPECT_NEAR(rf.mean[v], rd.mean[v],
                        1e-6 * std::abs(rd.mean[v]) + 1e-9)
                << "nu=" << nu << " var " << v;
            EXPECT_NEAR(rf.stddev[v], rd.stddev[v],
                        1e-6 * rd.stddev[v] + 1e-12)
                << "nu=" << nu << " var " << v;
        }
    }
}

/** One measurement site of a window graph. */
struct WindowSite
{
    sim::EventId event;
    std::size_t slice;
    MeasurementModel m;
};

/**
 * Measurements for the first `num_events` catalog events over k
 * slices (the whole catalog under includeLatent), each event observed
 * in one slice of every `every` — a multiplexing-like pattern — in
 * the event-major order the windowed engine adds them.
 */
std::vector<WindowSite>
windowSites(const sim::MicroarchDescriptor &uarch,
            const std::vector<sim::EventId> &events, std::size_t k,
            std::size_t every)
{
    Rng rng(17 + events.size() * 31 + k);
    std::vector<WindowSite> sites;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const double level = uarch.event(events[i]).typicalPerSlice;
        for (std::size_t t = 0; t < k; ++t) {
            if ((i + t) % every != 0)
                continue;
            MeasurementModel m;
            m.loc = level * (1.0 + 0.2 * rng.normal());
            m.scale = 0.1 * level;
            m.nu = i % 2 == 0 ? 3.0 : 30.0;
            sites.push_back({events[i], t, m});
        }
    }
    return sites;
}

std::vector<sim::EventId>
firstEvents(const sim::MicroarchDescriptor &uarch, std::size_t n)
{
    std::vector<sim::EventId> events;
    for (std::size_t i = 0; i < n; ++i)
        events.push_back(uarch.events()[i].id);
    return events;
}

/** Per-slice instruction counts: enables the ratio walks. */
std::vector<double>
normalizerFor(std::size_t k)
{
    std::vector<double> norm;
    for (std::size_t t = 0; t < k; ++t)
        norm.push_back(1e9 * (1.0 + 0.1 * std::sin(static_cast<double>(t))));
    return norm;
}

void
expectPosteriorsClose(const EpResult &got, const EpResult &want,
                      double rel_tol, const std::string &what)
{
    ASSERT_EQ(got.mean.size(), want.mean.size()) << what;
    for (std::size_t v = 0; v < want.mean.size(); ++v) {
        EXPECT_NEAR(got.mean[v], want.mean[v],
                    rel_tol * std::abs(want.mean[v]) + 1e-9)
            << what << " mean[" << v << "]";
        EXPECT_NEAR(got.stddev[v], want.stddev[v],
                    rel_tol * want.stddev[v] + 1e-12)
            << what << " stddev[" << v << "]";
    }
}

TEST(ChainSweep, MatchesDenseResolveOnWindowModels)
{
    // The chain sweep is sequential EP with the dense joint replaced
    // by block-local marginals, on the same schedule as DenseResolve:
    // the two must agree to rounding.  A dense solve at n = 256 costs
    // milliseconds and DenseResolve runs one per site change, so the
    // wide shapes (includeLatent models the whole catalog) observe
    // fewer sites and stop after two sweeps.
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    struct Shape
    {
        std::size_t events, k;
        bool latent;
        std::size_t every, sweeps;
    };
    for (const Shape shape :
         {Shape{13, 1, false, 2, 8}, Shape{13, 1, true, 2, 8},
          Shape{13, 6, false, 2, 8}, Shape{13, 6, true, 6, 2},
          Shape{32, 8, false, 8, 2}, Shape{32, 8, true, 16, 2}}) {
        ModelConfig mc;
        mc.includeLatent = shape.latent;
        const std::vector<double> norm = normalizerFor(shape.k);
        WindowModel model(uarch, firstEvents(uarch, shape.events), shape.k,
                          mc, nullptr, &norm);
        for (const WindowSite &s :
             windowSites(uarch, model.events(), shape.k, shape.every))
            model.addMeasurement(s.event, s.slice, s.m);

        EpConfig chain_cfg;
        chain_cfg.maxSweeps = shape.sweeps;
        EpConfig dense_cfg = chain_cfg;
        dense_cfg.jointStrategy = JointStrategy::DenseResolve;
        const EpResult chain =
            ExpectationPropagation(chain_cfg).run(model.graph());
        const EpResult dense =
            ExpectationPropagation(dense_cfg).run(model.graph());
        const std::string what = std::to_string(model.events().size()) +
                                 "x" + std::to_string(shape.k) +
                                 (shape.latent ? " latent" : "");
        EXPECT_GT(chain.rank1Updates, 0u) << what;
        EXPECT_EQ(chain.sweeps, dense.sweeps) << what;
        EXPECT_EQ(chain.skippedUpdates, dense.skippedUpdates) << what;
        expectPosteriorsClose(chain, dense, 1e-6, what);
    }
}

TEST(ChainSweep, BlockIsOneSliceOfAWindowModel)
{
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    for (std::size_t k : {2u, 6u, 8u}) {
        for (bool latent : {false, true}) {
            ModelConfig mc;
            mc.includeLatent = latent;
            const std::vector<double> norm = normalizerFor(k);
            const WindowModel model(uarch, firstEvents(uarch, 13), k, mc,
                                    nullptr, &norm);
            graph::ChainSolver chain;
            chain.rebind(model.graph());
            EXPECT_EQ(chain.blockSize(), model.events().size())
                << "k=" << k << (latent ? " latent" : "");
            EXPECT_EQ(chain.numBlocks(), k);
        }
    }
}

TEST(ChainSweep, ScheduleIsBlockMajorWhateverTheSiteOrder)
{
    // Sites run block by block, in graph order within a block.  Adding
    // the same sites with the blocks interleaved differently (order
    // within each block kept) must therefore give a bit-identical
    // posterior, and a fully shuffled order must still match
    // DenseResolve, which runs the same block schedule.
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    constexpr std::size_t k = 6;
    const std::vector<sim::EventId> events = firstEvents(uarch, 13);
    const std::vector<double> norm = normalizerFor(k);
    const std::vector<WindowSite> base = windowSites(uarch, events, k, 2);

    auto run = [&](const std::vector<WindowSite> &sites,
                   JointStrategy strategy) {
        WindowModel model(uarch, events, k, {}, nullptr, &norm);
        for (const WindowSite &s : sites)
            model.addMeasurement(s.event, s.slice, s.m);
        EpConfig cfg;
        cfg.jointStrategy = strategy;
        return ExpectationPropagation(cfg).run(model.graph());
    };

    // Slice-major (block order) vs the event-major base order: the
    // per-block order is the event order either way.
    std::vector<WindowSite> by_slice = base;
    std::stable_sort(by_slice.begin(), by_slice.end(),
                     [](const WindowSite &a, const WindowSite &b) {
                         return a.slice < b.slice;
                     });
    const EpResult event_major = run(base, JointStrategy::Chain);
    const EpResult slice_major = run(by_slice, JointStrategy::Chain);
    ASSERT_EQ(event_major.mean.size(), slice_major.mean.size());
    for (std::size_t v = 0; v < event_major.mean.size(); ++v) {
        EXPECT_EQ(event_major.mean[v], slice_major.mean[v]) << v;
        EXPECT_EQ(event_major.stddev[v], slice_major.stddev[v]) << v;
    }

    std::vector<WindowSite> shuffled = base;
    Rng rng(5);
    for (std::size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1],
                  shuffled[static_cast<std::size_t>(rng.uniform() * i)]);
    expectPosteriorsClose(run(shuffled, JointStrategy::Chain),
                          run(shuffled, JointStrategy::DenseResolve), 1e-6,
                          "shuffled");
}

TEST(ChainSweep, WarmWorkspaceAllocatesNothing)
{
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    const std::vector<double> norm = normalizerFor(8);
    WindowModel model(uarch, firstEvents(uarch, 32), 8, {}, nullptr, &norm);
    for (const WindowSite &s : windowSites(uarch, model.events(), 8, 4))
        model.addMeasurement(s.event, s.slice, s.m);

    EpWorkspace ws;
    EpResult result;
    const ExpectationPropagation ep;
    ep.run(model.graph(), ws, result);
    EXPECT_GT(result.workspaceAllocations, 0u);
    const std::vector<double> first = result.mean;
    ep.run(model.graph(), ws, result);
    EXPECT_EQ(result.workspaceAllocations, 0u);
    EXPECT_EQ(result.mean, first);
}

TEST(ChainSweep, SitelessBlocksSkipTheirMarginal)
{
    // A block marginal covers the block's site variables only, so a
    // slice without measurements needs none: its block is only passed
    // forward.  Only the three slices with sites are factorized each
    // sweep (plus refused downdates), and the posterior — the silent
    // slices' included — still matches the dense reference.
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    constexpr std::size_t k = 6;
    const std::vector<double> norm = normalizerFor(k);
    auto run = [&](JointStrategy strategy) {
        WindowModel model(uarch, firstEvents(uarch, 13), k, {}, nullptr,
                          &norm);
        for (const WindowSite &s : windowSites(uarch, model.events(), k, 2))
            if (s.slice == 0 || s.slice == 2 || s.slice == 3)
                model.addMeasurement(s.event, s.slice, s.m);
        EpConfig cfg;
        cfg.maxSweeps = 4;
        cfg.jointStrategy = strategy;
        return ExpectationPropagation(cfg).run(model.graph());
    };
    const EpResult chain = run(JointStrategy::Chain);
    const EpResult dense = run(JointStrategy::DenseResolve);
    const std::size_t per_sweep = 3 * chain.sweeps;
    EXPECT_GE(chain.blockFlushes, per_sweep);
    // Every flush beyond one per sited block is a refused downdate:
    // a moment evaluation that did not become a rank-1 update.
    EXPECT_LE(chain.blockFlushes - per_sweep,
              chain.momentEvaluations - chain.rank1Updates);
    EXPECT_LT(chain.blockFlushes, k * chain.sweeps);
    EXPECT_EQ(chain.sweeps, dense.sweeps);
    expectPosteriorsClose(chain, dense, 1e-6, "siteless slices");
}

TEST(ChainSweep, SitesSharingAVariableShareOneMarginalEntry)
{
    // Two measurements of the same (event, slice) are two sites on
    // one variable: the block's kept set lists it once and both sites
    // read and update that one entry.
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    constexpr std::size_t k = 4;
    const std::vector<double> norm = normalizerFor(k);
    auto run = [&](JointStrategy strategy) {
        WindowModel model(uarch, firstEvents(uarch, 13), k, {}, nullptr,
                          &norm);
        for (const WindowSite &s : windowSites(uarch, model.events(), k, 3)) {
            model.addMeasurement(s.event, s.slice, s.m);
            MeasurementModel again = s.m;
            again.loc *= 1.05;
            model.addMeasurement(s.event, s.slice, again);
        }
        EpConfig cfg;
        cfg.jointStrategy = strategy;
        return ExpectationPropagation(cfg).run(model.graph());
    };
    const EpResult chain = run(JointStrategy::Chain);
    EXPECT_GT(chain.rank1Updates, 0u);
    expectPosteriorsClose(chain, run(JointStrategy::DenseResolve), 1e-6,
                          "shared variables");
}

TEST(ChainSweep, WarmWorkspaceAllocatesNothingForSparserSites)
{
    // Kept sets are sized by the sites: a warm workspace that served a
    // densely measured window serves a sparser one of the same shape
    // without allocating.
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    const std::vector<double> norm = normalizerFor(8);
    EpWorkspace ws;
    EpResult result;
    const ExpectationPropagation ep;
    for (const std::size_t every : {2u, 5u}) {
        WindowModel model(uarch, firstEvents(uarch, 32), 8, {}, nullptr,
                          &norm);
        for (const WindowSite &s :
             windowSites(uarch, model.events(), 8, every))
            model.addMeasurement(s.event, s.slice, s.m);
        ep.run(model.graph(), ws, result);
        if (every == 2)
            EXPECT_GT(result.workspaceAllocations, 0u);
        else
            EXPECT_EQ(result.workspaceAllocations, 0u);
    }
}

TEST(ChainSweep, WorkspaceHoldsNoDenseJoint)
{
    // O(k e^2) storage: messages and blocks, never an n x n buffer.
    // Doubling the window doubles the workspace instead of
    // quadrupling it.
    const sim::MicroarchDescriptor uarch = sim::makeX86Skylake();
    constexpr std::size_t e = 32;
    std::size_t held[2] = {0, 0};
    for (std::size_t i = 0; i < 2; ++i) {
        const std::size_t k = 8 << i;
        const std::vector<double> norm = normalizerFor(k);
        WindowModel model(uarch, firstEvents(uarch, e), k, {}, nullptr,
                          &norm);
        for (const WindowSite &s : windowSites(uarch, model.events(), k, 4))
            model.addMeasurement(s.event, s.slice, s.m);
        EpWorkspace ws;
        ExpectationPropagation().run(model.graph(), ws);
        const std::size_t n = e * k;
        held[i] = ws.bufferDoubles();
        EXPECT_LE(held[i], 4 * (k + 2) * e * e + 16 * n) << "k=" << k;
        EXPECT_LT(held[i], n * n) << "k=" << k;
    }
    EXPECT_LT(held[1], 5 * held[0] / 2);
}

TEST(ExpectationPropagation, UnbiasedUnderSymmetricNoise)
{
    // Repeatedly infer a single variable from noisy measurements:
    // the average posterior mean must track the true value, not sit
    // below it (regression test for multiplicative-noise bias).
    Rng rng(99);
    const double truth = 100.0;
    double sum = 0.0;
    const int trials = 60;
    for (int trial = 0; trial < trials; ++trial) {
        FactorGraph g;
        const auto x = g.addVariable("x", 100.0);
        g.addGaussianPrior("p", x, 100.0, 400.0);
        for (int i = 0; i < 3; ++i) {
            const double m = truth * (1.0 + 0.3 * rng.normal());
            g.addStudentT("m", x, m, 30.0, 3.0);
        }
        const EpResult r = ExpectationPropagation().run(g);
        sum += r.mean[0];
    }
    const double avg = sum / trials;
    EXPECT_NEAR(avg, truth, 8.0);
}

} // namespace
} // namespace core
} // namespace bperf
