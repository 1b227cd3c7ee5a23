/** @file Tests for the factor graph, Gaussians, and exact inference. */

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/exact.h"
#include "graph/factor_graph.h"
#include "common/rng.h"
#include "graph/gaussian.h"

namespace bperf {
namespace graph {
namespace {

TEST(Gaussian, MomentRoundTrip)
{
    const Gaussian g = Gaussian::fromMeanVar(3.0, 4.0);
    EXPECT_DOUBLE_EQ(g.mean(), 3.0);
    EXPECT_DOUBLE_EQ(g.variance(), 4.0);
}

TEST(Gaussian, ProductIsPrecisionWeighted)
{
    const Gaussian a = Gaussian::fromMeanVar(0.0, 1.0);
    const Gaussian b = Gaussian::fromMeanVar(10.0, 1.0);
    const Gaussian p = a * b;
    EXPECT_DOUBLE_EQ(p.mean(), 5.0);
    EXPECT_DOUBLE_EQ(p.variance(), 0.5);
}

TEST(Gaussian, DivisionInvertsProduct)
{
    const Gaussian a = Gaussian::fromMeanVar(2.0, 3.0);
    const Gaussian b = Gaussian::fromMeanVar(-1.0, 5.0);
    const Gaussian back = (a * b) / b;
    EXPECT_NEAR(back.mean(), a.mean(), 1e-12);
    EXPECT_NEAR(back.variance(), a.variance(), 1e-12);
}

TEST(Gaussian, FlatIsIdentity)
{
    const Gaussian a = Gaussian::fromMeanVar(2.0, 3.0);
    const Gaussian p = a * Gaussian::flat();
    EXPECT_DOUBLE_EQ(p.mean(), 2.0);
    EXPECT_FALSE(Gaussian::flat().isProper());
}

FactorGraph
chainGraph()
{
    // a - f1 - b - f2 - c, plus d isolated-ish via f3(d, a).
    FactorGraph g;
    const auto a = g.addVariable("a", 1.0);
    const auto b = g.addVariable("b", 1.0);
    const auto c = g.addVariable("c", 1.0);
    const auto d = g.addVariable("d", 1.0);
    g.addLinearGaussian("f1", {{a, 1.0}, {b, -1.0}}, 0.0, 1.0);
    g.addLinearGaussian("f2", {{b, 1.0}, {c, -1.0}}, 0.0, 1.0);
    g.addLinearGaussian("f3", {{d, 1.0}, {a, -1.0}}, 0.0, 1.0);
    return g;
}

TEST(FactorGraph, MarkovBlanketIsFactorNeighbours)
{
    const FactorGraph g = chainGraph();
    EXPECT_EQ(g.markovBlanket(0), (std::set<VarId>{1, 3})); // a: b, d
    EXPECT_EQ(g.markovBlanket(1), (std::set<VarId>{0, 2})); // b: a, c
    EXPECT_EQ(g.markovBlanket(3), (std::set<VarId>{0}));    // d: a
}

TEST(FactorGraph, BlanketOfSetExcludesSet)
{
    const FactorGraph g = chainGraph();
    const auto blanket = g.markovBlanketOfSet({0, 1});
    EXPECT_EQ(blanket, (std::set<VarId>{2, 3}));
}

TEST(FactorGraph, ShortestPathFollowsChain)
{
    const FactorGraph g = chainGraph();
    EXPECT_EQ(g.shortestPath(3, 2), (std::vector<VarId>{3, 0, 1, 2}));
    EXPECT_EQ(g.shortestPath(1, 1), (std::vector<VarId>{1}));
}

TEST(FactorGraph, DisconnectedPathIsEmpty)
{
    FactorGraph g;
    g.addVariable("a", 1.0);
    g.addVariable("b", 1.0);
    EXPECT_TRUE(g.shortestPath(0, 1).empty());
}

TEST(GaussianSolver, SingleVariablePosterior)
{
    // Prior N(0, 1), Gaussian observation N(4, 1) -> posterior N(2, 0.5).
    FactorGraph g;
    const auto x = g.addVariable("x", 1.0);
    g.addGaussianPrior("p", x, 0.0, 1.0);
    g.addGaussianPrior("m", x, 4.0, 1.0);
    const auto joint = GaussianSolver(g).solve();
    EXPECT_NEAR(joint.mean[0], 2.0, 1e-9);
    EXPECT_NEAR(joint.covariance(0, 0), 0.5, 1e-9);
}

TEST(GaussianSolver, LinearConstraintCouplesVariables)
{
    // x ~ N(0, 1), y ~ N(10, 1), constraint x = y (tight):
    // both posteriors -> 5 with strong correlation.
    FactorGraph g;
    const auto x = g.addVariable("x", 1.0);
    const auto y = g.addVariable("y", 1.0);
    g.addGaussianPrior("px", x, 0.0, 1.0);
    g.addGaussianPrior("py", y, 10.0, 1.0);
    g.addLinearGaussian("eq", {{x, 1.0}, {y, -1.0}}, 0.0, 1e-4);
    const auto joint = GaussianSolver(g).solve();
    EXPECT_NEAR(joint.mean[0], 5.0, 1e-3);
    EXPECT_NEAR(joint.mean[1], 5.0, 1e-3);
    const double corr =
        joint.covariance(0, 1) /
        std::sqrt(joint.covariance(0, 0) * joint.covariance(1, 1));
    EXPECT_GT(corr, 0.99);
}

TEST(GaussianSolver, ScaleHintsDoNotChangeAnswer)
{
    // The same model expressed with very different scale hints must
    // produce identical posteriors (hints only precondition).
    auto build = [](double hint) {
        FactorGraph g;
        const auto x = g.addVariable("x", hint);
        const auto y = g.addVariable("y", hint * 100.0);
        g.addGaussianPrior("px", x, 1.0e6, 1.0e6);
        g.addGaussianPrior("py", y, 2.0e6, 1.0e6);
        g.addLinearGaussian("f", {{x, 1.0}, {y, -0.5}}, 0.0, 1e3);
        return GaussianSolver(g).solve();
    };
    const auto a = build(4.0e5);
    const auto b = build(2.0e6);
    EXPECT_NEAR(a.mean[0], b.mean[0], 1e-3 * std::abs(a.mean[0]));
    EXPECT_NEAR(a.covariance(0, 0), b.covariance(0, 0),
                1e-3 * a.covariance(0, 0));
}

TEST(GaussianSolver, SitesActAsExtraPriors)
{
    FactorGraph g;
    const auto x = g.addVariable("x", 1.0);
    g.addGaussianPrior("p", x, 0.0, 1.0);
    std::vector<Gaussian> sites{Gaussian::fromMeanVar(4.0, 1.0)};
    const auto joint = GaussianSolver(g).solve(sites);
    EXPECT_NEAR(joint.mean[0], 2.0, 1e-9);
}

TEST(GaussianSolver, OffsetShiftsSolution)
{
    // x - 3 ~ N(0, small) -> x = 3.
    FactorGraph g;
    const auto x = g.addVariable("x", 1.0);
    g.addGaussianPrior("p", x, 0.0, 100.0);
    g.addLinearGaussian("obs", {{x, 1.0}}, -3.0, 1e-3);
    const auto joint = GaussianSolver(g).solve();
    EXPECT_NEAR(joint.mean[0], 3.0, 1e-3);
}

TEST(GaussianSolver, DetectsNonGaussianFactors)
{
    FactorGraph g;
    const auto x = g.addVariable("x", 1.0);
    g.addGaussianPrior("p", x, 0.0, 1.0);
    GaussianSolver s1(g);
    EXPECT_FALSE(s1.hasNonGaussianFactors());
    g.addStudentT("m", x, 1.0, 1.0, 3.0);
    GaussianSolver s2(g);
    EXPECT_TRUE(s2.hasNonGaussianFactors());
}

TEST(FactorGraph, FactorsOfKindTracksInsertionOrder)
{
    FactorGraph g;
    const VarId a = g.addVariable("a", 1.0);
    const VarId b = g.addVariable("b", 1.0);
    const FactorId p = g.addGaussianPrior("p", a, 0.0, 1.0);
    const FactorId m = g.addStudentT("m", a, 0.0, 1.0, 3.0);
    const FactorId l =
        g.addLinearGaussian("l", {{a, 1.0}, {b, -1.0}}, 0.0, 1.0);
    const FactorId m2 = g.addStudentT("m2", b, 1.0, 1.0, 3.0);

    EXPECT_EQ(g.factorsOfKind(FactorKind::GaussianPrior),
              std::vector<FactorId>{p});
    EXPECT_EQ(g.factorsOfKind(FactorKind::LinearGaussian),
              std::vector<FactorId>{l});
    EXPECT_EQ(g.factorsOfKind(FactorKind::StudentT),
              (std::vector<FactorId>{m, m2}));
}

TEST(GaussianSolver, SolveIntoReusesBuffersAcrossSolves)
{
    FactorGraph g;
    const VarId a = g.addVariable("a", 10.0);
    const VarId b = g.addVariable("b", 10.0);
    g.addGaussianPrior("pa", a, 5.0, 2.0);
    g.addGaussianPrior("pb", b, 7.0, 2.0);
    g.addLinearGaussian("tie", {{a, 1.0}, {b, -1.0}}, 0.0, 1.0);

    GaussianSolver solver(g);
    GaussianJoint joint;
    SolverScratch scratch;
    solver.solveInto({}, joint, scratch);
    const std::size_t grows = scratch.grows + solver.bufferGrows();
    EXPECT_GT(grows, 0u);

    const GaussianJoint fresh = solver.solve();
    for (int i = 0; i < 3; ++i)
        solver.solveInto({}, joint, scratch);
    EXPECT_EQ(scratch.grows + solver.bufferGrows(), grows);
    for (std::size_t v = 0; v < 2; ++v) {
        EXPECT_DOUBLE_EQ(joint.mean[v], fresh.mean[v]);
        EXPECT_DOUBLE_EQ(joint.covariance(v, v),
                         fresh.covariance(v, v));
    }
}

TEST(GaussianSolver, Rank1SiteUpdateMatchesFullResolve)
{
    FactorGraph g;
    const VarId a = g.addVariable("a", 10.0);
    const VarId b = g.addVariable("b", 1000.0);
    const VarId c = g.addVariable("c", 0.1);
    g.addGaussianPrior("pa", a, 12.0, 4.0);
    g.addGaussianPrior("pb", b, 900.0, 300.0);
    g.addGaussianPrior("pc", c, 0.09, 0.05);
    g.addLinearGaussian("ab", {{a, 100.0}, {b, -1.0}}, 0.0, 50.0);
    g.addLinearGaussian("bc", {{b, 1.0}, {c, -1e4}}, 0.0, 80.0);

    GaussianSolver solver(g);
    SolverScratch scratch;

    std::vector<Gaussian> sites(3, Gaussian::flat());
    sites[a] = Gaussian::fromMeanVar(11.0, 9.0);
    sites[c] = Gaussian::fromMeanVar(0.1, 0.01);

    GaussianJoint joint;
    solver.solveInto(sites, joint, scratch);

    // Apply a chain of site changes (updates and downdates) via
    // rank-1; re-solving from the final site values must agree.
    struct Change
    {
        VarId v;
        double mean, var;
    } changes[] = {
        {a, 10.0, 4.0}, {b, 950.0, 1e4}, {c, 0.11, 0.004},
        {a, 12.5, 16.0}, // downdate on a
    };
    for (const Change &ch : changes) {
        const Gaussian next = Gaussian::fromMeanVar(ch.mean, ch.var);
        const Gaussian delta = next / sites[ch.v];
        ASSERT_TRUE(GaussianSolver::rank1SiteUpdate(
            joint, ch.v, delta.lambda, delta.eta, scratch));
        sites[ch.v] = next;
    }

    GaussianJoint resolved;
    solver.solveInto(sites, resolved, scratch);
    for (std::size_t v = 0; v < 3; ++v) {
        EXPECT_NEAR(joint.mean[v], resolved.mean[v],
                    1e-9 * std::abs(resolved.mean[v]))
            << "var " << v;
        // Rank-1 updates maintain the lower triangle (see header).
        for (std::size_t u = 0; u <= v; ++u)
            EXPECT_NEAR(joint.covariance(v, u),
                        resolved.covariance(v, u),
                        1e-9 * std::sqrt(resolved.covariance(v, v) *
                                         resolved.covariance(u, u)))
                << "cov(" << v << ", " << u << ")";
    }
}

TEST(GaussianSolver, Rank1RefusesIllConditionedDowndate)
{
    FactorGraph g;
    const VarId a = g.addVariable("a", 1.0);
    g.addGaussianPrior("pa", a, 0.0, 1.0);

    GaussianSolver solver(g);
    SolverScratch scratch;
    std::vector<Gaussian> sites(1, Gaussian::fromMeanVar(0.0, 1e-4));
    GaussianJoint joint;
    solver.solveInto(sites, joint, scratch);

    // Removing (almost) the entire site precision would amplify the
    // joint ~1e4x: the guard must refuse and leave the joint intact.
    const double before = joint.covariance(a, a);
    EXPECT_FALSE(GaussianSolver::rank1SiteUpdate(
        joint, a, -sites[a].lambda * 0.9999, 0.0, scratch));
    EXPECT_DOUBLE_EQ(joint.covariance(a, a), before);

    // A huge precision *increase* is refused too (cancellation guard).
    EXPECT_FALSE(GaussianSolver::rank1SiteUpdate(
        joint, a, 1e9 / before, 0.0, scratch));
}

// ------------------------------------------------------------ ChainSolver

/** Cross-slice structure of a chainWindow() graph. */
enum class Coupling {
    Diagonal,   // a walk per event: every U_t diagonal
    Dense,      // every earlier event of slice t-1 with every event of t
    PartlyZero, // walks on two events in three plus one off-diagonal link
};

/**
 * e events x k slices, ids slice-major: a prior on every variable, an
 * invariant over events 0..2 in every slice and cross-slice factors
 * per `coupling`.  With `tail`, one more slice holds only the first
 * `tail` events, so the last block is short.  Every cross factor
 * spans at most e ids, so the chain's block is one slice; scale hints
 * span four decades.
 */
FactorGraph
chainWindow(std::size_t e, std::size_t k, Coupling coupling,
            std::size_t tail = 0)
{
    FactorGraph g;
    std::vector<double> scale(e);
    for (std::size_t i = 0; i < e; ++i)
        scale[i] = std::pow(10.0, static_cast<double>(i % 5));
    auto id = [e](std::size_t t, std::size_t i) {
        return static_cast<VarId>(t * e + i);
    };
    const std::size_t slices = tail > 0 ? k + 1 : k;
    auto width = [&](std::size_t t) { return t < k ? e : tail; };
    for (std::size_t t = 0; t < slices; ++t)
        for (std::size_t i = 0; i < width(t); ++i) {
            const VarId v = g.addVariable(
                "x" + std::to_string(t) + "_" + std::to_string(i), scale[i]);
            g.addGaussianPrior("p", v, scale[i] * (1.0 + 0.1 * i),
                               3.0 * scale[i]);
        }
    for (std::size_t t = 0; t < slices; ++t) {
        if (width(t) >= 3)
            g.addLinearGaussian("inv",
                                {{id(t, 0), 1.0 / scale[0]},
                                 {id(t, 1), 1.0 / scale[1]},
                                 {id(t, 2), -1.0 / scale[2]}},
                                0.0, 0.5);
        if (t == 0)
            continue;
        for (std::size_t i = 0; i < e; ++i) {
            if (coupling == Coupling::Dense) {
                // (t-1, i) with (t, j), j <= i: span e - (i - j).
                for (std::size_t j = 0; j <= i && j < width(t); ++j)
                    g.addLinearGaussian("x",
                                        {{id(t - 1, i), 1.0 / scale[i]},
                                         {id(t, j), -0.5 / scale[j]}},
                                        0.0, 2.0 + 0.1 * (i + j));
            } else if (i < width(t) &&
                       (coupling == Coupling::Diagonal || i % 3 != 0)) {
                g.addLinearGaussian("walk",
                                    {{id(t - 1, i), 1.0 / scale[i]},
                                     {id(t, i), -1.0 / scale[i]}},
                                    0.0, 0.2);
            }
        }
        if (coupling == Coupling::PartlyZero && width(t) > 1)
            g.addLinearGaussian("link",
                                {{id(t - 1, e - 1), 1.0 / scale[e - 1]},
                                 {id(t, 1), -1.0 / scale[1]}},
                                0.0, 1.0);
    }
    return g;
}

/** Proper Gaussian sites on about two variables in three. */
std::vector<Gaussian>
randomSites(const FactorGraph &g, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Gaussian> sites(g.numVariables(), Gaussian::flat());
    for (std::size_t v = 0; v < sites.size(); ++v) {
        if (rng.uniform() < 0.35)
            continue;
        const double s = g.variable(static_cast<VarId>(v)).scaleHint;
        sites[v] = Gaussian::fromMeanVar(s * (1.0 + 0.2 * rng.normal()),
                                         s * s * rng.uniform(0.05, 0.5));
    }
    return sites;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/**
 * The chain messages computed with ChainSolver's original loops: a
 * left-looking Cholesky factor, then a forward substitution and
 * W^T W over every coupling column, one row at a time.  ChainSolver's
 * blocked kernels that skip zero columns and zero multipliers must
 * reproduce these messages bit for bit.
 */
class ReferenceChain
{
  public:
    explicit ReferenceChain(const FactorGraph &g)
        : n_(g.numVariables()), b_(ChainSolver::blockSizeOf(g)),
          blocks_((n_ + b_ - 1) / b_)
    {
        const std::size_t bb = b_ * b_;
        scale_.resize(n_);
        for (std::size_t i = 0; i < n_; ++i)
            scale_[i] = g.variable(static_cast<VarId>(i)).scaleHint;
        baseH_.assign(n_, 0.0);
        D_.assign(blocks_ * bb, 0.0);
        U_.assign(blocks_ * bb, 0.0);
        R_.assign(blocks_ * bb, 0.0);
        r_.assign(n_, 0.0);
        L_.assign(bb, 0.0);
        l_.assign(b_, 0.0);
        A_.assign(bb, 0.0);
        a_.assign(b_, 0.0);
        W_.assign(bb, 0.0);
        w_.assign(b_, 0.0);
        for (FactorId fid : g.factorsOfKind(FactorKind::LinearGaussian)) {
            const Factor &f = g.factor(fid);
            const double inv_var = 1.0 / (f.noiseStd * f.noiseStd);
            for (std::size_t i = 0; i < f.vars.size(); ++i) {
                const VarId vi = f.vars[i];
                const std::size_t ti = vi / b_, oi = vi - ti * b_;
                const double ai = f.coeffs[i] * scale_[vi];
                for (std::size_t j = 0; j < f.vars.size(); ++j) {
                    const VarId vj = f.vars[j];
                    const std::size_t tj = vj / b_, oj = vj - tj * b_;
                    const double aj = f.coeffs[j] * scale_[vj];
                    if (tj == ti)
                        D_[ti * bb + oi * b_ + oj] += ai * aj * inv_var;
                    else if (tj == ti + 1)
                        U_[ti * bb + oi * b_ + oj] += ai * aj * inv_var;
                }
                baseH_[vi] += -f.offset * ai * inv_var;
            }
        }
        for (FactorId fid : g.factorsOfKind(FactorKind::GaussianPrior)) {
            const Factor &f = g.factor(fid);
            const VarId v = f.vars[0];
            const double inv_var =
                scale_[v] * scale_[v] / (f.scale * f.scale);
            const std::size_t t = v / b_, o = v - t * b_;
            D_[t * bb + o * b_ + o] += inv_var;
            baseH_[v] += inv_var * f.loc / scale_[v];
        }
        for (std::size_t v = 0; v < n_; ++v) {
            const std::size_t t = v / b_, o = v - t * b_;
            D_[t * bb + o * b_ + o] += 1e-12;
        }
    }

    void beginSweep(const std::vector<Gaussian> &sites)
    {
        const std::size_t bb = b_ * b_;
        for (std::size_t t = blocks_; t-- > 1;) {
            assemble(t, sites, false, true);
            eliminate(length(t), U_.data() + (t - 1) * bb, 1, b_,
                      length(t - 1), R_.data() + (t - 1) * bb,
                      r_.data() + (t - 1) * b_);
        }
        std::fill(L_.begin(), L_.end(), 0.0);
        std::fill(l_.begin(), l_.end(), 0.0);
    }

    void passForward(std::size_t t, const std::vector<Gaussian> &sites)
    {
        assemble(t, sites, true, false);
        eliminate(length(t), U_.data() + t * b_ * b_, b_, 1, length(t + 1),
                  L_.data(), l_.data());
    }

    /** Right message into block t (precision, then information). */
    const double *rightPrecision(std::size_t t) const
    {
        return R_.data() + t * b_ * b_;
    }
    const double *rightInformation(std::size_t t) const
    {
        return r_.data() + t * b_;
    }
    /** Left message into the block after the last passForward(). */
    const double *leftPrecision() const { return L_.data(); }
    const double *leftInformation() const { return l_.data(); }

  private:
    std::size_t length(std::size_t t) const
    {
        return std::min(b_, n_ - t * b_);
    }

    void assemble(std::size_t t, const std::vector<Gaussian> &sites,
                  bool left, bool right)
    {
        const std::size_t m = length(t), off = t * b_;
        const double *D = D_.data() + t * b_ * b_;
        const double *R = R_.data() + t * b_ * b_;
        double *A = A_.data();
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < m; ++j) {
                double x = D[i * b_ + j];
                if (left)
                    x += L_[i * b_ + j];
                if (right)
                    x += R[i * b_ + j];
                A[i * m + j] = x;
            }
            double h = baseH_[off + i];
            if (left)
                h += l_[i];
            if (right)
                h += r_[off + i];
            const double s = scale_[off + i];
            A[i * m + i] += sites[off + i].lambda * s * s;
            h += sites[off + i].eta * s;
            a_[i] = h;
        }
    }

    void eliminate(std::size_t m, const double *B, std::size_t rs,
                   std::size_t cs, std::size_t q, double *prec,
                   double *info)
    {
        double *G = A_.data();
        for (std::size_t j = 0; j < m; ++j) {
            double *gj = G + j * m;
            double d = gj[j];
            for (std::size_t k = 0; k < j; ++k)
                d -= gj[k] * gj[k];
            gj[j] = std::sqrt(d);
            for (std::size_t i = j + 1; i < m; ++i) {
                double *gi = G + i * m;
                double s = gi[j];
                for (std::size_t k = 0; k < j; ++k)
                    s -= gi[k] * gj[k];
                gi[j] = s / gj[j];
            }
        }
        double *W = W_.data();
        for (std::size_t i = 0; i < m; ++i) {
            double *wi = W + i * b_;
            for (std::size_t j = 0; j < q; ++j)
                wi[j] = B[i * rs + j * cs];
            double ai = a_[i];
            const double *gi = G + i * m;
            for (std::size_t k = 0; k < i; ++k) {
                const double g = gi[k];
                const double *wk = W + k * b_;
                for (std::size_t j = 0; j < q; ++j)
                    wi[j] -= g * wk[j];
                ai -= g * w_[k];
            }
            const double inv = 1.0 / gi[i];
            for (std::size_t j = 0; j < q; ++j)
                wi[j] *= inv;
            w_[i] = ai * inv;
        }
        for (std::size_t p = 0; p < q; ++p) {
            std::fill(prec + p * b_, prec + p * b_ + p + 1, 0.0);
            info[p] = 0.0;
        }
        for (std::size_t i = 0; i < m; ++i) {
            const double *wi = W + i * b_;
            for (std::size_t p = 0; p < q; ++p) {
                const double f = wi[p];
                if (f == 0.0)
                    continue;
                double *row = prec + p * b_;
                for (std::size_t r = 0; r <= p; ++r)
                    row[r] -= f * wi[r];
                info[p] -= f * w_[i];
            }
        }
        for (std::size_t p = 0; p < q; ++p)
            for (std::size_t r = 0; r < p; ++r)
                prec[r * b_ + p] = prec[p * b_ + r];
    }

    std::size_t n_, b_, blocks_;
    std::vector<double> scale_, baseH_, D_, U_, R_, r_, L_, l_, A_, a_, W_,
        w_;
};

/** Every q x q precision entry (row stride b) and q information
 * entries of two messages carry the same bits. */
void
expectSameMessage(const double *prec, const double *info,
                  const ChainSolver::Message &got, std::size_t b,
                  std::size_t q, const std::string &what)
{
    for (std::size_t p = 0; p < q; ++p) {
        for (std::size_t r = 0; r < q; ++r)
            EXPECT_TRUE(sameBits(got.precision[p * b + r], prec[p * b + r]))
                << what << " precision(" << p << ", " << r
                << "): " << got.precision[p * b + r] << " vs "
                << prec[p * b + r];
        EXPECT_TRUE(sameBits(got.information[p], info[p]))
            << what << " information[" << p << "]";
    }
}

TEST(ChainSolver, EliminationIsBitIdenticalToRowByRowLoops)
{
    for (const Coupling coupling :
         {Coupling::Diagonal, Coupling::Dense, Coupling::PartlyZero}) {
        for (const auto &[e, tail] :
             {std::pair<std::size_t, std::size_t>{3, 0}, {7, 0}, {13, 0},
              {32, 0}, {13, 5}, {32, 2}}) {
            const FactorGraph g = chainWindow(e, 5, coupling, tail);
            const std::vector<Gaussian> sites = randomSites(g, 3 + e);
            const std::string what =
                "coupling " + std::to_string(static_cast<int>(coupling)) +
                " e=" + std::to_string(e) + " tail " + std::to_string(tail);
            ChainSolver chain;
            chain.rebind(g);
            ASSERT_EQ(chain.blockSize(), e) << what;
            ReferenceChain ref(g);
            chain.beginSweep(sites);
            ref.beginSweep(sites);
            for (std::size_t t = 0; t + 1 < chain.numBlocks(); ++t)
                expectSameMessage(ref.rightPrecision(t),
                                  ref.rightInformation(t),
                                  chain.rightMessage(t), e,
                                  chain.blockLength(t),
                                  what + " right message " +
                                      std::to_string(t));
            for (std::size_t t = 0; t + 1 < chain.numBlocks(); ++t) {
                chain.passForward(t, sites);
                ref.passForward(t, sites);
                expectSameMessage(ref.leftPrecision(), ref.leftInformation(),
                                  chain.leftMessage(t + 1), e,
                                  chain.blockLength(t + 1),
                                  what + " left message " +
                                      std::to_string(t + 1));
            }
        }
    }
}

/** local (over block t's `keep`) against the dense joint's sub-block. */
void
expectSubBlock(const GaussianJoint &local, const GaussianJoint &joint,
               std::size_t begin, const std::vector<std::size_t> &keep,
               double rel_tol, const std::string &what)
{
    ASSERT_EQ(local.mean.size(), keep.size()) << what;
    for (std::size_t i = 0; i < keep.size(); ++i) {
        const std::size_t vi = begin + keep[i];
        EXPECT_NEAR(local.mean[i], joint.mean[vi],
                    rel_tol * (std::abs(joint.mean[vi]) +
                               std::sqrt(joint.covariance(vi, vi))))
            << what << " mean of " << vi;
        for (std::size_t j = 0; j < keep.size(); ++j) {
            const std::size_t vj = begin + keep[j];
            EXPECT_NEAR(local.covariance(i, j), joint.covariance(vi, vj),
                        rel_tol * std::sqrt(joint.covariance(vi, vi) *
                                            joint.covariance(vj, vj)))
                << what << " cov(" << vi << ", " << vj << ")";
        }
    }
}

TEST(ChainSolver, SiteRestrictedMarginalIsTheJointsSubBlock)
{
    Rng rng(41);
    for (const Coupling coupling :
         {Coupling::Diagonal, Coupling::Dense, Coupling::PartlyZero}) {
        for (const auto &[e, tail] :
             {std::pair<std::size_t, std::size_t>{5, 0}, {13, 0}, {32, 0},
              {13, 4}}) {
            const FactorGraph g = chainWindow(e, 4, coupling, tail);
            const std::vector<Gaussian> sites = randomSites(g, 11 * e);
            const GaussianJoint joint = GaussianSolver(g).solve(sites);
            ChainSolver chain;
            chain.rebind(g);
            GaussianJoint local;
            chain.beginSweep(sites);
            for (std::size_t t = 0; t < chain.numBlocks(); ++t) {
                // Every variable, one variable (first, last, random)
                // and random subsets.
                const std::size_t m = chain.blockLength(t);
                std::vector<std::vector<std::size_t>> keeps;
                std::vector<std::size_t> all(m);
                for (std::size_t i = 0; i < m; ++i)
                    all[i] = i;
                keeps.push_back(all);
                keeps.push_back({0});
                keeps.push_back({m - 1});
                keeps.push_back({rng.uniformInt(m)});
                for (int r = 0; r < 3; ++r) {
                    std::vector<std::size_t> keep;
                    for (std::size_t i = 0; i < m; ++i)
                        if (rng.uniform() < 0.3)
                            keep.push_back(i);
                    if (!keep.empty())
                        keeps.push_back(keep);
                }
                for (const auto &keep : keeps) {
                    chain.blockMarginal(t, sites, keep, local);
                    expectSubBlock(local, joint, chain.blockBegin(t), keep,
                                   1e-10,
                                   "coupling " +
                                       std::to_string(
                                           static_cast<int>(coupling)) +
                                       " e=" + std::to_string(e) +
                                       " tail " + std::to_string(tail) +
                                       " block " + std::to_string(t) +
                                       " keeping " +
                                       std::to_string(keep.size()));
                }
                chain.passForward(t, sites);
            }
        }
    }
}

TEST(ChainSolver, FinalPassReusingLeftMessagesMatchesFullRecompute)
{
    // One sweep as EP runs it — each block's marginal, then its sites
    // change, then it is passed forward — leaves left messages that
    // already reflect the final sites: marginalsAfterSweep() must be
    // bit-identical to a fresh marginals() on those sites.
    for (const Coupling coupling :
         {Coupling::Diagonal, Coupling::Dense, Coupling::PartlyZero}) {
        const FactorGraph g = chainWindow(13, 6, coupling);
        std::vector<Gaussian> sites = randomSites(g, 5);
        ChainSolver swept;
        swept.rebind(g);
        GaussianJoint local;
        swept.beginSweep(sites);
        for (std::size_t t = 0; t < swept.numBlocks(); ++t) {
            const std::vector<std::size_t> keep = {1, 4, 9};
            swept.blockMarginal(t, sites, keep, local);
            for (std::size_t i = 0; i < swept.blockLength(t); ++i) {
                Gaussian &site = sites[swept.blockBegin(t) + i];
                site = Gaussian(site.lambda * 1.3 + 1e-3, site.eta * 0.9);
            }
            swept.passForward(t, sites);
        }
        std::vector<double> mean, stddev, fresh_mean, fresh_stddev;
        swept.marginalsAfterSweep(sites, mean, stddev, local);

        ChainSolver fresh;
        fresh.rebind(g);
        GaussianJoint fresh_local;
        fresh.marginals(sites, fresh_mean, fresh_stddev, fresh_local);
        ASSERT_EQ(mean.size(), fresh_mean.size());
        for (std::size_t v = 0; v < mean.size(); ++v) {
            EXPECT_TRUE(sameBits(mean[v], fresh_mean[v])) << v;
            EXPECT_TRUE(sameBits(stddev[v], fresh_stddev[v])) << v;
        }

        const GaussianJoint joint = GaussianSolver(g).solve(sites);
        for (std::size_t v = 0; v < mean.size(); ++v) {
            const double sd = std::sqrt(joint.covariance(v, v));
            EXPECT_NEAR(mean[v], joint.mean[v],
                        1e-10 * (std::abs(joint.mean[v]) + sd))
                << v;
            EXPECT_NEAR(stddev[v], sd, 1e-10 * sd) << v;
        }
    }
}

TEST(ChainSolver, WarmSolverAllocatesNothing)
{
    const FactorGraph g = chainWindow(13, 6, Coupling::PartlyZero);
    const std::vector<Gaussian> sites = randomSites(g, 9);
    ChainSolver chain;
    chain.rebind(g);
    GaussianJoint local;
    std::vector<double> mean, stddev;
    chain.marginals(sites, mean, stddev, local);
    const std::size_t grows = chain.bufferGrows();
    EXPECT_GT(grows, 0u);
    chain.rebind(g);
    chain.beginSweep(sites);
    const std::vector<std::size_t> keep = {2, 3};
    chain.blockMarginal(1, sites, keep, local);
    chain.marginals(sites, mean, stddev, local);
    EXPECT_EQ(chain.bufferGrows(), grows);
}

} // namespace
} // namespace graph
} // namespace bperf
