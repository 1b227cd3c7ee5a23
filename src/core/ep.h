/**
 * @file
 * Expectation Propagation for BayesPerf factor graphs (paper Alg. 1).
 *
 * Gaussian factors (invariants, random walks, priors) form the exact
 * Gaussian backbone.  Each Student-t measurement factor gets a 1-D
 * Gaussian site approximation; EP iterates:
 *   cavity  = joint marginal / site              (Alg. 1 line 3)
 *   tilted  = likelihood x cavity, moments via   (Alg. 1 line 4)
 *             quadrature or MCMC
 *   site'   = tilted / cavity, damped            (Alg. 1 lines 5-7)
 *
 * Hot-path structure: tilted moments run through the SIMD quadrature
 * kernel (quad_kernel.h, AVX2/NEON with a bit-identical scalar
 * fallback).  Sites update sequentially, grouped by the graph's
 * variable-id blocks (graph::ChainSolver; one block is one time slice
 * of a window model).  Each sweep runs one backward pass of
 * Schur-complement messages, then visits the blocks in order: the
 * block's marginal over its site variables (the distinct variables
 * carrying a Student-t site, all EP reads) is formed from its own
 * precision, its sites and the messages from both neighbours — one
 * Cholesky factorization with those variables ordered last, and only
 * the trailing s x s factor inverted — its sites update against that
 * s x s covariance by Sherman-Morrison rank-1 updates (O(s^2) each),
 * and the updated block passes its message on to the next.  A block
 * without sites is only passed on.  This is exactly sequential EP —
 * the block marginal equals the joint's — at O(k e^3) per sweep
 * instead of a dense n x n joint.  The final smoothing pass reuses
 * the last sweep's left messages, so it runs only the backward pass
 * and one all-variable block marginal per block.
 * JointStrategy::DenseResolve re-solves the dense joint after every
 * site change on the same schedule; the golden-posterior suite pins
 * the two paths to each other within 1e-6.
 *
 * Callers that run EP repeatedly (windowed inference) pass an
 * EpWorkspace (and optionally a persistent EpResult) so steady-state
 * runs reuse all buffers and perform no allocations.
 */

#ifndef BPERF_CORE_EP_H
#define BPERF_CORE_EP_H

#include <cstdint>
#include <vector>

#include "graph/exact.h"
#include "graph/factor_graph.h"

namespace bperf {
namespace core {

/** How tilted moments are computed (Alg. 1 line 4). */
enum class MomentMethod {
    /** Deterministic grid quadrature (fast, reproducible). */
    Quadrature,
    /** Metropolis MCMC, as the paper's accelerator does. */
    Mcmc,
};

/** How the joint is kept in sync with site updates. */
enum class JointStrategy {
    /**
     * Chain sweep: block marginals over site variables from
     * block-tridiagonal messages, rank-1 updates inside a block, a
     * block refactorization when a downdate is too ill-conditioned.
     * The fast path.
     */
    Chain,
    /**
     * Full dense re-solve after every site change.  Same update
     * schedule as Chain — the numerical reference the regression
     * suite compares the fast path against.  Only this strategy
     * allocates n x n buffers.
     */
    DenseResolve,
};

/** EP configuration. */
struct EpConfig
{
    std::size_t maxSweeps = 8;
    /** Convergence threshold on relative site-mean change. */
    double tolerance = 1e-4;
    /** Damping of site updates in natural parameters. */
    double damping = 0.7;
    MomentMethod method = MomentMethod::Quadrature;
    JointStrategy jointStrategy = JointStrategy::Chain;
    std::size_t quadraturePoints = 129;
    std::size_t mcmcSamples = 400;
    std::size_t mcmcBurnin = 100;
    std::uint64_t seed = 7;
    /**
     * Gauss grid evaluation via the runtime-dispatched SIMD kernel
     * (true) or the scalar reference kernel (false).  The two are
     * bit-identical by construction; the switch exists for the parity
     * tests and for -DBPERF_SIMD=OFF builds.
     */
    bool simdQuadrature = true;
};

/** Result of EP inference. */
struct EpResult
{
    std::vector<double> mean;   // per variable
    std::vector<double> stddev; // per variable
    std::size_t sweeps = 0;
    bool converged = false;
    /** Count of site updates skipped due to improper cavities. */
    std::size_t skippedUpdates = 0;
    /** Total tilted-moment evaluations (accelerator cost model). */
    std::size_t momentEvaluations = 0;
    /**
     * Site changes applied to a block marginal's s x s covariance (s
     * = the block's site variables) by a rank-1 update (Chain); 0
     * under DenseResolve.
     */
    std::size_t rank1Updates = 0;
    /**
     * Whole-window solves.  Chain: one backward message pass per
     * sweep plus the final smoothing pass (a backward pass and one
     * all-variable marginal per block; it reuses the last sweep's
     * left messages).  DenseResolve: dense n x n solves, the initial
     * one plus one per site change.
     */
    std::size_t fullSolves = 0;
    /**
     * Block marginals over site variables factorized (Chain): one per
     * block that has sites, per sweep, plus one per refused downdate,
     * which refactors the block instead.  0 under DenseResolve.
     */
    std::size_t blockFlushes = 0;
    /**
     * Workspace buffer-growth events during this run.  0 means the
     * run reused a warm EpWorkspace without allocating — the
     * steady-state invariant the streaming tests assert.
     */
    std::size_t workspaceAllocations = 0;
};

/**
 * Reusable buffers for ExpectationPropagation::run.  One workspace
 * belongs to one caller (one windowed-inference engine); after a
 * warm-up run on a given graph shape, further runs on graphs of the
 * same (or smaller) size allocate nothing.
 */
class EpWorkspace
{
  public:
    /** Buffer-growth events since construction. */
    std::size_t totalAllocations() const;

    /** EP runs served by this workspace. */
    std::size_t runs() const { return runs_; }

    /**
     * Doubles of buffer capacity held.  O(k e^2) for a k-block chain
     * of e-variable blocks; only DenseResolve adds n x n buffers.
     */
    std::size_t bufferDoubles() const;

  private:
    friend class ExpectationPropagation;

    struct Site
    {
        graph::VarId var;
        /** Chain: index of var in its block's kept set. */
        std::size_t slot;
        double loc, scale, nu;
        graph::Gaussian approx; // natural units
    };

    /** Student-t sites in block order (graph order within a block). */
    std::vector<Site> sites_;
    /** Sites of block t are sites_[blockSites_[t] .. blockSites_[t+1]). */
    std::vector<std::size_t> blockSites_;
    /**
     * Kept sets: block t's block marginal covers the local offsets
     * keep_[blockKeep_[t] .. blockKeep_[t+1]), sorted — the distinct
     * variables of its sites, the only ones EP reads.
     */
    std::vector<std::size_t> keep_;
    std::vector<std::size_t> blockKeep_;
    /** Product of the sites on each variable (natural units). */
    std::vector<graph::Gaussian> siteByVar_;
    graph::ChainSolver chain_;
    graph::GaussianSolver dense_; // DenseResolve only
    /** Chain: the current block's marginal over its kept set; dense:
     * the joint. */
    graph::GaussianJoint joint_;
    graph::SolverScratch scratch_;
    std::size_t grows_ = 0;
    std::size_t runs_ = 0;
};

/**
 * Runs EP over a factor graph.
 */
class ExpectationPropagation
{
  public:
    explicit ExpectationPropagation(EpConfig config = {});

    /** One-shot run with a private workspace. */
    EpResult run(const graph::FactorGraph &graph) const;

    /** Run reusing caller-owned buffers (hot path). */
    EpResult run(const graph::FactorGraph &graph, EpWorkspace &ws) const;

    /**
     * Run reusing caller-owned buffers *and* a caller-owned result:
     * result.mean/stddev are resized in place, so steady-state runs
     * allocate nothing at all.  All result counters are reset.
     */
    void run(const graph::FactorGraph &graph, EpWorkspace &ws,
             EpResult &result) const;

  private:
    EpConfig config_;
};

/**
 * Moments of the 1-D tilted density
 *   p(x) ∝ N(x; cavity_mean, cavity_var) * St(x; loc, scale, nu)
 * computed on a uniform grid covering both densities' bulk, by the
 * best quadrature kernel for this CPU (quad_kernel.h).  All
 * x-independent density constants are dropped since they cancel in
 * the normalized moments.  Exposed for tests.
 */
void tiltedMomentsQuadrature(double cavity_mean, double cavity_var,
                             double loc, double scale, double nu,
                             std::size_t points, double &mean_out,
                             double &var_out);

/** Same grid through the scalar reference kernel — bit-identical to
 * tiltedMomentsQuadrature by the kernel parity contract.  Exposed for
 * the SIMD-vs-scalar golden tests. */
void tiltedMomentsQuadratureScalar(double cavity_mean, double cavity_var,
                                   double loc, double scale, double nu,
                                   std::size_t points, double &mean_out,
                                   double &var_out);

/** Same moments estimated by Metropolis MCMC.  Exposed for tests. */
void tiltedMomentsMcmc(double cavity_mean, double cavity_var, double loc,
                       double scale, double nu, std::size_t samples,
                       std::size_t burnin, std::uint64_t seed,
                       double &mean_out, double &var_out);

} // namespace core
} // namespace bperf

#endif // BPERF_CORE_EP_H
