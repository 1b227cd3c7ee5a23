/**
 * @file
 * Exact inference for the Gaussian part of a factor graph.
 *
 * Builds the joint information form (precision matrix J, information
 * vector h) from all LinearGaussian and GaussianPrior factors plus an
 * optional set of per-variable Gaussian "site" approximations (as EP
 * maintains for the non-Gaussian factors), and solves for the joint
 * mean and covariance.  Variables are internally rescaled by their
 * scale hints so the solve stays well conditioned even though event
 * magnitudes span five orders of magnitude.
 *
 * The Gaussian backbone (everything except the sites) never changes
 * between solves of the same graph, so the solver caches it at
 * construction; repeated solves only add the site diagonal and
 * factorize.  GaussianSolver does this densely (O(n^3), the
 * reference); ChainSolver exploits the block-tridiagonal structure of
 * window graphs and never forms the n x n joint (EP's production
 * path).  Sherman-Morrison rank-1 updates apply a single-site change
 * to an already-solved joint in O(n^2) — EP uses them on one block's
 * local marginal.
 *
 * When every factor in the graph is Gaussian this *is* the exact
 * posterior, which the tests use to validate EP.
 */

#ifndef BPERF_GRAPH_EXACT_H
#define BPERF_GRAPH_EXACT_H

#include <algorithm>
#include <vector>

#include "common/matrix.h"
#include "graph/factor_graph.h"
#include "graph/gaussian.h"

namespace bperf {
namespace graph {

/** Joint Gaussian over all variables of a graph. */
struct GaussianJoint
{
    std::vector<double> mean;
    Matrix covariance; // full covariance, natural units

    double marginalMean(VarId v) const { return mean[v]; }
    double marginalVariance(VarId v) const { return covariance(v, v); }
};

/**
 * Reusable buffers for GaussianSolver::solveInto and rank-1 updates.
 * One scratch belongs to one solver loop (EP run / workspace); solves
 * become allocation-free once its capacity covers the graph size.
 */
struct SolverScratch
{
    Matrix J;                  // scaled precision copy
    std::vector<double> h;     // scaled information vector
    std::vector<double> chol;  // Cholesky factorization scratch
    std::vector<double> col;   // covariance column (rank-1 updates)
    /** Buffer-growth events (allocation accounting for EpWorkspace). */
    std::size_t grows = 0;
};

/**
 * Solver for the Gaussian sub-model of a factor graph.
 */
class GaussianSolver
{
  public:
    /** Empty solver; rebind() before use. */
    GaussianSolver() = default;

    explicit GaussianSolver(const FactorGraph &graph) { rebind(graph); }

    /**
     * (Re)build the cached Gaussian backbone for `graph`, reusing the
     * solver's buffers — allocation-free when the previous graph was
     * at least as large.  The graph must outlive the solver's use.
     */
    void rebind(const FactorGraph &graph);

    /** Buffer-growth events since construction (allocation accounting). */
    std::size_t bufferGrows() const { return grows_; }
    /** Doubles of buffer capacity held (memory accounting). */
    std::size_t bufferDoubles() const
    {
        return baseJ_.capacity() + baseH_.capacity() + scale_.capacity();
    }

    /**
     * Compute the joint implied by all Gaussian factors plus
     * per-variable sites (sites may be flat).  `sites` must be empty
     * or one entry per variable.  Dies if the model is improper
     * (unconstrained variables with no prior/site).
     */
    GaussianJoint solve(const std::vector<Gaussian> &sites = {}) const;

    /**
     * solve() into caller-owned storage: `joint` and `scratch` are
     * reused across calls and only (re)allocate while their capacity
     * is below the graph size — steady-state re-solves of equal-sized
     * graphs perform no allocations.
     */
    void solveInto(const std::vector<Gaussian> &sites, GaussianJoint &joint,
                   SolverScratch &scratch) const;

    /**
     * Apply a single-site natural-parameter change (d_lambda, d_eta)
     * on variable v to an already-solved joint, via Sherman-Morrison
     * on the precision matrix: O(n^2).  The joint must correspond to
     * the site values *before* the change.
     *
     * Contract: only the LOWER triangle (including the diagonal) of
     * joint.covariance is kept current — the update is memory-bound
     * and the EP loop reads only marginal variances (diagonal) and
     * columns (recoverable from the lower triangle), so mirroring the
     * upper half would double the traffic for nothing.  The mean is
     * exact.  A subsequent solveInto restores the full symmetric
     * matrix; callers needing upper-triangle entries after rank-1
     * updates must read (c, r) with r >= c instead.
     *
     * Returns false — leaving the joint untouched — when the downdate
     * is too ill-conditioned to apply stably (1 + d_lambda * var(v)
     * not safely positive); the caller must then re-solve the joint
     * (solveInto, or ChainSolver::blockMarginal for a block) with the
     * new site values.
     */
    static bool rank1SiteUpdate(GaussianJoint &joint, VarId v,
                                double d_lambda, double d_eta,
                                SolverScratch &scratch);

    /**
     * True iff the graph contains non-Gaussian factors (so solve()
     * alone is not the full posterior).
     */
    bool hasNonGaussianFactors() const;

  private:
    const FactorGraph *graph_ = nullptr;
    std::vector<double> scale_; // per-variable scale hints
    Matrix baseJ_;              // Gaussian backbone precision (scaled)
    std::vector<double> baseH_; // backbone information vector (scaled)
    std::size_t grows_ = 0;
};

/**
 * The same Gaussian backbone viewed as a chain of variable-id blocks,
 * for EP sweeps that never form the n x n joint.
 *
 * Block layout, read from the graph: b is the largest variable-id
 * span (max id - min id) of any LinearGaussian factor, floored at 1,
 * and the blocks are [0,b), [b,2b), ....  Every factor then touches
 * at most two adjacent blocks, so the scaled precision is block
 * tridiagonal: diagonal blocks D_t and couplings U_t = J[t, t+1].
 * WindowModel lays variables out slice-major and its walks link the
 * same event in adjacent slices, so there b is the event count and
 * one block is one time slice.  Any graph gets a valid layout; one
 * without chain structure just gets larger blocks.
 *
 * A sweep is one backward pass (beginSweep: Schur-complement
 * messages from the right into every block), then the blocks in
 * order: blockMarginal() gives the block's local marginal under the
 * current left and right messages — exactly the joint's marginal over
 * that block — and passForward() folds the block's updated sites into
 * the left message for the next block.  Each step is O(b^3); storage
 * is O(n b).  Units, scale hints and the 1e-12 ridge match
 * GaussianSolver, so both give the same posterior.
 */
class ChainSolver
{
  public:
    /** Block size the graph's factors imply (see the class comment). */
    static std::size_t blockSizeOf(const FactorGraph &graph);

    /**
     * (Re)build the block backbone for `graph`, reusing buffers —
     * allocation-free when the previous graph had at least as many
     * variables and as large a block.  The graph must outlive use.
     */
    void rebind(const FactorGraph &graph);

    std::size_t blockSize() const { return b_; }
    std::size_t numBlocks() const { return blocks_; }
    /** First variable of block t. */
    std::size_t blockBegin(std::size_t t) const { return t * b_; }
    /** Variables in block t (the last block may be short). */
    std::size_t blockLength(std::size_t t) const
    {
        return std::min(b_, n_ - t * b_);
    }

    /**
     * Backward pass: rebuild every right message for `sites` (one per
     * variable, natural units) and reset the left message to block 0.
     */
    void beginSweep(const std::vector<Gaussian> &sites);

    /**
     * Local marginal of block t under the current messages, in
     * natural units: `local` becomes a blockLength(t)-variable joint
     * indexed from blockBegin(t).  Its covariance is full (symmetric),
     * so GaussianSolver::rank1SiteUpdate applies to it directly.
     */
    void blockMarginal(std::size_t t, const std::vector<Gaussian> &sites,
                       GaussianJoint &local);

    /** Fold block t (with its current sites) into the left message of
     * block t + 1.  No-op for the last block. */
    void passForward(std::size_t t, const std::vector<Gaussian> &sites);

    /**
     * Every variable's marginal mean and standard deviation (natural
     * units) for `sites`: one backward and one forward pass.  `local`
     * is block scratch.
     */
    void marginals(const std::vector<Gaussian> &sites,
                   std::vector<double> &mean, std::vector<double> &stddev,
                   GaussianJoint &local);

    /** Buffer-growth events since construction. */
    std::size_t bufferGrows() const { return grows_; }
    /** Doubles of buffer capacity held (memory accounting). */
    std::size_t bufferDoubles() const;

  private:
    /** Scaled precision and information of block t with its sites
     * and, on request, the left and/or right message, into A_/a_. */
    void assemble(std::size_t t, const std::vector<Gaussian> &sites,
                  bool left, bool right);
    /**
     * Eliminate the block held in A_/a_ (m variables) through the
     * coupling B (m x q, element (i, j) at B[i * rs + j * cs]):
     * prec = -B^T A^-1 B (q x q, row stride b), info = -B^T A^-1 a.
     */
    void eliminate(std::size_t m, const double *B, std::size_t rs,
                   std::size_t cs, std::size_t q, double *prec,
                   double *info);

    std::size_t n_ = 0;
    std::size_t b_ = 1;
    std::size_t blocks_ = 0;
    std::vector<double> scale_; // per-variable scale hints
    std::vector<double> baseH_; // backbone information (scaled)
    std::vector<double> D_;     // diagonal blocks, b x b each
    std::vector<double> U_;     // couplings J[t, t+1], b x b each
    std::vector<double> R_;     // right messages (precision), b x b each
    std::vector<double> r_;     // right messages (information), n
    std::vector<double> L_;     // left message into the current block
    std::vector<double> l_;
    Matrix A_;                  // assembled block (scaled)
    std::vector<double> a_;
    std::vector<double> W_;     // elimination scratch, b x b
    std::vector<double> w_;
    std::vector<double> chol_;  // choleskyInverseInto scratch
    std::size_t grows_ = 0;
};

} // namespace graph
} // namespace bperf

#endif // BPERF_GRAPH_EXACT_H
