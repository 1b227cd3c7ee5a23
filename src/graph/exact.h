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
 * path), and its block marginals cover only the variables the caller
 * keeps (EP keeps the ones carrying a site).  Sherman-Morrison rank-1
 * updates apply a single-site change to an already-solved joint in
 * O(n^2) — EP uses them on one block's site-variable marginal.
 *
 * When every factor in the graph is Gaussian this *is* the exact
 * posterior, which the tests use to validate EP.
 */

#ifndef BPERF_GRAPH_EXACT_H
#define BPERF_GRAPH_EXACT_H

#include <algorithm>
#include <span>
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
 * same event in adjacent slices, so there b is the event count, one
 * block is one time slice and every U_t is diagonal.  Any graph gets
 * a valid layout; one without chain structure just gets larger
 * blocks.
 *
 * A sweep is one backward pass (beginSweep: Schur-complement
 * messages from the right into every block), then the blocks in
 * order: blockMarginal() gives the marginal of a chosen subset of the
 * block's variables under the current left and right messages —
 * exactly the joint's marginal over them — and passForward() folds
 * the block's updated sites into the left message of the next block.
 * Both messages are stored per block, so after a complete sweep the
 * left messages already reflect every block's final sites and
 * marginalsAfterSweep() needs only the backward pass.
 *
 * Each step is O(b^3) (one Cholesky factorization of the block); the
 * eliminations skip the coupling columns that are zero, so a diagonal
 * coupling costs a triangle, not a square.  Storage is O(n b).
 * Units, scale hints and the 1e-12 ridge match GaussianSolver, so
 * both give the same posterior.
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
     * variable, natural units).  Block 0's left message is always
     * zero; the others are written by passForward().
     */
    void beginSweep(const std::vector<Gaussian> &sites);

    /**
     * Marginal of the variables `keep` of block t under the current
     * messages, in natural units.  `keep` holds sorted, distinct local
     * offsets (variable blockBegin(t) + keep[i]); `local` becomes a
     * keep.size()-variable joint whose entry i is variable keep[i].
     * Its covariance is full (symmetric), so
     * GaussianSolver::rank1SiteUpdate applies to it directly.
     *
     * One Cholesky factorization of the block with the kept variables
     * ordered last; only the trailing s x s factor is inverted
     * (Sigma_SS = L_SS^-T L_SS^-1), so EP pays for the variables it
     * reads, not for the whole block.
     */
    void blockMarginal(std::size_t t, const std::vector<Gaussian> &sites,
                       std::span<const std::size_t> keep,
                       GaussianJoint &local);

    /** Fold block t (with its current sites) into the left message of
     * block t + 1.  No-op for the last block. */
    void passForward(std::size_t t, const std::vector<Gaussian> &sites);

    /**
     * Every variable's marginal mean and standard deviation (natural
     * units) for `sites`: one forward and one backward pass.  `local`
     * is block scratch.
     */
    void marginals(const std::vector<Gaussian> &sites,
                   std::vector<double> &mean, std::vector<double> &stddev,
                   GaussianJoint &local);

    /**
     * marginals() after a complete sweep: every block was passed
     * forward, in order, with the sites it holds in `sites`.  The left
     * messages that sweep stored are then exactly the ones a fresh
     * forward pass would compute, so only the backward pass runs; the
     * result is bit-identical to marginals().
     */
    void marginalsAfterSweep(const std::vector<Gaussian> &sites,
                             std::vector<double> &mean,
                             std::vector<double> &stddev,
                             GaussianJoint &local);

    /**
     * A stored message into a block, in scaled units: the precision
     * is b x b with row stride blockSize() (the leading blockLength
     * rows and columns are used), the information blockLength long.
     */
    struct Message
    {
        std::span<const double> precision;
        std::span<const double> information;
    };
    /** Left message into block t: written by passForward(t - 1),
     * always zero for block 0. */
    Message leftMessage(std::size_t t) const;
    /** Right message into block t: written by beginSweep(), always
     * zero for the last block. */
    Message rightMessage(std::size_t t) const;

    /** Buffer-growth events since construction. */
    std::size_t bufferGrows() const { return grows_; }
    /** Doubles of buffer capacity held (memory accounting). */
    std::size_t bufferDoubles() const;

  private:
    /**
     * Scaled precision and information of block t with its sites
     * and, on request, the left and/or right message, into A_/a_.
     * With `order`, row i of A_ is the block's variable order[i].
     */
    void assemble(std::size_t t, const std::vector<Gaussian> &sites,
                  bool left, bool right, const std::size_t *order = nullptr);
    /** Factor the m x m block in A_ as G G^T in place, storing G^T in
     * the upper triangle (column k of G is row k). */
    void factor(std::size_t m);
    /**
     * Eliminate the block held in A_/a_ (m variables) through the
     * coupling B (m x q, element (i, j) at B[i * rs + j * cs]):
     * prec = -B^T A^-1 B (q x q, row stride b), info = -B^T A^-1 a.
     * width[i] bounds the nonzero columns of B's rows 0..i.
     */
    void eliminate(std::size_t m, const double *B, std::size_t rs,
                   std::size_t cs, std::size_t q, const std::size_t *width,
                   double *prec, double *info);

    std::size_t n_ = 0;
    std::size_t b_ = 1;
    std::size_t blocks_ = 0;
    std::vector<double> scale_; // per-variable scale hints
    std::vector<double> baseH_; // backbone information (scaled)
    std::vector<double> D_;     // diagonal blocks, b x b each
    std::vector<double> U_;     // couplings J[t, t+1], b x b each
    /** Per coupling, b entries: 1 + the last nonzero column of U_t's
     * rows 0..i (forward), of U_t^T's rows 0..i (backward); 0 if none. */
    std::vector<std::size_t> fwdWidth_, bwdWidth_;
    std::vector<double> R_;     // right messages (precision), b x b each
    std::vector<double> r_;     // right messages (information), n
    std::vector<double> L_;     // left messages (precision), b x b each
    std::vector<double> l_;     // left messages (information), n
    std::vector<double> A_;     // assembled block (scaled), m x m
    std::vector<double> a_;
    std::vector<double> W_;     // elimination / inverse scratch, b x b
    std::vector<double> w_;
    std::vector<std::size_t> order_; // kept-last variable order
    std::vector<std::size_t> all_;   // 0 .. b-1
    std::size_t grows_ = 0;
};

} // namespace graph
} // namespace bperf

#endif // BPERF_GRAPH_EXACT_H
