#include "graph/exact.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace bperf {
namespace graph {

namespace {

/**
 * Finish a solve whose joint.covariance holds the inverse of the
 * scaled precision: the mean J^-1 h in natural units, from the
 * still-scaled covariance, then the covariance rescaled to natural
 * units in place.  `scale` holds the joint's variables' scale hints.
 */
void
finishScaledSolve(GaussianJoint &joint, const double *h, const double *scale)
{
    const std::size_t n = joint.covariance.rows();
    joint.mean.resize(n);
    double *cov = joint.covariance.data();
    for (std::size_t r = 0; r < n; ++r) {
        const double *row = cov + r * n;
        double s = 0.0;
        for (std::size_t c = 0; c < n; ++c)
            s += row[c] * h[c];
        joint.mean[r] = s * scale[r];
    }
    for (std::size_t r = 0; r < n; ++r) {
        double *row = cov + r * n;
        const double sr = scale[r];
        for (std::size_t c = 0; c < n; ++c)
            row[c] *= sr * scale[c];
    }
}

} // namespace

void
GaussianSolver::rebind(const FactorGraph &graph)
{
    graph_ = &graph;
    const std::size_t n = graph.numVariables();

    if (baseJ_.capacity() < n * n || scale_.capacity() < n ||
        baseH_.capacity() < n)
        ++grows_;

    // Work in scaled units u = x / s to keep the precision matrix
    // well conditioned.
    scale_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        scale_[i] = graph.variable(static_cast<VarId>(i)).scaleHint;

    // The Gaussian backbone is site-independent: build it once.
    baseJ_.reset(n, n, 0.0);
    baseH_.assign(n, 0.0);

    for (FactorId fid : graph.factorsOfKind(FactorKind::LinearGaussian)) {
        const Factor &f = graph.factor(fid);
        // (a^T x + b)^2 / sigma^2 contributes a a^T / sigma^2.
        const double inv_var = 1.0 / (f.noiseStd * f.noiseStd);
        for (std::size_t i = 0; i < f.vars.size(); ++i) {
            const VarId vi = f.vars[i];
            const double ai = f.coeffs[i] * scale_[vi];
            for (std::size_t j = 0; j < f.vars.size(); ++j) {
                const VarId vj = f.vars[j];
                const double aj = f.coeffs[j] * scale_[vj];
                baseJ_(vi, vj) += ai * aj * inv_var;
            }
            baseH_[vi] += -f.offset * ai * inv_var;
        }
    }
    for (FactorId fid : graph.factorsOfKind(FactorKind::GaussianPrior)) {
        const Factor &f = graph.factor(fid);
        const VarId v = f.vars[0];
        const double inv_var = scale_[v] * scale_[v] / (f.scale * f.scale);
        baseJ_(v, v) += inv_var;
        baseH_[v] += inv_var * f.loc / scale_[v];
    }

    // Tiny ridge to keep strictly-determined systems numerically SPD.
    for (std::size_t v = 0; v < n; ++v)
        baseJ_(v, v) += 1e-12;
}

bool
GaussianSolver::hasNonGaussianFactors() const
{
    bp_assert(graph_ != nullptr, "solver not bound to a graph");
    return !graph_->factorsOfKind(FactorKind::StudentT).empty();
}

GaussianJoint
GaussianSolver::solve(const std::vector<Gaussian> &sites) const
{
    GaussianJoint joint;
    SolverScratch scratch;
    solveInto(sites, joint, scratch);
    return joint;
}

void
GaussianSolver::solveInto(const std::vector<Gaussian> &sites,
                          GaussianJoint &joint, SolverScratch &scratch) const
{
    bp_assert(graph_ != nullptr, "solver not bound to a graph");
    const std::size_t n = graph_->numVariables();
    bp_assert(sites.empty() || sites.size() == n,
              "site vector must be empty or cover all variables");

    if (scratch.J.capacity() < n * n ||
        joint.covariance.capacity() < n * n ||
        scratch.chol.capacity() < 2 * n * n ||
        scratch.h.capacity() < n || joint.mean.capacity() < n)
        ++scratch.grows;

    scratch.J = baseJ_;
    scratch.h = baseH_;
    if (!sites.empty()) {
        for (std::size_t v = 0; v < n; ++v) {
            // Site in natural units; convert to scaled units.
            scratch.J(v, v) += sites[v].lambda * scale_[v] * scale_[v];
            scratch.h[v] += sites[v].eta * scale_[v];
        }
    }

    // Covariance = J^-1 (one Cholesky factorization), mean = J^-1 h.
    scratch.J.choleskyInverseInto(joint.covariance, scratch.chol);

    finishScaledSolve(joint, scratch.h.data(), scale_.data());
}

bool
GaussianSolver::rank1SiteUpdate(GaussianJoint &joint, VarId v,
                                double d_lambda, double d_eta,
                                SolverScratch &scratch)
{
    const std::size_t n = joint.mean.size();
    bp_assert(v < n, "rank-1 update variable out of range");

    // Natural units throughout: a site change (d_lambda, d_eta) on
    // variable v shifts the precision by d_lambda e_v e_v^T and the
    // information vector by d_eta e_v.  With sigma = Sigma e_v:
    //   Sigma' = Sigma - (d_lambda / denom) sigma sigma^T
    //   mean'  = mean + sigma (d_eta - d_lambda mean_v) / denom
    // where denom = 1 + d_lambda Sigma_vv.
    const double var_v = joint.covariance(v, v);
    if (!(var_v > 0.0))
        return false;
    const double dl_var = d_lambda * var_v;
    const double denom = 1.0 + dl_var;
    // Conditioning guards — refuse and let the caller re-solve when
    // the update would poison the covariance:
    //  - denom <= 0.05: a strong downdate amplifies every entry (and
    //    any accumulated drift) by 1/denom > 20x;
    //  - dl_var > 1e4: the diagonal update cancels ~dl_var leading
    //    digits, injecting ~dl_var * eps relative error.
    // Both are rare (large site jumps happen in the first sweeps);
    // the re-solve fallback keeps the fast path's drift below the
    // 1e-6 agreement the golden suite asserts.
    if (!(denom > 0.05) || dl_var > 1e4)
        return false;

    if (scratch.col.capacity() < n)
        ++scratch.grows;
    scratch.col.resize(n);
    double *cov = joint.covariance.data();
    double *col = scratch.col.data();
    double *mean = joint.mean.data();
    // Sigma e_v from the lower triangle: row v up to the diagonal
    // (contiguous), column v below it.
    const double *rowv = cov + static_cast<std::size_t>(v) * n;
    for (std::size_t r = 0; r <= v; ++r)
        col[r] = rowv[r];
    for (std::size_t r = v + 1; r < n; ++r)
        col[r] = cov[r * n + v];

    const double mean_gain = (d_eta - d_lambda * mean[v]) / denom;
    for (std::size_t r = 0; r < n; ++r)
        mean[r] += mean_gain * col[r];

    // Update the lower triangle only: the matrix is symmetric and the
    // hot loop is memory-bound, so mirroring the upper half would
    // double the traffic to maintain entries nothing reads (see the
    // header contract).
    const double c = d_lambda / denom;
    for (std::size_t r = 0; r < n; ++r) {
        const double cr = c * col[r];
        double *row = cov + r * n;
        for (std::size_t k = 0; k <= r; ++k)
            row[k] -= cr * col[k];
    }
    return true;
}

std::size_t
ChainSolver::blockSizeOf(const FactorGraph &graph)
{
    std::size_t b = 1;
    for (FactorId fid : graph.factorsOfKind(FactorKind::LinearGaussian)) {
        const Factor &f = graph.factor(fid);
        if (f.vars.empty())
            continue;
        const auto [lo, hi] =
            std::minmax_element(f.vars.begin(), f.vars.end());
        b = std::max<std::size_t>(b, *hi - *lo);
    }
    return b;
}

void
ChainSolver::rebind(const FactorGraph &graph)
{
    n_ = graph.numVariables();
    b_ = blockSizeOf(graph);
    blocks_ = (n_ + b_ - 1) / b_;
    const std::size_t bb = b_ * b_;
    const std::size_t nb = blocks_ * bb;
    const std::size_t nu = blocks_ > 0 ? (blocks_ - 1) * bb : 0;
    const std::size_t nw = blocks_ > 0 ? (blocks_ - 1) * b_ : 0;

    if (D_.capacity() < nb || U_.capacity() < nu || R_.capacity() < nb ||
        r_.capacity() < n_ || L_.capacity() < nb || l_.capacity() < n_ ||
        scale_.capacity() < n_ || baseH_.capacity() < n_ ||
        fwdWidth_.capacity() < nw || bwdWidth_.capacity() < nw ||
        A_.capacity() < bb || a_.capacity() < b_ || W_.capacity() < bb ||
        w_.capacity() < b_ || order_.capacity() < b_ ||
        all_.capacity() < b_)
        ++grows_;
    scale_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i)
        scale_[i] = graph.variable(static_cast<VarId>(i)).scaleHint;
    baseH_.assign(n_, 0.0);
    D_.assign(nb, 0.0);
    U_.assign(nu, 0.0);
    // The last block never receives a right message and block 0 never
    // receives a left one; those stay zero.
    R_.assign(nb, 0.0);
    r_.assign(n_, 0.0);
    L_.assign(nb, 0.0);
    l_.assign(n_, 0.0);
    A_.assign(bb, 0.0);
    a_.assign(b_, 0.0);
    W_.assign(bb, 0.0);
    w_.assign(b_, 0.0);
    order_.assign(b_, 0);
    all_.resize(b_);
    for (std::size_t i = 0; i < b_; ++i)
        all_[i] = i;

    // The same scaled backbone as GaussianSolver::rebind, scattered
    // into blocks: only J[t, t] and the upper coupling J[t, t+1] are
    // stored (J[t+1, t] is its transpose).
    for (FactorId fid : graph.factorsOfKind(FactorKind::LinearGaussian)) {
        const Factor &f = graph.factor(fid);
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
    for (FactorId fid : graph.factorsOfKind(FactorKind::GaussianPrior)) {
        const Factor &f = graph.factor(fid);
        const VarId v = f.vars[0];
        const double inv_var = scale_[v] * scale_[v] / (f.scale * f.scale);
        const std::size_t t = v / b_, o = v - t * b_;
        D_[t * bb + o * b_ + o] += inv_var;
        baseH_[v] += inv_var * f.loc / scale_[v];
    }
    for (std::size_t v = 0; v < n_; ++v) {
        const std::size_t t = v / b_, o = v - t * b_;
        D_[t * bb + o * b_ + o] += 1e-12;
    }

    // Nonzero extent of every coupling, read by eliminate() to skip
    // the zero columns: U_t's rows for the forward pass, its columns
    // (the rows of U_t^T) for the backward pass.
    fwdWidth_.assign(nw, 0);
    bwdWidth_.assign(nw, 0);
    for (std::size_t t = 0; t + 1 < blocks_; ++t) {
        const double *U = U_.data() + t * bb;
        std::size_t *fw = fwdWidth_.data() + t * b_;
        std::size_t *bw = bwdWidth_.data() + t * b_;
        std::size_t wf = 0, wb = 0;
        for (std::size_t i = 0; i < b_; ++i) {
            for (std::size_t j = b_; j-- > wf;)
                if (U[i * b_ + j] != 0.0) {
                    wf = j + 1;
                    break;
                }
            for (std::size_t j = b_; j-- > wb;)
                if (U[j * b_ + i] != 0.0) {
                    wb = j + 1;
                    break;
                }
            fw[i] = wf;
            bw[i] = wb;
        }
    }
}

std::size_t
ChainSolver::bufferDoubles() const
{
    // The index buffers hold 8-byte words too; count them as doubles.
    return scale_.capacity() + baseH_.capacity() + D_.capacity() +
           U_.capacity() + fwdWidth_.capacity() + bwdWidth_.capacity() +
           R_.capacity() + r_.capacity() + L_.capacity() + l_.capacity() +
           A_.capacity() + a_.capacity() + W_.capacity() + w_.capacity() +
           order_.capacity() + all_.capacity();
}

ChainSolver::Message
ChainSolver::leftMessage(std::size_t t) const
{
    bp_assert(t < blocks_, "block " << t << " of " << blocks_);
    return {std::span(L_).subspan(t * b_ * b_, b_ * b_),
            std::span(l_).subspan(blockBegin(t), blockLength(t))};
}

ChainSolver::Message
ChainSolver::rightMessage(std::size_t t) const
{
    bp_assert(t < blocks_, "block " << t << " of " << blocks_);
    return {std::span(R_).subspan(t * b_ * b_, b_ * b_),
            std::span(r_).subspan(blockBegin(t), blockLength(t))};
}

void
ChainSolver::assemble(std::size_t t, const std::vector<Gaussian> &sites,
                      bool left, bool right, const std::size_t *order)
{
    const std::size_t m = blockLength(t), off = blockBegin(t);
    const double *D = D_.data() + t * b_ * b_;
    const double *L = L_.data() + t * b_ * b_;
    const double *R = R_.data() + t * b_ * b_;
    double *A = A_.data();
    for (std::size_t i = 0; i < m; ++i) {
        const std::size_t oi = order ? order[i] : i;
        for (std::size_t j = 0; j < m; ++j) {
            const std::size_t e = oi * b_ + (order ? order[j] : j);
            double x = D[e];
            if (left)
                x += L[e];
            if (right)
                x += R[e];
            A[i * m + j] = x;
        }
        double h = baseH_[off + oi];
        if (left)
            h += l_[off + oi];
        if (right)
            h += r_[off + oi];
        if (!sites.empty()) {
            // Site in natural units; convert to scaled units.
            const double s = scale_[off + oi];
            A[i * m + i] += sites[off + oi].lambda * s * s;
            h += sites[off + oi].eta * s;
        }
        a_[i] = h;
    }
}

void
ChainSolver::factor(std::size_t m)
{
    // Cholesky A = G G^T, computed as its transpose U = G^T in the
    // upper triangle (U[k][i] = G[i][k]), so column k of G is the
    // contiguous row k of U.  Right-looking, four rows per step: the
    // step's rows are finished one at a time, then each trailing row
    // takes the four rows' updates in one pass.  Every entry still
    // receives its subtractions in ascending k, then its division (or
    // square root) — the textbook left-looking loops' operations in
    // their order, so the factor is bit-identical to theirs.  Block
    // factors carry many zeros (events no invariant ties together):
    // zero multipliers are skipped, which changes no value.
    constexpr std::size_t kStep = 4;
    double *U = A_.data();
    for (std::size_t c = 0; c < m; c += kStep) {
        const std::size_t e = std::min(c + kStep, m);
        for (std::size_t k = c; k < e; ++k) {
            double *uk = U + k * m;
            bp_assert(uk[k] > 0.0, "matrix not positive definite");
            uk[k] = std::sqrt(uk[k]);
            const double d = uk[k];
            for (std::size_t i = k + 1; i < m; ++i)
                uk[i] /= d;
            for (std::size_t r = k + 1; r < e; ++r) {
                const double g = uk[r];
                if (g == 0.0)
                    continue;
                double *ur = U + r * m;
                for (std::size_t i = r; i < m; ++i)
                    ur[i] -= g * uk[i];
            }
        }
        if (e - c == kStep) {
            const double *u0 = U + c * m, *u1 = u0 + m, *u2 = u1 + m,
                         *u3 = u2 + m;
            for (std::size_t r = e; r < m; ++r) {
                const double g0 = u0[r], g1 = u1[r], g2 = u2[r], g3 = u3[r];
                if (g0 == 0.0 && g1 == 0.0 && g2 == 0.0 && g3 == 0.0)
                    continue;
                double *ur = U + r * m;
                for (std::size_t i = r; i < m; ++i) {
                    double x = ur[i];
                    x -= g0 * u0[i];
                    x -= g1 * u1[i];
                    x -= g2 * u2[i];
                    x -= g3 * u3[i];
                    ur[i] = x;
                }
            }
        }
        // (A short last step has no trailing rows: e == m.)
    }
}

void
ChainSolver::eliminate(std::size_t m, const double *B, std::size_t rs,
                       std::size_t cs, std::size_t q,
                       const std::size_t *width, double *prec, double *info)
{
    // A = G G^T in place (G^T in the upper triangle of A_).
    factor(m);
    const double *U = A_.data();

    // W = G^-1 B, w = G^-1 a (forward substitution, row by row).  Row
    // i of W is zero past width[i], the nonzero extent of B's rows up
    // to i, so each row only touches that prefix: a diagonal coupling
    // makes W lower triangular.  Rows are stored zero-filled to q, so
    // four earlier rows can update row i in one pass over its prefix.
    // Every entry still takes its subtractions in ascending k, and
    // the zero terms this adds leave it unchanged: the result is
    // bit-identical to one row at a time.
    double *W = W_.data();
    for (std::size_t i = 0; i < m; ++i) {
        double *wi = W + i * b_;
        const std::size_t wd = width[i];
        for (std::size_t j = 0; j < wd; ++j)
            wi[j] = B[i * rs + j * cs];
        std::fill(wi + wd, wi + q, 0.0);
        // G[i][k] = U[k][i]: column i of U.
        const double *gi = U + i;
        std::size_t k = 0;
        for (; k + 4 <= i; k += 4) {
            const double g0 = gi[k * m], g1 = gi[(k + 1) * m],
                         g2 = gi[(k + 2) * m], g3 = gi[(k + 3) * m];
            if (g0 == 0.0 && g1 == 0.0 && g2 == 0.0 && g3 == 0.0)
                continue;
            const double *w0 = W + k * b_, *w1 = w0 + b_, *w2 = w1 + b_,
                         *w3 = w2 + b_;
            for (std::size_t j = 0, e = width[k + 3]; j < e; ++j) {
                double x = wi[j];
                x -= g0 * w0[j];
                x -= g1 * w1[j];
                x -= g2 * w2[j];
                x -= g3 * w3[j];
                wi[j] = x;
            }
        }
        for (; k < i; ++k) {
            const double g = gi[k * m];
            if (g == 0.0)
                continue;
            const double *wk = W + k * b_;
            for (std::size_t j = 0; j < width[k]; ++j)
                wi[j] -= g * wk[j];
        }
        double ai = a_[i];
        for (k = 0; k < i; ++k)
            if (gi[k * m] != 0.0)
                ai -= gi[k * m] * w_[k];
        const double inv = 1.0 / gi[i * m];
        for (std::size_t j = 0; j < wd; ++j)
            wi[j] *= inv;
        w_[i] = ai * inv;
    }

    // prec = -W^T W (lower triangle, then mirrored), info = -W^T w,
    // four rows of W per pass over prec, in ascending row order.
    for (std::size_t p = 0; p < q; ++p) {
        std::fill(prec + p * b_, prec + p * b_ + p + 1, 0.0);
        info[p] = 0.0;
    }
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
        const double *w0 = W + i * b_, *w1 = w0 + b_, *w2 = w1 + b_,
                     *w3 = w2 + b_;
        for (std::size_t p = 0, e = width[i + 3]; p < e; ++p) {
            const double f0 = w0[p], f1 = w1[p], f2 = w2[p], f3 = w3[p];
            if (f0 == 0.0 && f1 == 0.0 && f2 == 0.0 && f3 == 0.0)
                continue;
            double *row = prec + p * b_;
            for (std::size_t r = 0; r <= p; ++r) {
                double x = row[r];
                x -= f0 * w0[r];
                x -= f1 * w1[r];
                x -= f2 * w2[r];
                x -= f3 * w3[r];
                row[r] = x;
            }
            double x = info[p];
            x -= f0 * w_[i];
            x -= f1 * w_[i + 1];
            x -= f2 * w_[i + 2];
            x -= f3 * w_[i + 3];
            info[p] = x;
        }
    }
    for (; i < m; ++i) {
        const double *wi = W + i * b_;
        for (std::size_t p = 0; p < width[i]; ++p) {
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

void
ChainSolver::beginSweep(const std::vector<Gaussian> &sites)
{
    const std::size_t bb = b_ * b_;
    // Block t's right message eliminates blocks t+1.. through the
    // coupling J[t+1, t] = U_t^T: element (i, j) at U_t[j * b + i].
    for (std::size_t t = blocks_; t-- > 1;) {
        assemble(t, sites, false, true);
        eliminate(blockLength(t), U_.data() + (t - 1) * bb, 1, b_,
                  blockLength(t - 1), bwdWidth_.data() + (t - 1) * b_,
                  R_.data() + (t - 1) * bb, r_.data() + blockBegin(t - 1));
    }
}

void
ChainSolver::passForward(std::size_t t, const std::vector<Gaussian> &sites)
{
    if (t + 1 >= blocks_)
        return;
    const std::size_t bb = b_ * b_;
    assemble(t, sites, true, false);
    eliminate(blockLength(t), U_.data() + t * bb, b_, 1, blockLength(t + 1),
              fwdWidth_.data() + t * b_, L_.data() + (t + 1) * bb,
              l_.data() + blockBegin(t + 1));
}

void
ChainSolver::blockMarginal(std::size_t t, const std::vector<Gaussian> &sites,
                           std::span<const std::size_t> keep,
                           GaussianJoint &local)
{
    const std::size_t m = blockLength(t), off = blockBegin(t);
    const std::size_t s = keep.size(), f = m - s;
    bp_assert(s > 0 && s <= m, "block marginal keeps " << s << " of " << m
                                                      << " variables");
    if (local.covariance.capacity() < s * s || local.mean.capacity() < s)
        ++grows_;

    // Order the block as [dropped..., kept...]: the Cholesky factor's
    // trailing s x s corner L_SS then factors the kept variables'
    // Schur complement, whose inverse is their marginal covariance.
    const std::size_t *order = nullptr;
    if (s < m) {
        std::size_t dropped = 0, kept = 0;
        for (std::size_t o = 0; o < m; ++o) {
            if (kept < s && keep[kept] == o)
                order_[f + kept++] = o;
            else if (dropped < f)
                order_[dropped++] = o;
        }
        bp_assert(kept == s, "keep offsets must be sorted, distinct and "
                             "inside the block");
        order = order_.data();
    }
    assemble(t, sites, true, true, order);
    factor(m);
    const double *U = A_.data(); // G^T, upper triangle

    // y = G^-1 a, column by column of G (rows of U); the mean then
    // solves L_SS^T mu_S = y_S.
    double *y = w_.data();
    std::copy(a_.begin(), a_.begin() + m, y);
    for (std::size_t k = 0; k < m; ++k) {
        const double *uk = U + k * m;
        y[k] /= uk[k];
        const double yk = y[k];
        if (yk == 0.0)
            continue;
        for (std::size_t i = k + 1; i < m; ++i)
            y[i] -= uk[i] * yk;
    }

    // X = L_SS^-1 (lower triangular, row stride s), row by row:
    // X[i][j] = -(sum_k L_SS[i][k] X[k][j]) / L_SS[i][i] for j < i,
    // with L_SS[i][k] = U[f + k][f + i].  Zero multipliers skipped.
    double *X = W_.data();
    const double *uss = U + f * m + f;
    for (std::size_t i = 0; i < s; ++i) {
        double *xi = X + i * s;
        std::fill(xi, xi + i, 0.0);
        for (std::size_t k = 0; k < i; ++k) {
            const double g = uss[k * m + i];
            if (g == 0.0)
                continue;
            const double *xk = X + k * s;
            for (std::size_t j = 0; j <= k; ++j)
                xi[j] += g * xk[j];
        }
        const double d = uss[i * m + i];
        for (std::size_t j = 0; j < i; ++j)
            xi[j] = -xi[j] / d;
        xi[i] = 1.0 / d;
    }

    // Sigma_SS = X^T X (lower triangle, accumulated over the rows of
    // X), mu_S = X^T y_S; then natural units and the upper triangle.
    local.covariance.reset(s, s);
    local.mean.assign(s, 0.0);
    double *cov = local.covariance.data();
    double *mu = local.mean.data();
    for (std::size_t k = 0; k < s; ++k) {
        const double *xk = X + k * s;
        const double yk = y[f + k];
        for (std::size_t i = 0; i <= k; ++i) {
            const double x = xk[i];
            if (x == 0.0)
                continue;
            double *row = cov + i * s;
            for (std::size_t j = 0; j <= i; ++j)
                row[j] += x * xk[j];
            mu[i] += x * yk;
        }
    }
    const double *sc = scale_.data() + off;
    for (std::size_t i = 0; i < s; ++i) {
        const double si = sc[keep[i]];
        mu[i] *= si;
        for (std::size_t j = 0; j <= i; ++j) {
            const double v = cov[i * s + j] * (si * sc[keep[j]]);
            cov[i * s + j] = v;
            cov[j * s + i] = v;
        }
    }
}

void
ChainSolver::marginals(const std::vector<Gaussian> &sites,
                       std::vector<double> &mean, std::vector<double> &stddev,
                       GaussianJoint &local)
{
    for (std::size_t t = 0; t + 1 < blocks_; ++t)
        passForward(t, sites);
    marginalsAfterSweep(sites, mean, stddev, local);
}

void
ChainSolver::marginalsAfterSweep(const std::vector<Gaussian> &sites,
                                 std::vector<double> &mean,
                                 std::vector<double> &stddev,
                                 GaussianJoint &local)
{
    mean.resize(n_);
    stddev.resize(n_);
    beginSweep(sites);
    for (std::size_t t = 0; t < blocks_; ++t) {
        const std::size_t m = blockLength(t), off = blockBegin(t);
        blockMarginal(t, sites, std::span(all_.data(), m), local);
        for (std::size_t i = 0; i < m; ++i) {
            mean[off + i] = local.mean[i];
            stddev[off + i] = std::sqrt(std::max(local.covariance(i, i), 0.0));
        }
    }
}

} // namespace graph
} // namespace bperf
