#include "apps/apps.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sparse/generate.hh"
#include "util/logging.hh"

namespace sparsepipe {

Idx
resolveSource(const CsrMatrix &matrix, Idx source)
{
    if (source >= 0)
        return source;
    Idx best = 0, best_deg = -1;
    for (Idx r = 0; r < matrix.rows(); ++r) {
        if (matrix.rowNnz(r) > best_deg) {
            best_deg = matrix.rowNnz(r);
            best = r;
        }
    }
    return best;
}

CsrMatrix
prepareBoolean(CooMatrix m)
{
    for (Triplet &t : m.entries())
        t.val = 1.0;
    return CsrMatrix::fromCoo(std::move(m));
}

CsrMatrix
prepareStochastic(CooMatrix m)
{
    return CsrMatrix::fromCoo(rowStochastic(std::move(m)));
}

CsrMatrix
prepareWeighted(CooMatrix m)
{
    for (Triplet &t : m.entries()) {
        if (t.val <= 0.0)
            t.val = 0.1;
    }
    return CsrMatrix::fromCoo(std::move(m));
}

CsrMatrix
prepareSpd(CooMatrix m)
{
    if (m.rows() != m.cols())
        sp_panic("prepareSpd: matrix must be square");
    // Row i of B merges row i of A with row i of A^T (column i of A,
    // the CSC twin) in one ascending-column pass.
    const CsrMatrix a = CsrMatrix::fromCoo(std::move(m));
    const CscMatrix at = CscMatrix::fromCsr(a);
    const Idx n = a.rows();
    CooMatrix b(n, n);
    std::vector<Triplet> &out = b.entries();
    out.reserve(static_cast<std::size_t>(2 * a.nnz() + n));
    for (Idx i = 0; i < n; ++i) {
        const auto a_cols = a.rowCols(i);
        const auto a_vals = a.rowVals(i);
        const auto t_cols = at.colRows(i);
        const auto t_vals = at.colVals(i);
        std::size_t p = 0, q = 0;
        // Diagonal dominance: b_ii = 1 + sum_j |b_ij|, accumulated in
        // ascending column order; its slot is reserved on the way.
        Value row_abs = 0.0;
        std::size_t diag = SIZE_MAX;
        while (p < a_cols.size() || q < t_cols.size()) {
            const Idx ja = p < a_cols.size() ? a_cols[p] : n;
            const Idx jt = q < t_cols.size() ? t_cols[q] : n;
            const Idx j = std::min(ja, jt);
            if (j > i && diag == SIZE_MAX) {
                diag = out.size();
                out.push_back({i, i, 0.0});
            }
            if (j == i) {
                p += ja == i;
                q += jt == i;
                continue;
            }
            // Both halves present: a two-term IEEE sum commutes, and
            // keeping the order the triplet-wise symmetrisation added
            // them in (a_ij first above the diagonal, a_ji first
            // below) pins even a NaN's payload.
            Value v;
            if (ja == jt) {
                const Value h_ij = 0.5 * a_vals[p++];
                const Value h_ji = 0.5 * t_vals[q++];
                v = j > i ? h_ij + h_ji : h_ji + h_ij;
            } else if (ja < jt) {
                v = 0.5 * a_vals[p++];
            } else {
                v = 0.5 * t_vals[q++];
            }
            if (v == 0.0)
                continue;
            row_abs += std::abs(v);
            out.push_back({i, j, v});
        }
        if (diag == SIZE_MAX) {
            diag = out.size();
            out.push_back({i, i, 0.0});
        }
        out[diag].val = 1.0 + row_abs;
    }
    return CsrMatrix::fromCoo(std::move(b));
}

} // namespace sparsepipe
