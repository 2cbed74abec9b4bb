#include "sparse/csr.hh"

#include "util/logging.hh"

namespace sparsepipe {

namespace {

/**
 * Stable counting-sort transpose between the compressed layouts.
 * Walking the source majors in order keeps the destination's minor
 * indices ascending inside each run, so the result is canonical —
 * identical to the COO round-trip it replaces, without materializing
 * (and comparison-sorting) the triplet view.
 */
std::shared_ptr<const CompressedArrays>
transposeCompressed(Idx src_major, Idx dst_major,
                    const CompressedArrays &src)
{
    auto dst = std::make_shared<CompressedArrays>();
    dst->ptr.assign(static_cast<std::size_t>(dst_major) + 1, 0);
    dst->idx.resize(src.idx.size());
    dst->vals.resize(src.vals.size());
    for (Idx m : src.idx)
        ++dst->ptr[static_cast<std::size_t>(m) + 1];
    for (std::size_t i = 1; i < dst->ptr.size(); ++i)
        dst->ptr[i] += dst->ptr[i - 1];
    std::vector<Idx> cursor(dst->ptr.begin(), dst->ptr.end() - 1);
    for (Idx s = 0; s < src_major; ++s) {
        for (Idx k = src.ptr[static_cast<std::size_t>(s)];
             k < src.ptr[static_cast<std::size_t>(s) + 1]; ++k) {
            const auto d = static_cast<std::size_t>(
                src.idx[static_cast<std::size_t>(k)]);
            const auto at = static_cast<std::size_t>(cursor[d]++);
            dst->idx[at] = s;
            dst->vals[at] = src.vals[static_cast<std::size_t>(k)];
        }
    }
    return dst;
}

/** The one block every default-constructed matrix shares. */
const std::shared_ptr<const CompressedArrays> &
emptyArrays()
{
    static const std::shared_ptr<const CompressedArrays> empty =
        std::make_shared<const CompressedArrays>();
    return empty;
}

/** Same block, or equal contents. */
bool
sameArrays(const std::shared_ptr<const CompressedArrays> &a,
           const std::shared_ptr<const CompressedArrays> &b)
{
    return a == b || *a == *b;
}

/** The identity value map for fromCleanCoo. */
constexpr auto keepValue = [](Value v, Idx) { return v; };

} // anonymous namespace

CsrMatrix::CsrMatrix() : s_(emptyArrays()) {}

CsrMatrix
CsrMatrix::fromCoo(const CooMatrix &coo)
{
    // A clean matrix compresses as is; anything else is canonicalized
    // in a copy, leaving the caller's matrix untouched.
    if (coo.isClean())
        return fromCleanCoo(coo, keepValue);
    return fromCoo(CooMatrix(coo));
}

CsrMatrix
CsrMatrix::fromCoo(CooMatrix &&coo)
{
    coo.canonicalize();
    return fromCleanCoo(coo, keepValue);
}

CsrMatrix
CsrMatrix::fromCsc(const CscMatrix &csc)
{
    return CsrMatrix(csc.rows(), csc.cols(),
                     transposeCompressed(csc.cols(), csc.rows(),
                                         *csc.storage()));
}

bool
CsrMatrix::operator==(const CsrMatrix &other) const
{
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           sameArrays(s_, other.s_);
}

CooMatrix
CsrMatrix::toCoo() const
{
    CooMatrix out(rows_, cols_);
    for (Idx r = 0; r < rows_; ++r) {
        auto cols = rowCols(r);
        auto vals = rowVals(r);
        for (std::size_t k = 0; k < cols.size(); ++k)
            out.add(r, cols[k], vals[k]);
    }
    return out;
}

bool
CsrMatrix::validate() const
{
    const std::vector<Idx> &ptr = s_->ptr;
    if (static_cast<Idx>(ptr.size()) != rows_ + 1)
        return false;
    if (ptr.front() != 0 ||
        ptr.back() != static_cast<Idx>(s_->vals.size()))
        return false;
    if (s_->idx.size() != s_->vals.size())
        return false;
    for (Idx r = 0; r < rows_; ++r) {
        if (ptr[r] > ptr[r + 1])
            return false;
        Idx prev = -1;
        for (Idx k = ptr[r]; k < ptr[r + 1]; ++k) {
            Idx c = s_->idx[k];
            if (c < 0 || c >= cols_ || c <= prev)
                return false;
            prev = c;
        }
    }
    return true;
}

CscMatrix::CscMatrix() : s_(emptyArrays()) {}

CscMatrix
CscMatrix::fromCoo(CooMatrix coo)
{
    coo.canonicalize();
    // The entries are now row-major canonical; a stable counting
    // sort by column lands them in (col, row) order without the
    // comparison sort the old sortColMajor() path paid.
    auto s = std::make_shared<CompressedArrays>();
    const auto &entries = coo.entries();
    s->ptr.assign(static_cast<std::size_t>(coo.cols()) + 1, 0);
    s->idx.resize(entries.size());
    s->vals.resize(entries.size());
    for (const Triplet &t : entries)
        ++s->ptr[static_cast<std::size_t>(t.col) + 1];
    for (std::size_t i = 1; i < s->ptr.size(); ++i)
        s->ptr[i] += s->ptr[i - 1];
    std::vector<Idx> cursor(s->ptr.begin(), s->ptr.end() - 1);
    for (const Triplet &t : entries) {
        const auto at = static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(t.col)]++);
        s->idx[at] = t.row;
        s->vals[at] = t.val;
    }
    return CscMatrix(coo.rows(), coo.cols(), std::move(s));
}

CscMatrix
CscMatrix::fromCsr(const CsrMatrix &csr)
{
    return CscMatrix(csr.rows(), csr.cols(),
                     transposeCompressed(csr.rows(), csr.cols(),
                                         *csr.storage()));
}

bool
CscMatrix::operator==(const CscMatrix &other) const
{
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           sameArrays(s_, other.s_);
}

CooMatrix
CscMatrix::toCoo() const
{
    CooMatrix out(rows_, cols_);
    for (Idx c = 0; c < cols_; ++c) {
        auto rows = colRows(c);
        auto vals = colVals(c);
        for (std::size_t k = 0; k < rows.size(); ++k)
            out.add(rows[k], c, vals[k]);
    }
    out.sortRowMajor();
    return out;
}

bool
CscMatrix::validate() const
{
    const std::vector<Idx> &ptr = s_->ptr;
    if (static_cast<Idx>(ptr.size()) != cols_ + 1)
        return false;
    if (ptr.front() != 0 ||
        ptr.back() != static_cast<Idx>(s_->vals.size()))
        return false;
    if (s_->idx.size() != s_->vals.size())
        return false;
    for (Idx c = 0; c < cols_; ++c) {
        if (ptr[c] > ptr[c + 1])
            return false;
        Idx prev = -1;
        for (Idx k = ptr[c]; k < ptr[c + 1]; ++k) {
            Idx r = s_->idx[k];
            if (r < 0 || r >= rows_ || r <= prev)
                return false;
            prev = r;
        }
    }
    return true;
}

} // namespace sparsepipe
