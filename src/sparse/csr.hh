/**
 * @file
 * Compressed Sparse Row (CSR) matrix.  Rows are stored contiguously;
 * this is the access order the IS (input-stationary) stage of the OEI
 * dataflow demands (scatter a matrix row against one input element).
 */

#ifndef SPARSEPIPE_SPARSE_CSR_HH
#define SPARSEPIPE_SPARSE_CSR_HH

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sparse/coo.hh"
#include "sparse/types.hh"

namespace sparsepipe {

class CscMatrix;

/**
 * The three arrays of a compressed matrix: `ptr` over the compressed
 * dimension, `idx` and `vals` per stored element.  CsrMatrix and
 * CscMatrix hold one immutable block of these through a
 * shared_ptr, so copying a matrix shares its storage.
 */
struct CompressedArrays
{
    std::vector<Idx> ptr = {0};
    std::vector<Idx> idx;
    std::vector<Value> vals;

    bool operator==(const CompressedArrays &other) const = default;
};

/**
 * Compressed Sparse Row matrix with canonical (ascending column)
 * ordering inside each row.  A value type over immutable shared
 * storage: a copy costs one reference-count increment and aliases
 * the same arrays, which no method can modify.
 */
class CsrMatrix
{
  public:
    /** The empty 0 x 0 matrix. */
    CsrMatrix();

    /**
     * Build from a COO matrix (canonicalized internally).  An
     * lvalue that is already clean (CooMatrix::isClean) is read in
     * place; any other lvalue is canonicalized in a copy, and an
     * rvalue in place.
     */
    static CsrMatrix fromCoo(const CooMatrix &coo);
    static CsrMatrix fromCoo(CooMatrix &&coo);

    /**
     * Compress a clean COO matrix (CooMatrix::isClean), storing
     * `value_of(v, row_nnz)` in place of each value v.  The app
     * prepares rewrite values this way, on the arrays being built
     * rather than on a copy of their input.
     */
    template <typename ValueOf>
    static CsrMatrix fromCleanCoo(const CooMatrix &coo,
                                  ValueOf value_of);

    /** Build from a column-ordered CSC matrix. */
    static CsrMatrix fromCsc(const CscMatrix &csc);

    /** @return the matrix as COO (row-major canonical order). */
    CooMatrix toCoo() const;

    Idx rows() const { return rows_; }
    Idx cols() const { return cols_; }
    Idx nnz() const { return static_cast<Idx>(s_->vals.size()); }

    /** @return number of non-zeros in row r. */
    Idx rowNnz(Idx r) const { return s_->ptr[r + 1] - s_->ptr[r]; }

    /** @return column indices of row r. */
    std::span<const Idx> rowCols(Idx r) const
    {
        return {s_->idx.data() + s_->ptr[r],
                static_cast<std::size_t>(rowNnz(r))};
    }

    /** @return values of row r. */
    std::span<const Value> rowVals(Idx r) const
    {
        return {s_->vals.data() + s_->ptr[r],
                static_cast<std::size_t>(rowNnz(r))};
    }

    const std::vector<Idx> &rowPtr() const { return s_->ptr; }
    const std::vector<Idx> &colIdx() const { return s_->idx; }
    const std::vector<Value> &vals() const { return s_->vals; }

    /**
     * The shared storage block.  Copies of a matrix return the same
     * block; its address identifies the operand (the bucket memo
     * keys on it, core/buckets.hh).
     */
    const std::shared_ptr<const CompressedArrays> &storage() const
    {
        return s_;
    }

    /**
     * Internal-consistency check: monotone row pointers, in-bounds and
     * ascending column indices.  @return true when valid.
     */
    bool validate() const;

    /** Content comparison; matrices sharing a block are equal. */
    bool operator==(const CsrMatrix &other) const;

  private:
    CsrMatrix(Idx rows, Idx cols,
              std::shared_ptr<const CompressedArrays> s)
        : rows_(rows), cols_(cols), s_(std::move(s)) {}

    Idx rows_ = 0;
    Idx cols_ = 0;
    std::shared_ptr<const CompressedArrays> s_;
};

/**
 * Compressed Sparse Column matrix, the mirror of CsrMatrix.  Columns
 * are contiguous; this is the access order of the OS
 * (output-stationary) stage (one column per output element).  Same
 * shared immutable storage as CsrMatrix.
 */
class CscMatrix
{
  public:
    /** The empty 0 x 0 matrix. */
    CscMatrix();

    /** Build from a COO matrix (canonicalized internally). */
    static CscMatrix fromCoo(CooMatrix coo);

    /** Build from a row-ordered CSR matrix. */
    static CscMatrix fromCsr(const CsrMatrix &csr);

    /** @return the matrix as COO (row-major canonical order). */
    CooMatrix toCoo() const;

    Idx rows() const { return rows_; }
    Idx cols() const { return cols_; }
    Idx nnz() const { return static_cast<Idx>(s_->vals.size()); }

    /** @return number of non-zeros in column c. */
    Idx colNnz(Idx c) const { return s_->ptr[c + 1] - s_->ptr[c]; }

    /** @return row indices of column c. */
    std::span<const Idx> colRows(Idx c) const
    {
        return {s_->idx.data() + s_->ptr[c],
                static_cast<std::size_t>(colNnz(c))};
    }

    /** @return values of column c. */
    std::span<const Value> colVals(Idx c) const
    {
        return {s_->vals.data() + s_->ptr[c],
                static_cast<std::size_t>(colNnz(c))};
    }

    const std::vector<Idx> &colPtr() const { return s_->ptr; }
    const std::vector<Idx> &rowIdx() const { return s_->idx; }
    const std::vector<Value> &vals() const { return s_->vals; }

    /** The shared storage block (see CsrMatrix::storage). */
    const std::shared_ptr<const CompressedArrays> &storage() const
    {
        return s_;
    }

    /** Structural validity check (see CsrMatrix::validate). */
    bool validate() const;

    /** Content comparison; matrices sharing a block are equal. */
    bool operator==(const CscMatrix &other) const;

  private:
    CscMatrix(Idx rows, Idx cols,
              std::shared_ptr<const CompressedArrays> s)
        : rows_(rows), cols_(cols), s_(std::move(s)) {}

    Idx rows_ = 0;
    Idx cols_ = 0;
    std::shared_ptr<const CompressedArrays> s_;
};

template <typename ValueOf>
CsrMatrix
CsrMatrix::fromCleanCoo(const CooMatrix &coo, ValueOf value_of)
{
    auto s = std::make_shared<CompressedArrays>();
    const std::vector<Triplet> &entries = coo.entries();
    s->ptr.assign(static_cast<std::size_t>(coo.rows()) + 1, 0);
    for (const Triplet &t : entries)
        ++s->ptr[static_cast<std::size_t>(t.row) + 1];
    for (std::size_t i = 1; i < s->ptr.size(); ++i)
        s->ptr[i] += s->ptr[i - 1];
    s->idx.reserve(entries.size());
    s->vals.reserve(entries.size());
    for (const Triplet &t : entries) {
        const auto r = static_cast<std::size_t>(t.row);
        s->idx.push_back(t.col);
        s->vals.push_back(value_of(t.val, s->ptr[r + 1] - s->ptr[r]));
    }
    return CsrMatrix(coo.rows(), coo.cols(), std::move(s));
}

} // namespace sparsepipe

#endif // SPARSEPIPE_SPARSE_CSR_HH
