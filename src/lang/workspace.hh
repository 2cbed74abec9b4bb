/**
 * @file
 * Data bindings for executing a Program.
 *
 * A Workspace allocates storage for every declared tensor: dense
 * vectors / matrices and scalars are created immediately (scalars
 * take their declared initial value); the sparse matrix operand is
 * bound by the caller.  Bound sparse matrices are kept in BOTH CSR
 * and CSC form — the host-side equivalent of Sparsepipe's dual
 * sparse storage, since the OS stage traverses columns and the IS
 * stage traverses rows of the same operand.  Both forms are shared
 * immutable values (sparse/csr.hh), so a bind copies no arrays.
 */

#ifndef SPARSEPIPE_LANG_WORKSPACE_HH
#define SPARSEPIPE_LANG_WORKSPACE_HH

#include <memory>
#include <utility>
#include <vector>

#include "graph/ir.hh"
#include "sparse/csr.hh"
#include "sparse/dense.hh"

namespace sparsepipe {

class BucketMemo;

/** Runtime storage for one Program execution. */
class Workspace
{
  public:
    /** Allocate storage for every tensor in the program. */
    explicit Workspace(const Program &program);

    /** Bind the sparse operand (builds the CSC twin internally). */
    void bindMatrix(TensorId id, CsrMatrix csr);

    /**
     * Bind the sparse operand with a precomputed CSC twin.  `csc`
     * must equal CscMatrix::fromCsr(csr); callers that cache the
     * pair (api::Session) skip the per-bind transpose.
     */
    void bindMatrix(TensorId id, CsrMatrix csr, CscMatrix csc);

    /** @return mutable dense vector storage for a Vector tensor. */
    DenseVector &vec(TensorId id);
    const DenseVector &vec(TensorId id) const;

    /** @return mutable dense matrix storage. */
    DenseMatrix &den(TensorId id);
    const DenseMatrix &den(TensorId id) const;

    /** @return mutable scalar storage. */
    Value &scalar(TensorId id);
    Value scalar(TensorId id) const;

    /** @return the bound matrix in row-compressed form. */
    const CsrMatrix &csr(TensorId id) const;

    /** @return the bound matrix in column-compressed form. */
    const CscMatrix &csc(TensorId id) const;

    /** @return true once bindMatrix was called for this tensor. */
    bool matrixBound(TensorId id) const;

    /**
     * Bucket memo of the bound operand (core/buckets.hh).
     * Session::bindWorkspace shares the PreparedCase's; otherwise it
     * is null until the first simulated run installs a private one.
     */
    const std::shared_ptr<BucketMemo> &bucketMemo() const
    {
        return bucket_memo_;
    }
    void setBucketMemo(std::shared_ptr<BucketMemo> memo)
    {
        bucket_memo_ = std::move(memo);
    }

    const Program &program() const { return *program_; }

  private:
    const TensorInfo &info(TensorId id) const;
    std::size_t at(TensorId id) const;

    const Program *program_;
    std::vector<DenseVector> vectors_;
    std::vector<DenseMatrix> denses_;
    std::vector<Value> scalars_;
    std::vector<CsrMatrix> csrs_;
    std::vector<CscMatrix> cscs_;
    std::vector<char> bound_;
    std::shared_ptr<BucketMemo> bucket_memo_;
};

} // namespace sparsepipe

#endif // SPARSEPIPE_LANG_WORKSPACE_HH
