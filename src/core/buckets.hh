/**
 * @file
 * Sub-tensor bucket decomposition of a sparse operand.
 *
 * The OEI pipeline advances in steps of T columns.  A non-zero
 * A(i, k) is loaded by the CSC loader at column-step k / T and
 * becomes consumable by the IS core once row-band i / T unlocks
 * (lag steps after the OS core produced that band's e-wise inputs).
 * All per-step loader / compute / buffer quantities reduce to the
 * counts b[col_step][row_band].  This structure keeps only the
 * occupied buckets, as two span slabs (one per axis), plus the
 * per-step and per-band totals, so its size follows the occupied
 * buckets rather than steps x bands.
 */

#ifndef SPARSEPIPE_CORE_BUCKETS_HH
#define SPARSEPIPE_CORE_BUCKETS_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "sparse/csr.hh"

namespace sparsepipe {

/**
 * One contiguous run of non-zeros in a bucket: `cnt` elements at
 * band (or column-step) index `at`.  The span slabs below list only
 * the occupied buckets, so hot loops touch only non-zero work.
 */
struct BucketSpan
{
    Idx at = 0;
    Idx cnt = 0;
};

/** Element counts bucketed by (column step, row band). */
class StepBuckets
{
  public:
    /**
     * Bucket a CSC operand: column steps follow storage columns
     * (the vxm OS traversal order).
     */
    static StepBuckets build(const CscMatrix &matrix, Idx t);

    /**
     * Bucket with roles swapped (SpMM: the OS core streams *rows*
     * of A and the IS core consumes its columns).
     */
    static StepBuckets buildTransposed(const CsrMatrix &matrix, Idx t);

    Idx t() const { return t_; }
    Idx steps() const { return steps_; }
    Idx bands() const { return bands_; }
    Idx nnz() const { return nnz_; }

    /** Elements the CSC loader fetches for column-step cs. */
    Idx colStepNnz(Idx cs) const
    {
        return col_step_nnz_[static_cast<std::size_t>(cs)];
    }

    /** Total elements in row-band rs across all column steps. */
    Idx bandNnz(Idx rs) const
    {
        return band_nnz_[static_cast<std::size_t>(rs)];
    }

    /**
     * Occupied buckets of column-step cs as (row band, count) spans
     * in ascending band order: exactly the (cs, rs) cells of the
     * dense counts grid that hold a non-zero.
     */
    std::span<const BucketSpan> colSpans(Idx cs) const
    {
        const std::size_t lo =
            col_slab_ptr_[static_cast<std::size_t>(cs)];
        const std::size_t hi =
            col_slab_ptr_[static_cast<std::size_t>(cs) + 1];
        return {col_slab_.data() + lo, hi - lo};
    }

    /**
     * Occupied buckets of row-band rs as (column step, count) spans
     * in ascending column-step order.
     */
    std::span<const BucketSpan> bandSpans(Idx rs) const
    {
        const std::size_t lo =
            band_slab_ptr_[static_cast<std::size_t>(rs)];
        const std::size_t hi =
            band_slab_ptr_[static_cast<std::size_t>(rs) + 1];
        return {band_slab_.data() + lo, hi - lo};
    }

  private:
    /** Bucket compressed storage: majors are steps, minors bands. */
    static StepBuckets fromCompressed(Idx majors, Idx minors,
                                      const CompressedArrays &a,
                                      Idx t);

    Idx t_ = 0;
    Idx steps_ = 0;
    Idx bands_ = 0;
    Idx nnz_ = 0;
    std::vector<Idx> col_step_nnz_;
    std::vector<Idx> band_nnz_;
    /** Occupied buckets by column step (CSR-style slab). */
    std::vector<BucketSpan> col_slab_;
    std::vector<std::size_t> col_slab_ptr_;
    /** Occupied buckets by row band (CSC-style slab). */
    std::vector<BucketSpan> band_slab_;
    std::vector<std::size_t> band_slab_ptr_;
};

/**
 * One-slot memo of an operand's bucket decomposition, keyed by
 * (storage block, t, orientation).  A PreparedCase owns one and
 * every run bound from it shares it (api::Session::bindWorkspace),
 * so warm runs bucket the operand once; any other workspace gets a
 * private memo on its first run.  Lookups hold the mutex, a miss
 * builds under it, and the returned pointer keeps the buckets alive
 * for the caller's run even if another key replaces the slot.
 */
class BucketMemo
{
  public:
    /**
     * @return the buckets of `csc` at sub-tensor size t, or of `csr`
     * with roles swapped when `transposed` (SpMM).
     */
    std::shared_ptr<const StepBuckets> get(const CsrMatrix &csr,
                                           const CscMatrix &csc, Idx t,
                                           bool transposed);

    /** The slot's current buckets (null before the first get). */
    std::shared_ptr<const StepBuckets> current() const;

  private:
    mutable std::mutex mu_;
    /** Pins the keyed block so its address cannot be reused. */
    std::shared_ptr<const CompressedArrays> operand_;
    Idx t_ = 0;
    bool transposed_ = false;
    std::shared_ptr<const StepBuckets> buckets_;
};

/**
 * Residency sweep (paper Table I): peak and average number of
 * non-zeros that must sit on chip to run the OEI dataflow with the
 * given sub-tensor size and pipeline lag, assuming no eviction.
 */
struct ResidencyStats
{
    Idx max_resident = 0;
    double avg_resident = 0.0;
    double maxPercent(Idx nnz) const;
    double avgPercent(Idx nnz) const;
};

ResidencyStats residencySweep(const StepBuckets &buckets, Idx lag);

} // namespace sparsepipe

#endif // SPARSEPIPE_CORE_BUCKETS_HH
