#include "core/buckets.hh"

#include <algorithm>

#include "util/logging.hh"

namespace sparsepipe {

StepBuckets
StepBuckets::build(const CscMatrix &matrix, Idx t)
{
    return fromCompressed(matrix.cols(), matrix.rows(),
                          *matrix.storage(), t);
}

StepBuckets
StepBuckets::buildTransposed(const CsrMatrix &matrix, Idx t)
{
    return fromCompressed(matrix.rows(), matrix.cols(),
                          *matrix.storage(), t);
}

StepBuckets
StepBuckets::fromCompressed(Idx majors, Idx minors,
                            const CompressedArrays &a, Idx t)
{
    if (t <= 0)
        sp_panic("StepBuckets: sub-tensor size must be positive");
    StepBuckets b;
    b.t_ = t;
    b.steps_ = (majors + t - 1) / t;
    b.bands_ = (minors + t - 1) / t;
    b.nnz_ = static_cast<Idx>(a.idx.size());
    b.col_step_nnz_.assign(static_cast<std::size_t>(b.steps_), 0);
    b.band_nnz_.assign(static_cast<std::size_t>(b.bands_), 0);
    b.col_slab_ptr_.assign(static_cast<std::size_t>(b.steps_) + 1, 0);

    // Column slab, one step at a time.  A lookup table gives each
    // minor index its band, so the element pass divides nothing; a
    // step's counts accumulate in `acc`, and one scan over the bands
    // emits its occupied ones in ascending order.  Scratch is two
    // arrays of minors and bands entries, not a steps x bands grid.
    std::vector<Idx> band_of(static_cast<std::size_t>(minors));
    for (Idx rs = 0, m = 0; rs < b.bands_; ++rs) {
        for (const Idx end = std::min(minors, (rs + 1) * t); m < end;
             ++m)
            band_of[static_cast<std::size_t>(m)] = rs;
    }
    std::vector<Idx> acc(static_cast<std::size_t>(b.bands_), 0);
    for (Idx cs = 0; cs < b.steps_; ++cs) {
        const Idx lo = a.ptr[static_cast<std::size_t>(cs * t)];
        const Idx hi = a.ptr[static_cast<std::size_t>(
            std::min(majors, (cs + 1) * t))];
        for (Idx k = lo; k < hi; ++k)
            ++acc[static_cast<std::size_t>(
                band_of[static_cast<std::size_t>(
                    a.idx[static_cast<std::size_t>(k)])])];
        b.col_step_nnz_[static_cast<std::size_t>(cs)] = hi - lo;
        for (Idx rs = 0; rs < b.bands_; ++rs) {
            Idx &cnt = acc[static_cast<std::size_t>(rs)];
            if (cnt == 0)
                continue;
            b.col_slab_.push_back({rs, cnt});
            b.band_nnz_[static_cast<std::size_t>(rs)] += cnt;
            cnt = 0;
        }
        b.col_slab_ptr_[static_cast<std::size_t>(cs) + 1] =
            b.col_slab_.size();
    }
    b.col_slab_.shrink_to_fit();

    // Band slab: a stable counting sort of the column slab by band,
    // so each band lists its steps in ascending order.
    b.band_slab_ptr_.assign(static_cast<std::size_t>(b.bands_) + 1, 0);
    for (const BucketSpan &sp : b.col_slab_)
        ++b.band_slab_ptr_[static_cast<std::size_t>(sp.at) + 1];
    for (std::size_t i = 1; i < b.band_slab_ptr_.size(); ++i)
        b.band_slab_ptr_[i] += b.band_slab_ptr_[i - 1];
    b.band_slab_.resize(b.col_slab_.size());
    std::vector<std::size_t> cursor(b.band_slab_ptr_.begin(),
                                    b.band_slab_ptr_.end() - 1);
    for (Idx cs = 0; cs < b.steps_; ++cs) {
        for (const BucketSpan &sp : b.colSpans(cs))
            b.band_slab_[cursor[static_cast<std::size_t>(sp.at)]++] =
                {cs, sp.cnt};
    }
    return b;
}

std::shared_ptr<const StepBuckets>
BucketMemo::get(const CsrMatrix &csr, const CscMatrix &csc, Idx t,
                bool transposed)
{
    const std::shared_ptr<const CompressedArrays> &operand =
        transposed ? csr.storage() : csc.storage();
    std::lock_guard<std::mutex> lock(mu_);
    if (buckets_ && operand_ == operand && t_ == t &&
        transposed_ == transposed)
        return buckets_;
    buckets_ = std::make_shared<const StepBuckets>(
        transposed ? StepBuckets::buildTransposed(csr, t)
                   : StepBuckets::build(csc, t));
    operand_ = operand;
    t_ = t;
    transposed_ = transposed;
    return buckets_;
}

std::shared_ptr<const StepBuckets>
BucketMemo::current() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return buckets_;
}

double
ResidencyStats::maxPercent(Idx nnz) const
{
    if (nnz == 0)
        return 0.0;
    return 100.0 * static_cast<double>(max_resident) /
           static_cast<double>(nnz);
}

double
ResidencyStats::avgPercent(Idx nnz) const
{
    if (nnz == 0)
        return 0.0;
    return 100.0 * avg_resident / static_cast<double>(nnz);
}

ResidencyStats
residencySweep(const StepBuckets &buckets, Idx lag)
{
    // At step j the resident elements are those loaded through j
    // whose row band has not yet unlocked (rs > j - lag): bucket
    // (cs, rs) is resident for j in [cs, rs + lag).  A difference
    // array over the band slabs sums these intervals exactly.
    const Idx steps = buckets.steps();
    std::vector<Idx> delta(static_cast<std::size_t>(steps) + 1, 0);
    for (Idx rs = 0; rs < buckets.bands(); ++rs) {
        const Idx until = std::min(steps, rs + lag);
        for (const BucketSpan &sp : buckets.bandSpans(rs)) {
            if (sp.at >= until)
                break;
            delta[static_cast<std::size_t>(sp.at)] += sp.cnt;
            delta[static_cast<std::size_t>(until)] -= sp.cnt;
        }
    }
    ResidencyStats stats;
    double sum = 0.0;
    Idx resident = 0;
    for (Idx j = 0; j < steps; ++j) {
        resident += delta[static_cast<std::size_t>(j)];
        stats.max_resident = std::max(stats.max_resident, resident);
        sum += static_cast<double>(resident);
    }
    stats.avg_resident = steps > 0
        ? sum / static_cast<double>(steps) : 0.0;
    return stats;
}

} // namespace sparsepipe
