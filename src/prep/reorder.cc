#include "prep/reorder.hh"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <queue>

#include "util/logging.hh"

namespace sparsepipe {

const char *
reorderKindName(ReorderKind kind)
{
    switch (kind) {
      case ReorderKind::None:     return "none";
      case ReorderKind::Vanilla:  return "vanilla";
      case ReorderKind::Locality: return "locality";
    }
    return "?";
}

std::vector<Idx>
identityOrder(Idx n)
{
    std::vector<Idx> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    return perm;
}

namespace {

/**
 * Indexed 4-ary min-heap over vertex keys packed as
 * (in-degree << 32) | vertex, so integer order is (in-degree, vertex)
 * order and ties break toward the lower vertex id.  Each vertex holds
 * exactly one slot; decrement() sifts it up in place instead of
 * pushing a stale duplicate.
 */
class VertexHeap
{
  public:
    explicit VertexHeap(const std::vector<std::uint32_t> &indeg)
        : keys_(indeg.size()), pos_(indeg.size())
    {
        for (std::size_t v = 0; v < indeg.size(); ++v) {
            keys_[v] = pack(indeg[v], v);
            pos_[v] = static_cast<std::uint32_t>(v);
        }
        // Floyd heapify: (n + 2) / 4 is one past the last parent.
        for (std::size_t i = (keys_.size() + 2) / 4; i-- > 0;)
            siftDown(i);
    }

    bool empty() const { return keys_.empty(); }

    /** Remove and @return the vertex with the smallest key. */
    std::uint32_t pop()
    {
        const std::uint32_t v = vertexOf(keys_.front());
        const std::uint64_t last = keys_.back();
        keys_.pop_back();
        if (!keys_.empty()) {
            place(0, last);
            siftDown(0);
        }
        return v;
    }

    /** Lower unplaced vertex v's in-degree by one. */
    void decrement(std::uint32_t v)
    {
        const std::size_t i = pos_[v];
        keys_[i] -= std::uint64_t{1} << 32;
        siftUp(i);
    }

  private:
    static std::uint64_t pack(std::uint32_t deg, std::size_t v)
    {
        return std::uint64_t{deg} << 32 | v;
    }
    static std::uint32_t vertexOf(std::uint64_t key)
    {
        return static_cast<std::uint32_t>(key);
    }

    void place(std::size_t i, std::uint64_t key)
    {
        keys_[i] = key;
        pos_[vertexOf(key)] = static_cast<std::uint32_t>(i);
    }

    void siftUp(std::size_t i)
    {
        const std::uint64_t key = keys_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 4;
            if (keys_[parent] <= key)
                break;
            place(i, keys_[parent]);
            i = parent;
        }
        place(i, key);
    }

    void siftDown(std::size_t i)
    {
        const std::uint64_t key = keys_[i];
        const std::size_t n = keys_.size();
        for (;;) {
            const std::size_t first = 4 * i + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t last = std::min(first + 4, n);
            for (std::size_t c = first + 1; c < last; ++c)
                if (keys_[c] < keys_[best])
                    best = c;
            if (key <= keys_[best])
                break;
            place(i, keys_[best]);
            i = best;
        }
        place(i, key);
    }

    std::vector<std::uint64_t> keys_;
    std::vector<std::uint32_t> pos_;
};

} // anonymous namespace

std::vector<Idx>
vanillaReorder(const CsrMatrix &matrix)
{
    const Idx n = matrix.rows();
    // Vertex ids and in-degrees (at most n) share one 64-bit heap key.
    if (n >= (Idx{1} << 32))
        sp_panic("vanillaReorder: %lld rows exceed the 32-bit heap key",
                 static_cast<long long>(n));
    // In-degree per column: count of stored entries in that column.
    std::vector<std::uint32_t> indeg(static_cast<std::size_t>(n), 0);
    for (Idx c : matrix.colIdx())
        ++indeg[static_cast<std::size_t>(c)];

    // Repeatedly emit the unplaced vertex of least remaining
    // in-degree (lowest id on ties); emitting it decrements the
    // in-degree of its unplaced out-neighbours (Kahn's algorithm
    // generalised to cyclic graphs by always taking the current
    // minimum).
    VertexHeap heap(indeg);
    std::vector<char> placed(static_cast<std::size_t>(n), 0);
    std::vector<Idx> perm(static_cast<std::size_t>(n), -1);
    Idx next_label = 0;
    while (!heap.empty()) {
        const std::uint32_t v = heap.pop();
        placed[v] = 1;
        perm[v] = next_label++;
        for (Idx c : matrix.rowCols(v)) {
            const auto ci = static_cast<std::uint32_t>(c);
            if (!placed[ci])
                heap.decrement(ci);
        }
    }
    return perm;
}

std::vector<Idx>
localityReorder(const CsrMatrix &matrix)
{
    const Idx n = matrix.rows();
    std::vector<Idx> degree(static_cast<std::size_t>(n), 0);
    for (Idx r = 0; r < n; ++r)
        degree[static_cast<std::size_t>(r)] = matrix.rowNnz(r);

    std::vector<char> visited(static_cast<std::size_t>(n), 0);
    std::vector<Idx> perm(static_cast<std::size_t>(n), -1);
    Idx next_label = 0;

    // BFS from successive minimum-degree seeds; within a frontier,
    // visit neighbours in ascending degree (Cuthill-McKee).
    std::vector<Idx> seeds = identityOrder(n);
    std::sort(seeds.begin(), seeds.end(), [&](Idx a, Idx b) {
        return degree[static_cast<std::size_t>(a)] <
               degree[static_cast<std::size_t>(b)];
    });

    std::queue<Idx> frontier;
    std::vector<Idx> nbrs;
    for (Idx seed : seeds) {
        if (visited[static_cast<std::size_t>(seed)])
            continue;
        visited[static_cast<std::size_t>(seed)] = 1;
        frontier.push(seed);
        while (!frontier.empty()) {
            Idx v = frontier.front();
            frontier.pop();
            perm[static_cast<std::size_t>(v)] = next_label++;
            nbrs.clear();
            for (Idx c : matrix.rowCols(v)) {
                if (!visited[static_cast<std::size_t>(c)]) {
                    visited[static_cast<std::size_t>(c)] = 1;
                    nbrs.push_back(c);
                }
            }
            std::sort(nbrs.begin(), nbrs.end(), [&](Idx a, Idx b) {
                return degree[static_cast<std::size_t>(a)] <
                       degree[static_cast<std::size_t>(b)];
            });
            for (Idx c : nbrs)
                frontier.push(c);
        }
    }
    return perm;
}

std::vector<Idx>
makeReorder(ReorderKind kind, const CsrMatrix &matrix)
{
    switch (kind) {
      case ReorderKind::None:     return identityOrder(matrix.rows());
      case ReorderKind::Vanilla:  return vanillaReorder(matrix);
      case ReorderKind::Locality: return localityReorder(matrix);
    }
    sp_panic("makeReorder: bad kind");
    __builtin_unreachable();
}

StatusOr<CooMatrix>
applySymmetricPermutation(const CooMatrix &matrix,
                          const std::vector<Idx> &perm)
{
    if (matrix.rows() != matrix.cols())
        return invalidInput(
            "applySymmetricPermutation: matrix must be square, got "
            "%lld x %lld", static_cast<long long>(matrix.rows()),
            static_cast<long long>(matrix.cols()));
    if (static_cast<Idx>(perm.size()) != matrix.rows())
        return invalidInput(
            "applySymmetricPermutation: permutation length %zu does "
            "not match %lld rows", perm.size(),
            static_cast<long long>(matrix.rows()));
    if (!isPermutation(perm))
        return invalidInput(
            "applySymmetricPermutation: not a bijection on [0, %zu)",
            perm.size());
    // Canonicalize first, in a copy only when the input is not
    // already clean.  perm is a bijection, so every duplicate group
    // is the same under either order and the stable merge sums it in
    // the same insertion order: the result equals permuting the raw
    // triplets and canonicalizing after.
    std::optional<CooMatrix> canonical;
    if (!matrix.isClean()) {
        canonical = matrix;
        canonical->canonicalize();
    }
    const CooMatrix &src = canonical ? *canonical : matrix;
    const std::vector<Triplet> &in = src.entries();

    // Row start offsets of the canonical input and the inverse
    // permutation: new row nr is old row inv[nr], columns remapped.
    const auto n = static_cast<std::size_t>(src.rows());
    std::vector<std::size_t> start(n + 1, 0);
    for (const Triplet &t : in)
        ++start[static_cast<std::size_t>(t.row) + 1];
    for (std::size_t r = 0; r < n; ++r)
        start[r + 1] += start[r];
    std::vector<Idx> inv(n);
    for (std::size_t r = 0; r < n; ++r)
        inv[static_cast<std::size_t>(perm[r])] = static_cast<Idx>(r);

    CooMatrix out(src.rows(), src.cols());
    std::vector<Triplet> &dst = out.entries();
    dst.reserve(in.size());
    for (std::size_t nr = 0; nr < n; ++nr) {
        const auto old = static_cast<std::size_t>(inv[nr]);
        const auto row_begin = static_cast<std::ptrdiff_t>(dst.size());
        bool sorted = true;
        Idx prev = -1;
        for (std::size_t k = start[old]; k < start[old + 1]; ++k) {
            const Idx col = perm[static_cast<std::size_t>(in[k].col)];
            sorted &= col > prev;
            prev = col;
            dst.push_back({static_cast<Idx>(nr), col, in[k].val});
        }
        if (!sorted)
            std::sort(dst.begin() + row_begin, dst.end(),
                      [](const Triplet &a, const Triplet &b) {
                          return a.col < b.col;
                      });
    }
    return out;
}

bool
isPermutation(const std::vector<Idx> &perm)
{
    std::vector<char> seen(perm.size(), 0);
    for (Idx p : perm) {
        if (p < 0 || p >= static_cast<Idx>(perm.size()))
            return false;
        auto i = static_cast<std::size_t>(p);
        if (seen[i])
            return false;
        seen[i] = 1;
    }
    return true;
}

} // namespace sparsepipe
