/**
 * @file
 * Dataset-scale golden for the preprocessing path.  For each Table I
 * stand-in at kDefaultSeed it hashes (FNV-1a, 64-bit) every
 * intermediate the Session builds: the raw COO, the vanilla and
 * locality permutations, the vanilla-reordered COO, and each app's
 * prepared CSR and blocked bytes per non-zero.  Any change to a
 * generator, reorder, permute or prepare routine that moves a single
 * output bit fails here, with the stage named.
 *
 * Regenerate after an intended output change with:
 *   SPARSEPIPE_PRINT_PREP_HASHES=1 ./build/tests/prep_hashes_test \
 *       | sed -n 's/^golden: //p' > tests/golden/prep_hashes.golden
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "api/session.hh"
#include "prep/reorder.hh"
#include "sparse/datasets.hh"

namespace sparsepipe {
namespace {

/** Incremental 64-bit FNV-1a over the raw bytes of fields. */
class Fnv1a
{
  public:
    template <typename T>
    void add(const T &x)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &x, sizeof(T));
        for (unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    void addAll(const std::vector<T> &xs)
    {
        add(static_cast<std::uint64_t>(xs.size()));
        for (const T &x : xs)
            add(x);
    }

    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
hashCoo(const CooMatrix &m)
{
    Fnv1a h;
    h.add(m.rows());
    h.add(m.cols());
    h.add(static_cast<std::uint64_t>(m.entries().size()));
    for (const Triplet &t : m.entries()) {
        h.add(t.row);
        h.add(t.col);
        h.add(t.val);
    }
    return h.hex();
}

std::string
hashPerm(const std::vector<Idx> &perm)
{
    Fnv1a h;
    h.addAll(perm);
    return h.hex();
}

std::string
hashCsr(const CsrMatrix &m)
{
    Fnv1a h;
    h.add(m.rows());
    h.add(m.cols());
    h.addAll(m.rowPtr());
    h.addAll(m.colIdx());
    h.addAll(m.vals());
    return h.hex();
}

std::string
hashDouble(double x)
{
    Fnv1a h;
    h.add(x);
    return h.hex();
}

const char *const kApps[] = {"pr", "bfs", "sssp", "kcore", "gcn", "cg"};

/** @return "item -> hash" for one dataset, in golden-file order. */
std::vector<std::pair<std::string, std::string>>
datasetHashes(const std::string &dataset)
{
    std::vector<std::pair<std::string, std::string>> out;
    const CooMatrix raw =
        generateDataset(datasetSpec(dataset), api::kDefaultSeed);
    out.emplace_back("raw", hashCoo(raw));

    const CsrMatrix csr = CsrMatrix::fromCoo(raw);
    const std::vector<Idx> vanilla = vanillaReorder(csr);
    out.emplace_back("perm.vanilla", hashPerm(vanilla));
    out.emplace_back("perm.locality", hashPerm(localityReorder(csr)));

    const CooMatrix reordered =
        api::reorderMatrix(raw, ReorderKind::Vanilla);
    out.emplace_back("reordered.vanilla", hashCoo(reordered));
    EXPECT_EQ(hashCoo(applySymmetricPermutation(raw, vanilla).value()),
              hashCoo(reordered));

    for (const char *app : kApps) {
        const api::PreparedCase pc = api::prepareCase(app, reordered);
        out.emplace_back(std::string("prepared.") + app,
                         hashCsr(pc.csr));
        out.emplace_back(std::string("blocked.") + app,
                         hashDouble(pc.blocked_bytes_per_nz));
    }
    return out;
}

/** @return golden "dataset item" -> hash, read once. */
const std::map<std::string, std::string> &
golden()
{
    static const std::map<std::string, std::string> table = [] {
        std::map<std::string, std::string> t;
        std::ifstream in(SPARSEPIPE_PREP_HASHES_GOLDEN);
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream fields(line);
            std::string dataset, item, hash;
            if (fields >> dataset >> item >> hash)
                t[dataset + " " + item] = hash;
        }
        return t;
    }();
    return table;
}

class PrepHashes : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PrepHashes, MatchGolden)
{
    const std::string &dataset = GetParam();
    const bool print = std::getenv("SPARSEPIPE_PRINT_PREP_HASHES");
    for (const auto &[item, hash] : datasetHashes(dataset)) {
        if (print) {
            std::printf("golden: %s %s %s\n", dataset.c_str(),
                        item.c_str(), hash.c_str());
            continue;
        }
        const auto it = golden().find(dataset + " " + item);
        ASSERT_NE(it, golden().end())
            << dataset << " " << item << " missing from "
            << SPARSEPIPE_PREP_HASHES_GOLDEN;
        EXPECT_EQ(hash, it->second) << dataset << " " << item;
    }
}

std::vector<std::string>
datasetNames()
{
    std::vector<std::string> names;
    for (const DatasetSpec &spec : datasetSpecs())
        names.push_back(spec.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    TableI, PrepHashes, ::testing::ValuesIn(datasetNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace sparsepipe
