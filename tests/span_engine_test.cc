/**
 * @file
 * Engine equivalence matrix.
 *
 * Every "pure implementation strategy" of the simulator must be
 * bit-identical to the reference element path it replaces:
 *
 *  - the pass engine's compressed bucket-span scan vs the dense
 *    (step, band) grid scan it replaced, pinned by
 *    tests/golden/span_engine_stats.golden;
 *  - SparsepipeConfig::lanes — the packed-SIMD semiring kernels at
 *    every lane width, including tail-odd widths;
 *  - SparsepipeConfig::band_threads — stepping independent column
 *    bands of one functional pass on a worker pool.
 *
 * The matrix crosses application archetypes x matrix shapes x lane
 * widths {1, 4, 8, 3} x band threads {1, 2, jobs}, and a second
 * tier crosses all five semirings through a synthetic
 * cross-iteration program whose operand values include the
 * annihilator, signed zeros, infinities, and NaN.  Each cell is
 * compared against the element path (lanes = 1, threads = 1) on
 * every exported metric (recordSimMetrics + the raw bandwidth
 * timeline) and on the raw result-tensor bits.
 *
 * Value comparison treats NaN as one value class: when both scalar
 * operands of a semiring add are NaN, IEEE 754 does not pin which
 * payload survives, so the surviving bits are not reproducible even
 * between two scalar builds.  Everything else — signed zeros,
 * infinities, subnormals, the last mantissa bit — must match
 * exactly, and SimStats / metrics are NaN-free and compare exactly.
 *
 * Filter tips (see TESTING.md):
 *   span_engine_test --gtest_filter='Lanes/AppCell.*pr*'
 *   span_engine_test --gtest_filter='Semirings/SemiringCell.*MinAdd*'
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "api/session.hh"
#include "core/sparsepipe_sim.hh"
#include "lang/builder.hh"
#include "obs/metrics.hh"
#include "runner/thread_pool.hh"
#include "semiring/packed.hh"
#include "sparse/generate.hh"
#include "util/random.hh"

namespace sparsepipe {
namespace {

// ---- value comparison (NaN as one class) --------------------------

bool
sameBits(Value a, Value b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return std::memcmp(&a, &b, sizeof(Value)) == 0;
}

::testing::AssertionResult
sameVector(const DenseVector &got, const DenseVector &want)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
               << "size " << got.size() << " vs " << want.size();
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (!sameBits(got[i], want[i]))
            return ::testing::AssertionFailure()
                   << "element " << i << ": got " << got[i]
                   << " want " << want[i];
    }
    return ::testing::AssertionSuccess();
}

// ---- the matrix axes ----------------------------------------------

/** The six matrix shapes the generators can produce. */
CooMatrix
shapeMatrix(int shape, Idx n, Idx nnz)
{
    Rng rng(0x59a7 + static_cast<std::uint64_t>(shape));
    switch (shape) {
      case 0: return generateUniform(n, nnz, rng);
      case 1: return generateRmat(n, nnz, rng);
      case 2: return generateBanded(n, 12, 6.0, rng);
      case 3: return generateClustered(n, nnz, 8, 0.85, rng);
      case 4: return generateLowerSkew(n, nnz, 0.8, rng);
      default: return generatePoisson2D(14);
    }
}

const char *const kShapes[] = {"uniform",   "rmat", "banded",
                               "clustered", "skew", "poisson"};

/** Five archetypes: mul-add PR, min-plus SSSP, or-and BFS,
 *  SpMM GCN, and the stream-scheduled solver CG. */
const char *const kApps[] = {"pr", "sssp", "bfs", "gcn", "cg"};

/** Lane widths under test: element, portable, AVX2, tail-odd. */
const Idx kLaneWidths[] = {1, 4, 8, 3};

/** Band-thread counts: serial, two, and the machine's job count. */
std::vector<int>
bandThreadCounts()
{
    std::vector<int> counts = {1, 2};
    const int jobs =
        std::max(3, runner::ThreadPool::defaultJobs());
    counts.push_back(jobs);
    return counts;
}

// ---- one simulation -> (metrics, result bits) ---------------------

struct CellResult
{
    std::map<std::string, double> metrics;
    DenseVector result; ///< result tensor flattened to raw values
};

CellResult
runCell(const api::PreparedCase &pc, Idx iters, Idx lanes,
        int band_threads)
{
    Workspace ws(pc.app.program);
    ws.bindMatrix(pc.app.matrix, pc.csr, pc.csc);
    pc.app.init(ws);

    SparsepipeConfig cfg;
    cfg.lanes = lanes;
    cfg.band_threads = band_threads;
    SparsepipeSim sim(cfg);
    const SimStats stats = sim.run(ws, iters);

    CellResult cell;
    obs::MetricsRegistry reg;
    recordSimMetrics(reg, "sim", stats);
    // The timeline is exported in reduced form; pin the raw samples
    // too so resolution-level drift cannot hide.
    for (std::size_t i = 0; i < stats.bw_timeline.size(); ++i)
        reg.set("raw_timeline." + std::to_string(i),
                stats.bw_timeline[i]);
    cell.metrics = reg.entries();

    const TensorInfo &info = pc.app.program.tensor(pc.app.result);
    if (info.kind == TensorKind::Vector) {
        cell.result = ws.vec(pc.app.result);
    } else if (info.kind == TensorKind::DenseMatrix) {
        cell.result = ws.den(pc.app.result).data();
    }
    return cell;
}

void
expectCellsEqual(const CellResult &got, const CellResult &want,
                 const std::string &label)
{
    EXPECT_EQ(got.metrics, want.metrics)
        << "metric divergence for " << label;
    EXPECT_TRUE(sameVector(got.result, want.result))
        << "result-tensor divergence for " << label;
}

// ---- tier 1: application archetypes x shapes ----------------------

class AppCell
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(AppCell, EveryLaneThreadCellMatchesElementPath)
{
    const char *app = kApps[std::get<0>(GetParam())];
    const int shape = std::get<1>(GetParam());
    const api::PreparedCase pc =
        api::prepareCase(app, shapeMatrix(shape, 192, 1536));
    const Idx iters = 6;

    const CellResult baseline = runCell(pc, iters, 1, 1);
    for (Idx lanes : kLaneWidths) {
        for (int threads : bandThreadCounts()) {
            if (lanes == 1 && threads == 1)
                continue;
            const std::string label =
                std::string(app) + "/" + kShapes[shape] +
                " lanes=" + std::to_string(lanes) +
                " threads=" + std::to_string(threads);
            expectCellsEqual(runCell(pc, iters, lanes, threads),
                             baseline, label);
        }
    }
}

std::string
appCellName(const ::testing::TestParamInfo<std::tuple<int, int>> &i)
{
    return std::string(kApps[std::get<0>(i.param)]) + "_" +
           kShapes[std::get<1>(i.param)];
}

INSTANTIATE_TEST_SUITE_P(Lanes, AppCell,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 6)),
                         appCellName);

TEST(GcnMm, LanePathIsBitwiseEqualToElementPath)
{
    // gcn's dense feature transform (OpKind::Mm) runs on the packed
    // MulAdd row kernel when lanes are engaged; it must reproduce the
    // reference executor's result bit for bit.
    for (const int shape : {0, 1, 2}) {
        SCOPED_TRACE(kShapes[shape]);
        const api::PreparedCase pc =
            api::prepareCase("gcn", shapeMatrix(shape, 192, 1536));
        bool has_mm = false;
        for (const OpNode &op : pc.app.program.ops())
            has_mm = has_mm || op.kind == OpKind::Mm;
        ASSERT_TRUE(has_mm);

        const CellResult element = runCell(pc, 4, 1, 1);
        const CellResult lanes = runCell(pc, 4, 0, 1);
        ASSERT_EQ(lanes.result.size(), element.result.size());
        ASSERT_FALSE(element.result.empty());
        EXPECT_EQ(std::memcmp(lanes.result.data(), element.result.data(),
                              element.result.size() * sizeof(Value)),
                  0);
        EXPECT_EQ(lanes.metrics, element.metrics);
    }
}

// ---- tier 2: all five semirings through a synthetic program -------

const SemiringKind kKinds[] = {
    SemiringKind::MulAdd, SemiringKind::AndOr, SemiringKind::MinAdd,
    SemiringKind::ArilAdd, SemiringKind::MaxMul};

const char *const kKindNames[] = {"MulAdd", "AndOr", "MinAdd",
                                  "ArilAdd", "MaxMul"};

/**
 * A PageRank-shaped cross-iteration program with the semiring
 * swapped: vxm producer -> e-wise chain (slot, workspace-vector and
 * scalar-broadcast operands) -> carried back into the next
 * iteration's vxm.  The init vector seeds the semiring's
 * annihilator, signed zeros, an infinity, and one NaN so the
 * annihilates skip and the FP-special handling of every kernel are
 * on the execution path.
 */
api::PreparedCase
makeSemiringProbe(SemiringKind kind, int shape)
{
    // Build the operand first: some shapes (poisson) fix their own
    // dimension, and the program must match it.
    CsrMatrix csr = CsrMatrix::fromCoo(shapeMatrix(shape, 160, 1280));
    const Idx n = csr.rows();
    const Semiring sr(kind);

    ProgramBuilder b("probe");
    TensorId A = b.matrix("A", n, n);
    TensorId x = b.vector("x", n);
    TensorId y = b.vector("y", n);
    TensorId z = b.vector("z", n);
    TensorId w = b.vector("w", n);
    TensorId diff = b.vector("diff", n);
    TensorId c = b.constant("c", 0.5);
    TensorId res = b.scalar("res");

    b.vxm(y, x, A, sr, "producer");
    b.eWise(z, BinaryOp::Mul, y, c);
    b.eWise(w, BinaryOp::Max, z, x);
    b.eWise(diff, BinaryOp::AbsDiff, w, x);
    b.fold(res, BinaryOp::Add, diff, "residual");
    b.carry(x, w);
    b.converge(res, 1e-300);

    api::PreparedCase pc;
    pc.app.program = b.build();
    pc.app.matrix = A;
    pc.app.result = x;
    const Value annihilator =
        kind == SemiringKind::MinAdd
            ? std::numeric_limits<Value>::infinity()
            : (kind == SemiringKind::MaxMul
                   ? -std::numeric_limits<Value>::infinity()
                   : 0.0);
    pc.app.init = [n, x, annihilator](Workspace &ws) {
        DenseVector &v = ws.vec(x);
        Rng rng(0xf00d);
        for (Idx i = 0; i < n; ++i) {
            const auto u = static_cast<std::size_t>(i);
            if (i % 13 == 0)
                v[u] = annihilator;
            else if (i % 13 == 1)
                v[u] = -0.0;
            else if (i % 13 == 2)
                v[u] = std::numeric_limits<Value>::infinity();
            else if (i == 7)
                v[u] = std::numeric_limits<Value>::quiet_NaN();
            else
                v[u] = rng.nextRange(-1.0, 1.0);
        }
    };
    pc.app.default_iters = 5;

    pc.csc = CscMatrix::fromCsr(csr);
    pc.csr = std::move(csr);
    pc.nnz = pc.csr.nnz();
    return pc;
}

class SemiringCell
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(SemiringCell, EveryLaneThreadCellMatchesElementPath)
{
    const int kind = std::get<0>(GetParam());
    const int shape = std::get<1>(GetParam());
    const api::PreparedCase pc =
        makeSemiringProbe(kKinds[kind], shape);
    const Idx iters = 5;

    const CellResult baseline = runCell(pc, iters, 1, 1);
    for (Idx lanes : kLaneWidths) {
        for (int threads : bandThreadCounts()) {
            if (lanes == 1 && threads == 1)
                continue;
            const std::string label =
                std::string(kKindNames[kind]) + "/" +
                kShapes[shape] +
                " lanes=" + std::to_string(lanes) +
                " threads=" + std::to_string(threads);
            expectCellsEqual(runCell(pc, iters, lanes, threads),
                             baseline, label);
        }
    }
}

std::string
semiringCellName(
    const ::testing::TestParamInfo<std::tuple<int, int>> &i)
{
    return std::string(kKindNames[std::get<0>(i.param)]) + "_" +
           kShapes[std::get<1>(i.param)];
}

INSTANTIATE_TEST_SUITE_P(Semirings, SemiringCell,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 6)),
                         semiringCellName);

// ---- span engine golden (the element-scan oracle, recorded) ------

/** metrics-v1 entries plus the raw bandwidth timeline of one
 *  default-config Session run. */
std::map<std::string, double>
runSpanOnce(const std::string &app, const api::PreparedCase &pc)
{
    api::Session session;
    api::RunRequest req;
    req.app = app;
    req.dataset = "span-eq";
    req.iters = 6;
    const api::RunReport report = session.run(req, pc).value();
    obs::MetricsRegistry reg;
    recordSimMetrics(reg, "sim", report.stats);
    for (std::size_t i = 0; i < report.stats.bw_timeline.size(); ++i)
        reg.set("raw_timeline." + std::to_string(i),
                report.stats.bw_timeline[i]);
    return reg.entries();
}

/** @return golden "app shape" -> metrics, read once. */
const std::map<std::string, std::map<std::string, double>> &
spanGolden()
{
    static const auto table = [] {
        std::map<std::string, std::map<std::string, double>> t;
        std::ifstream in(SPARSEPIPE_SPAN_ENGINE_GOLDEN);
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream fields(line);
            std::string app, shape, key, value;
            if (fields >> app >> shape >> key >> value)
                t[app + " " + shape][key] =
                    std::strtod(value.c_str(), nullptr);
        }
        return t;
    }();
    return table;
}

/**
 * The pass engine walks compressed bucket spans; the dense
 * (step, band) element scan it replaced survives as this golden,
 * recorded from both engines (which agreed on every entry) and
 * compared at rtol 0.  Regenerate after an intended model change:
 *   SPARSEPIPE_PRINT_SPAN_GOLDEN=1 ./build/tests/span_engine_test \
 *       --gtest_filter='SpanEngine.*' \
 *       | sed -n 's/^golden: //p' > tests/golden/span_engine_stats.golden
 */
TEST(SpanEngine, MatchesElementScanAcrossAppsAndShapes)
{
    const bool print = std::getenv("SPARSEPIPE_PRINT_SPAN_GOLDEN");
    for (const char *app : kApps) {
        for (int shape = 0; shape < 6; ++shape) {
            const api::PreparedCase pc = api::prepareCase(
                app, shapeMatrix(shape, 192, 1536));
            const std::map<std::string, double> got =
                runSpanOnce(app, pc);
            const std::string cell =
                std::string(app) + " " + kShapes[shape];
            if (print) {
                for (const auto &[key, value] : got)
                    std::printf("golden: %s %s %.17g\n", cell.c_str(),
                                key.c_str(), value);
                continue;
            }
            const auto it = spanGolden().find(cell);
            ASSERT_NE(it, spanGolden().end())
                << cell << " missing from "
                << SPARSEPIPE_SPAN_ENGINE_GOLDEN;
            EXPECT_EQ(got, it->second)
                << "span engine diverged from the golden for " << cell;
        }
    }
}

} // anonymous namespace
} // namespace sparsepipe
