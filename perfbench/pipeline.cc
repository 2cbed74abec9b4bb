/**
 * @file
 * The api::Session pipeline taken apart stage by stage, with a span
 * around each call into a module's public functions.  Each stage
 * does exactly what the Session does for that step (including the
 * copies its by-value signatures make), so an op run through these
 * stages reproduces the Session's SimStats bit for bit; the workloads
 * check that.
 */

#include <cstring>

#include "backend/backend.hh"
#include "baseline/models.hh"
#include "graph/analysis.hh"
#include "prep/blocked.hh"
#include "sparse/datasets.hh"
#include "workloads.hh"

using namespace sparsepipe;

namespace perfbench {

CooMatrix
generateStage(Tracer *t, const std::string &dataset, std::uint64_t seed)
{
    CooMatrix raw = [&] {
        Span span(t, "sparse.generate");
        return generateDataset(datasetSpec(dataset), seed);
    }();
    if (t)
        t->count("sparse.generate_nnz", static_cast<double>(raw.nnz()));
    return raw;
}

CooMatrix
reorderStage(Tracer *t, const CooMatrix &raw, ReorderKind kind)
{
    if (kind == ReorderKind::None)
        return raw;
    // api::reorderMatrix takes the raw matrix by value: the Session
    // pays this copy on every reordered-cache miss.
    const CooMatrix copy = raw;
    CsrMatrix csr = [&] {
        Span span(t, "prep.csr_build");
        return CsrMatrix::fromCoo(copy);
    }();
    std::vector<Idx> perm = [&] {
        Span span(t, std::string("prep.reorder.") + reorderKindName(kind));
        return makeReorder(kind, csr);
    }();
    Span span(t, "prep.permute");
    return applySymmetricPermutation(copy, perm).value();
}

api::PreparedCase
prepareStage(Tracer *t, const std::string &app, const CooMatrix &reordered)
{
    api::PreparedCase pc;
    {
        Span span(t, "apps.prepare." + app);
        pc.app = makeApp(app, reordered.rows());
        pc.csr = pc.app.prepare(reordered);
    }
    {
        Span span(t, "sparse.csc_twin");
        pc.csc = CscMatrix::fromCsr(pc.csr);
    }
    {
        Span span(t, "prep.blocked");
        pc.blocked_bytes_per_nz =
            buildBlockedLayout(pc.csr).value().bytesPerNonzero();
    }
    pc.nnz = pc.csr.nnz();
    return pc;
}

EngineRun
engineStage(Tracer *t, const api::RunRequest &req,
            const api::PreparedCase &pc)
{
    SparsepipeConfig cfg = req.sp;
    cfg.bytes_per_nz = req.blocked ? pc.blocked_bytes_per_nz : 12.0;
    if (req.lanes >= 0)
        cfg.lanes = req.lanes;
    if (req.band_threads >= 0)
        cfg.band_threads = req.band_threads;

    EngineRun out{[&] {
        Span span(t, "api.bind");
        return api::Session::bindWorkspace(pc);
    }(), {}};
    const std::string name = backend::backendName(req.backend);
    {
        Span span(t, "backend." + name);
        out.stats = backend::makeEngine(req.backend, cfg)
                        ->run(out.ws, req.iters > 0 ? req.iters
                                                    : pc.app.default_iters);
    }
    if (t) {
        const auto bytes = [](const auto &a) {
            return static_cast<double>(a.size() * sizeof(a[0]));
        };
        t->count("api.bind_bytes",
                 bytes(pc.csr.rowPtr()) + bytes(pc.csr.colIdx()) +
                     bytes(pc.csr.vals()) + bytes(pc.csc.colPtr()) +
                     bytes(pc.csc.rowIdx()) + bytes(pc.csc.vals()));
        t->count("backend." + name + "_cycles",
                 static_cast<double>(out.stats.cycles));
    }
    return out;
}

double
baselineStage(Tracer *t, const api::PreparedCase &pc,
              const SparsepipeConfig &sp, Idx iters)
{
    // The same five models bench/harness.cc charges a paper-figure
    // case, for the iterations the simulated run executed.
    Span span(t, "baseline.models");
    const Analysis an = analyzeProgram(pc.app.program);
    AccelConfig accel;
    accel.bandwidth_gb_s = sp.dram.bandwidth_gb_s;
    accel.pes = sp.pe_per_core;
    AccelConfig strict = accel;
    strict.fused_ewise = false;
    return idealAccelerator(an, pc.nnz, iters, accel).seconds +
           idealAccelerator(an, pc.nnz, iters, strict).seconds +
           oracleAccelerator(an, pc.nnz, iters, accel).seconds +
           cpuModel(an, pc.nnz, iters).seconds +
           gpuModel(an, pc.nnz, iters).seconds;
}

bool
sameOutputs(const Workspace &a, const Workspace &b)
{
    const auto same = [](const std::vector<Value> &x,
                         const std::vector<Value> &y) {
        return x.size() == y.size() &&
               (x.empty() || std::memcmp(x.data(), y.data(),
                                         x.size() * sizeof(Value)) == 0);
    };
    const Program &program = a.program();
    for (TensorId id = 0;
         id < static_cast<TensorId>(program.tensors().size()); ++id) {
        switch (program.tensor(id).kind) {
          case TensorKind::Vector:
            if (!same(a.vec(id), b.vec(id)))
                return false;
            break;
          case TensorKind::DenseMatrix:
            if (!same(a.den(id).data(), b.den(id).data()))
                return false;
            break;
          case TensorKind::Scalar: {
            const Value x = a.scalar(id), y = b.scalar(id);
            if (std::memcmp(&x, &y, sizeof(Value)) != 0)
                return false;
            break;
          }
          case TensorKind::SparseMatrix:
            break;
        }
    }
    return true;
}

} // namespace perfbench
