#include "csr.h"

#include <algorithm>
#include <type_traits>

#include "common/logging.h"

namespace diffuse {
namespace sp {

SparseContext::SparseContext(num::Context &arrays) : arrays_(arrays)
{
    ops_.spmv = arrays_.runtime().registry().registerTask(
        "spmv", [](const kir::GenSignature &sig) {
            diffuse_assert(sig.args.size() == 5,
                           "spmv wants (rowptr, colind, vals, x, y)");
            kir::KernelFunction fn;
            fn.numArgs = 5;
            fn.numScalars = sig.numScalars;
            fn.buffers = sig.argBuffers();
            kir::LoopNest nest;
            nest.kind = kir::NestKind::Csr;
            nest.domainBuf = 4;
            nest.csrRowptr = 0;
            nest.csrColind = 1;
            nest.csrVals = 2;
            nest.csrX = 3;
            nest.csrY = 4;
            fn.nests.push_back(std::move(nest));
            return fn;
        });
}

bool
SparseContext::simulated() const
{
    return const_cast<num::Context &>(arrays_).runtime().low().mode() ==
           rt::ExecutionMode::Simulated;
}

CsrMatrix
SparseContext::makeHandle(coord_t rows, coord_t cols, coord_t nnz,
                          bool idx32)
{
    DiffuseRuntime &rt = arrays_.runtime();
    auto impl = std::make_shared<CsrMatrix::Impl>();
    impl->rt = &rt;
    impl->rows = rows;
    impl->cols = cols;
    impl->nnz = nnz;
    impl->idx32 = idx32;
    impl->rowptr = rt.createStore(Point(rows + 1), DType::I64);
    impl->colind = rt.createStore(Point(std::max<coord_t>(nnz, 1)),
                                  idx32 ? DType::I32 : DType::I64);
    impl->vals =
        rt.createStore(Point(std::max<coord_t>(nnz, 1)), DType::F64);
    return CsrMatrix(std::move(impl));
}

void
SparseContext::registerImages(
    CsrMatrix::Impl &impl,
    const std::function<coord_t(coord_t)> &nnz_up_to,
    const std::function<std::pair<coord_t, coord_t>(coord_t, coord_t)>
        &col_range)
{
    DiffuseRuntime &rt = arrays_.runtime();
    int procs = arrays_.procs();
    coord_t rows = impl.rows;
    coord_t tile = (rows + procs - 1) / procs;

    rt::ImageData rowptr_img, nnz_img, gather_img;
    rowptr_img.absolute = false; // row pointers index relative rows
    for (int p = 0; p < procs; p++) {
        coord_t r0 = std::min(coord_t(p) * tile, rows);
        coord_t r1 = std::min(coord_t(p + 1) * tile, rows);
        rowptr_img.pieces.emplace_back(Point(r0), Point(r1 + 1));
        rowptr_img.volumes.push_back(r1 + 1 - r0);
        coord_t k0 = nnz_up_to(r0);
        coord_t k1 = nnz_up_to(r1);
        nnz_img.pieces.emplace_back(Point(k0), Point(k1));
        nnz_img.volumes.push_back(k1 - k0);
        auto [cmin, cmax_excl] = col_range(r0, r1);
        gather_img.pieces.emplace_back(Point(cmin), Point(cmax_excl));
        gather_img.volumes.push_back(
            std::max<coord_t>(cmax_excl - cmin, 0));
    }
    impl.rowptrImage = rt.registerImage(std::move(rowptr_img));
    impl.nnzImage = rt.registerImage(std::move(nnz_img));
    impl.gatherImage = rt.registerImage(std::move(gather_img));
}

CsrMatrix
SparseContext::finalizeAnalytic(const AnalyticCsr &shape, bool idx32)
{
    CsrMatrix m = makeHandle(shape.rows, shape.cols, shape.nnz, idx32);
    registerImages(*m.impl_, shape.nnzUpTo, shape.colRange);
    m.impl_->diag = arrays_.zeros(shape.rows);
    return m;
}

namespace {

/**
 * Appends CSR rows straight into a matrix's buffers. Index is the
 * column-index width, fixed for the whole pass; the diagonal buffer
 * starts zeroed and takes the value of each row's column == row
 * entry as it is written.
 */
template <typename Index>
struct RowWriter
{
    std::int64_t *rowptr;
    Index *colind;
    double *vals;
    double *diag;
    coord_t row = 0;
    std::int64_t k = 0;

    void
    put(coord_t col, double v)
    {
        colind[k] = Index(col);
        vals[k] = v;
        if (col == row)
            diag[row] = v;
        k++;
    }

    void endRow() { rowptr[++row] = k; }
};

} // namespace

template <typename Fill>
CsrMatrix
SparseContext::assemble(coord_t rows, coord_t cols, coord_t nnz,
                        bool idx32, const Fill &fill)
{
    rt::LowRuntime &low = arrays_.runtime().low();
    CsrMatrix m = makeHandle(rows, cols, nnz, idx32);
    CsrMatrix::Impl &impl = *m.impl_;
    // Diagonal (assembly-time matrix property, like Legate Sparse).
    impl.diag = arrays_.zeros(rows);

    std::int64_t *rowptr = low.dataI64(impl.rowptr);
    double *vals = low.dataF64(impl.vals);
    double *diag = low.dataF64(impl.diag.store());
    auto write = [&](auto *colind) {
        using Index = std::remove_pointer_t<decltype(colind)>;
        RowWriter<Index> w{rowptr, colind, vals, diag};
        rowptr[0] = 0;
        fill(w);
        diffuse_assert(w.row == rows && w.k == nnz,
                       "CSR assembly wrote %lld of %lld nonzeros",
                       (long long)w.k, (long long)nnz);

        // Image partitions: per-point row-pointer windows, nonzero
        // ranges and gathered-x bounding intervals, read off the
        // filled buffers like Legion dependent partitioning would.
        auto nnz_up_to = [rowptr](coord_t r) {
            return coord_t(rowptr[r]);
        };
        auto col_range = [rowptr, colind, cols](coord_t r0, coord_t r1) {
            coord_t cmin = cols, cmax = -1;
            for (std::int64_t k = rowptr[r0]; k < rowptr[r1]; k++) {
                coord_t c = colind[k];
                cmin = std::min(cmin, c);
                cmax = std::max(cmax, c);
            }
            if (cmax < 0)
                cmin = 0;
            return std::make_pair(cmin, cmax + 1);
        };
        registerImages(impl, nnz_up_to, col_range);
    };
    if (idx32)
        write(low.dataI32(impl.colind));
    else
        write(low.dataI64(impl.colind));

    low.markInitialized(impl.rowptr);
    low.markInitialized(impl.colind);
    low.markInitialized(impl.vals);
    low.markInitialized(impl.diag.store());
    return m;
}

CsrMatrix
SparseContext::poisson2d(coord_t nx, coord_t ny, bool idx32)
{
    if (simulated()) {
        // Closed-form structure of the 5-point operator: full rows
        // hold 5 nonzeros, minus one per missing north/south/west/
        // east neighbour.
        coord_t n = nx * ny;
        AnalyticCsr shape;
        shape.rows = shape.cols = n;
        auto nnz_up_to = [nx, n](coord_t r) {
            coord_t north_missing = std::min(r, nx);
            coord_t south_missing = std::max<coord_t>(0, r - (n - nx));
            coord_t west_missing = (r + nx - 1) / nx;  // rows j == 0
            coord_t east_missing = r / nx; // rows j == nx-1
            return 5 * r - north_missing - south_missing -
                   west_missing - east_missing;
        };
        shape.nnz = nnz_up_to(n);
        shape.nnzUpTo = nnz_up_to;
        shape.colRange = [nx, n](coord_t r0, coord_t r1) {
            coord_t lo = std::max<coord_t>(0, r0 - nx);
            coord_t hi = std::min<coord_t>(n, r1 + nx);
            return std::make_pair(lo, hi);
        };
        return finalizeAnalytic(shape, idx32);
    }
    coord_t n = nx * ny;
    coord_t nnz = n == 0 ? 0 : 5 * n - 2 * nx - 2 * ny;
    return assemble(n, n, nnz, idx32, [nx, ny](auto &w) {
        for (coord_t i = 0; i < ny; i++) {
            for (coord_t j = 0; j < nx; j++) {
                coord_t row = i * nx + j;
                if (i > 0)
                    w.put(row - nx, -1.0);
                if (j > 0)
                    w.put(row - 1, -1.0);
                w.put(row, 4.0);
                if (j + 1 < nx)
                    w.put(row + 1, -1.0);
                if (i + 1 < ny)
                    w.put(row + nx, -1.0);
                w.endRow();
            }
        }
    });
}

CsrMatrix
SparseContext::tridiagonal(coord_t n, double diag, double off,
                           bool idx32)
{
    if (simulated()) {
        AnalyticCsr shape;
        shape.rows = shape.cols = n;
        shape.nnz = 3 * n - 2;
        shape.nnzUpTo = [n](coord_t r) {
            if (r == 0)
                return coord_t(0);
            return 3 * r - 1 - (r == n ? 1 : 0);
        };
        shape.colRange = [n](coord_t r0, coord_t r1) {
            return std::make_pair(std::max<coord_t>(0, r0 - 1),
                                  std::min<coord_t>(n, r1 + 1));
        };
        return finalizeAnalytic(shape, idx32);
    }
    coord_t nnz = n == 0 ? 0 : 3 * n - 2;
    return assemble(n, n, nnz, idx32, [n, diag, off](auto &w) {
        for (coord_t i = 0; i < n; i++) {
            if (i > 0)
                w.put(i - 1, off);
            w.put(i, diag);
            if (i + 1 < n)
                w.put(i + 1, off);
            w.endRow();
        }
    });
}

CsrMatrix
SparseContext::injection1d(coord_t n_fine, bool idx32)
{
    if (simulated()) {
        AnalyticCsr shape;
        shape.rows = n_fine / 2;
        shape.cols = n_fine;
        shape.nnz = n_fine / 2;
        shape.nnzUpTo = [](coord_t r) { return r; };
        shape.colRange = [n_fine](coord_t r0, coord_t r1) {
            return std::make_pair(2 * r0,
                                  std::min<coord_t>(n_fine, 2 * r1));
        };
        return finalizeAnalytic(shape, idx32);
    }
    coord_t n_coarse = n_fine / 2;
    auto fill = [n_coarse](auto &w) {
        for (coord_t i = 0; i < n_coarse; i++) {
            w.put(2 * i, 1.0);
            w.endRow();
        }
    };
    return assemble(n_coarse, n_fine, n_coarse, idx32, fill);
}

CsrMatrix
SparseContext::prolongation1d(coord_t n_fine, bool idx32)
{
    coord_t n_coarse = n_fine / 2;
    if (simulated()) {
        AnalyticCsr shape;
        shape.rows = n_fine;
        shape.cols = n_coarse;
        // Even rows: 1 entry; odd rows: 2, except the last odd row
        // (2*n_coarse - 1), clamped to 1 once the prefix includes it.
        auto nnz_up_to = [n_coarse](coord_t r) {
            coord_t even = (r + 1) / 2;
            coord_t odd = r / 2;
            coord_t clamped = (r >= 2 * n_coarse && n_coarse > 0) ? 1 : 0;
            return even + 2 * odd - clamped;
        };
        shape.nnz = nnz_up_to(n_fine);
        shape.nnzUpTo = nnz_up_to;
        shape.colRange = [n_coarse](coord_t r0, coord_t r1) {
            return std::make_pair(
                r0 / 2, std::min<coord_t>(n_coarse, r1 / 2 + 2));
        };
        return finalizeAnalytic(shape, idx32);
    }
    // Even rows hold 1 entry, odd rows 2, except the last odd row
    // (2*n_coarse - 1), whose right neighbour falls off the grid.
    coord_t nnz = n_fine + n_fine / 2 - (n_coarse > 0 ? 1 : 0);
    auto fill = [n_fine, n_coarse](auto &w) {
        for (coord_t i = 0; i < n_fine; i++) {
            w.put(i / 2, i % 2 == 0 ? 1.0 : 0.5);
            if (i % 2 == 1 && i / 2 + 1 < n_coarse)
                w.put(i / 2 + 1, 0.5);
            w.endRow();
        }
    };
    return assemble(n_fine, n_coarse, nnz, idx32, fill);
}

num::NDArray
SparseContext::spmv(const CsrMatrix &a, const num::NDArray &x)
{
    diffuse_assert(a.valid(), "spmv on invalid matrix");
    diffuse_assert(x.size() == a.cols(), "spmv dimension mismatch");
    DiffuseRuntime &rt = arrays_.runtime();
    num::NDArray y = arrays_.zeros(a.rows());
    int procs = arrays_.procs();

    IndexTask task;
    task.type = ops_.spmv;
    task.name = "spmv";
    task.launchDomain =
        Rect(Point(coord_t(0)), Point(coord_t(procs)));
    const auto &impl = *a.impl_;
    task.args.emplace_back(
        impl.rowptr, PartitionDesc::imagePartition(impl.rowptrImage),
        Privilege::Read);
    task.args.emplace_back(
        impl.colind, PartitionDesc::imagePartition(impl.nnzImage),
        Privilege::Read);
    task.args.emplace_back(
        impl.vals, PartitionDesc::imagePartition(impl.nnzImage),
        Privilege::Read);
    task.args.emplace_back(
        x.store(), PartitionDesc::imagePartition(impl.gatherImage),
        Privilege::Read);
    task.args.emplace_back(y.store(), y.partition(procs),
                           Privilege::Write);
    rt.submit(std::move(task));
    return y;
}

} // namespace sp
} // namespace diffuse
