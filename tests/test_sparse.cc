/**
 * @file
 * Unit tests for sparse-mini: CSR assembly, SpMV correctness across
 * GPU counts and fusion settings, and the fusion-boundary behaviour
 * SpMV's image partitions induce.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "sparse/csr.h"

namespace diffuse {
namespace {

DiffuseOptions
opts(bool fuse)
{
    DiffuseOptions o;
    o.fusionEnabled = fuse;
    return o;
}

std::vector<double>
referencePoissonSpmv(coord_t nx, coord_t ny,
                     const std::vector<double> &x)
{
    std::vector<double> y(std::size_t(nx * ny), 0.0);
    for (coord_t i = 0; i < ny; i++) {
        for (coord_t j = 0; j < nx; j++) {
            coord_t row = i * nx + j;
            double sum = 4.0 * x[std::size_t(row)];
            if (i > 0)
                sum -= x[std::size_t(row - nx)];
            if (j > 0)
                sum -= x[std::size_t(row - 1)];
            if (j + 1 < nx)
                sum -= x[std::size_t(row + 1)];
            if (i + 1 < ny)
                sum -= x[std::size_t(row + nx)];
            y[std::size_t(row)] = sum;
        }
    }
    return y;
}

class SpmvTest : public ::testing::TestWithParam<std::tuple<int, bool>>
{};

TEST_P(SpmvTest, PoissonMatchesReference)
{
    auto [gpus, idx32] = GetParam();
    DiffuseRuntime rt(rt::MachineConfig::withGpus(gpus), opts(true));
    num::Context ctx(rt);
    sp::SparseContext sctx(ctx);
    const coord_t nx = 12, ny = 9;
    sp::CsrMatrix a = sctx.poisson2d(nx, ny, idx32);
    EXPECT_EQ(a.rows(), nx * ny);
    num::NDArray x = ctx.random(nx * ny, 77);
    num::NDArray y = sctx.spmv(a, x);
    auto xv = ctx.toHost(x);
    auto yv = ctx.toHost(y);
    auto ref = referencePoissonSpmv(nx, ny, xv);
    for (std::size_t i = 0; i < ref.size(); i++)
        EXPECT_NEAR(yv[i], ref[i], 1e-12) << "row " << i;
}

INSTANTIATE_TEST_SUITE_P(
    GpuCountsAndIndexWidths, SpmvTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(true, false)));

TEST(Sparse, TridiagonalSpmv)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), opts(true));
    num::Context ctx(rt);
    sp::SparseContext sctx(ctx);
    const coord_t n = 64;
    sp::CsrMatrix a = sctx.tridiagonal(n, 2.0, -1.0);
    num::NDArray x = ctx.zeros(n, 1.0);
    num::NDArray y = sctx.spmv(a, x);
    auto yv = ctx.toHost(y);
    EXPECT_NEAR(yv[0], 1.0, 1e-12);
    for (coord_t i = 1; i + 1 < n; i++)
        EXPECT_NEAR(yv[std::size_t(i)], 0.0, 1e-12);
    EXPECT_NEAR(yv[std::size_t(n - 1)], 1.0, 1e-12);
}

TEST(Sparse, DiagonalExtraction)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(2), opts(true));
    num::Context ctx(rt);
    sp::SparseContext sctx(ctx);
    sp::CsrMatrix a = sctx.poisson2d(6, 6);
    auto d = ctx.toHost(a.diagonal());
    for (double v : d)
        EXPECT_DOUBLE_EQ(v, 4.0);
}

TEST(Sparse, InjectionAndProlongation)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(2), opts(true));
    num::Context ctx(rt);
    sp::SparseContext sctx(ctx);
    const coord_t n = 32;
    sp::CsrMatrix r = sctx.injection1d(n);
    EXPECT_EQ(r.rows(), n / 2);
    num::NDArray fine = ctx.random(n, 88);
    num::NDArray coarse = sctx.spmv(r, fine);
    auto fv = ctx.toHost(fine);
    auto cv = ctx.toHost(coarse);
    for (coord_t i = 0; i < n / 2; i++)
        EXPECT_DOUBLE_EQ(cv[std::size_t(i)], fv[std::size_t(2 * i)]);

    sp::CsrMatrix p = sctx.prolongation1d(n);
    num::NDArray up = sctx.spmv(p, coarse);
    auto uv = ctx.toHost(up);
    EXPECT_DOUBLE_EQ(uv[0], cv[0]);
    EXPECT_DOUBLE_EQ(uv[2], cv[1]);
    EXPECT_DOUBLE_EQ(uv[1], 0.5 * (cv[0] + cv[1]));
}

/**
 * Reference CSR builder, independent of the library's writer: rows
 * appended with push_back into int64 vectors, the diagonal found by
 * scanning each row and the images computed over the whole assembly.
 */
struct RefCsr
{
    coord_t rows = 0, cols = 0;
    std::vector<std::int64_t> rowptr{0};
    std::vector<std::int64_t> colind;
    std::vector<double> vals;

    void
    put(coord_t c, double v)
    {
        colind.push_back(c);
        vals.push_back(v);
    }
    void endRow() { rowptr.push_back(std::int64_t(colind.size())); }

    std::vector<double>
    diagonal() const
    {
        std::vector<double> d(std::size_t(rows), 0.0);
        for (coord_t i = 0; i < rows; i++) {
            for (std::int64_t k = rowptr[std::size_t(i)];
                 k < rowptr[std::size_t(i + 1)]; k++) {
                if (colind[std::size_t(k)] == i)
                    d[std::size_t(i)] = vals[std::size_t(k)];
            }
        }
        return d;
    }

    /** Row-pointer, nonzero and gather images over `procs` tiles. */
    std::vector<rt::ImageData>
    images(int procs) const
    {
        std::vector<rt::ImageData> img(3);
        img[0].absolute = false;
        coord_t tile = (rows + procs - 1) / procs;
        for (int p = 0; p < procs; p++) {
            coord_t r0 = std::min(coord_t(p) * tile, rows);
            coord_t r1 = std::min(coord_t(p + 1) * tile, rows);
            img[0].pieces.emplace_back(Point(r0), Point(r1 + 1));
            img[0].volumes.push_back(r1 + 1 - r0);
            coord_t k0 = rowptr[std::size_t(r0)];
            coord_t k1 = rowptr[std::size_t(r1)];
            img[1].pieces.emplace_back(Point(k0), Point(k1));
            img[1].volumes.push_back(k1 - k0);
            coord_t cmin = cols, cmax = -1;
            for (coord_t k = k0; k < k1; k++) {
                cmin = std::min<coord_t>(cmin, colind[std::size_t(k)]);
                cmax = std::max<coord_t>(cmax, colind[std::size_t(k)]);
            }
            if (cmax < 0)
                cmin = 0;
            img[2].pieces.emplace_back(Point(cmin), Point(cmax + 1));
            img[2].volumes.push_back(
                std::max<coord_t>(cmax + 1 - cmin, 0));
        }
        return img;
    }
};

RefCsr
refPoisson(coord_t nx, coord_t ny)
{
    RefCsr a;
    a.rows = a.cols = nx * ny;
    for (coord_t i = 0; i < ny; i++) {
        for (coord_t j = 0; j < nx; j++) {
            coord_t row = i * nx + j;
            if (i > 0)
                a.put(row - nx, -1.0);
            if (j > 0)
                a.put(row - 1, -1.0);
            a.put(row, 4.0);
            if (j + 1 < nx)
                a.put(row + 1, -1.0);
            if (i + 1 < ny)
                a.put(row + nx, -1.0);
            a.endRow();
        }
    }
    return a;
}

RefCsr
refTridiagonal(coord_t n, double diag, double off)
{
    RefCsr a;
    a.rows = a.cols = n;
    for (coord_t i = 0; i < n; i++) {
        if (i > 0)
            a.put(i - 1, off);
        a.put(i, diag);
        if (i + 1 < n)
            a.put(i + 1, off);
        a.endRow();
    }
    return a;
}

RefCsr
refInjection(coord_t n_fine)
{
    RefCsr a;
    a.rows = n_fine / 2;
    a.cols = n_fine;
    for (coord_t i = 0; i < a.rows; i++) {
        a.put(2 * i, 1.0);
        a.endRow();
    }
    return a;
}

RefCsr
refProlongation(coord_t n_fine)
{
    coord_t n_coarse = n_fine / 2;
    RefCsr a;
    a.rows = n_fine;
    a.cols = n_coarse;
    for (coord_t i = 0; i < n_fine; i++) {
        if (i % 2 == 0) {
            a.put(i / 2, 1.0);
        } else {
            a.put(i / 2, 0.5);
            if (i / 2 + 1 < n_coarse)
                a.put(i / 2 + 1, 0.5);
        }
        a.endRow();
    }
    return a;
}

template <typename T>
bool
bytesEqual(const T *got, const std::vector<T> &want)
{
    return want.empty() ||
           std::memcmp(got, want.data(), want.size() * sizeof(T)) == 0;
}

void
expectSameImage(const rt::ImageData &got, const rt::ImageData &want,
                const char *which)
{
    EXPECT_EQ(got.absolute, want.absolute) << which;
    EXPECT_EQ(got.volumes, want.volumes) << which;
    EXPECT_TRUE(got.pieces == want.pieces) << which;
}

/** Stores, diagonal and images of `m` byte-equal to the reference. */
void
expectMatchesReference(DiffuseRuntime &rt, num::Context &ctx,
                       bool idx32, const sp::CsrMatrix &m,
                       const RefCsr &ref)
{
    rt::LowRuntime &low = rt.low();
    ASSERT_EQ(m.rows(), ref.rows);
    ASSERT_EQ(m.cols(), ref.cols);
    ASSERT_EQ(m.nnz(), coord_t(ref.colind.size()));
    EXPECT_TRUE(bytesEqual(low.dataI64(m.rowptrStore()), ref.rowptr));
    if (idx32) {
        std::vector<std::int32_t> narrow(ref.colind.begin(),
                                         ref.colind.end());
        EXPECT_TRUE(bytesEqual(low.dataI32(m.colindStore()), narrow));
    } else {
        EXPECT_TRUE(bytesEqual(low.dataI64(m.colindStore()), ref.colind));
    }
    EXPECT_TRUE(bytesEqual(low.dataF64(m.valsStore()), ref.vals));
    EXPECT_TRUE(bytesEqual(ctx.toHost(m.diagonal()).data(),
                           ref.diagonal()));

    std::vector<rt::ImageData> want = ref.images(ctx.procs());
    expectSameImage(low.image(m.rowptrImage()), want[0], "rowptr image");
    expectSameImage(low.image(m.nnzImage()), want[1], "nnz image");
    expectSameImage(low.image(m.gatherImage()), want[2], "gather image");
}

TEST(Sparse, StructuredAssemblyMatchesReference)
{
    for (int gpus : {1, 3, 4, 8}) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(gpus), opts(true));
        num::Context ctx(rt);
        sp::SparseContext sctx(ctx);
        for (bool idx32 : {true, false}) {
            SCOPED_TRACE(::testing::Message()
                         << "gpus " << gpus << " idx32 " << idx32);
            for (coord_t nx = 1; nx <= 9; nx++) {
                for (coord_t ny = 1; ny <= 9; ny++) {
                    SCOPED_TRACE(::testing::Message()
                                 << "poisson2d " << nx << "x" << ny);
                    expectMatchesReference(rt, ctx, idx32,
                                           sctx.poisson2d(nx, ny, idx32),
                                           refPoisson(nx, ny));
                }
            }
            for (coord_t n : {1, 2, 3, 8, 17, 64}) {
                SCOPED_TRACE(::testing::Message() << "n " << n);
                expectMatchesReference(
                    rt, ctx, idx32, sctx.tridiagonal(n, 2.5, -0.75, idx32),
                    refTridiagonal(n, 2.5, -0.75));
            }
            for (coord_t n : {2, 3, 4, 7, 8, 15, 16, 33}) {
                SCOPED_TRACE(::testing::Message() << "n_fine " << n);
                expectMatchesReference(rt, ctx, idx32,
                                       sctx.injection1d(n, idx32),
                                       refInjection(n));
                expectMatchesReference(rt, ctx, idx32,
                                       sctx.prolongation1d(n, idx32),
                                       refProlongation(n));
            }
        }
    }
}

TEST(Sparse, SimulatedImagesMatchReal)
{
    // Simulated builders derive their images in closed form (there
    // are no buffers to read them off); the cost model must see the
    // row-pointer and nonzero tiles the Real assembly registers.
    for (int gpus : {1, 3, 4, 8}) {
        DiffuseOptions sim_opts = opts(true);
        sim_opts.mode = rt::ExecutionMode::Simulated;
        DiffuseRuntime real_rt(rt::MachineConfig::withGpus(gpus),
                               opts(true));
        DiffuseRuntime sim_rt(rt::MachineConfig::withGpus(gpus), sim_opts);
        num::Context real_ctx(real_rt), sim_ctx(sim_rt);
        sp::SparseContext real(real_ctx), sim(sim_ctx);
        auto expectSame = [&](const sp::CsrMatrix &r,
                              const sp::CsrMatrix &s) {
            EXPECT_EQ(s.nnz(), r.nnz());
            expectSameImage(sim_rt.low().image(s.rowptrImage()),
                            real_rt.low().image(r.rowptrImage()),
                            "rowptr image");
            expectSameImage(sim_rt.low().image(s.nnzImage()),
                            real_rt.low().image(r.nnzImage()),
                            "nnz image");
        };
        SCOPED_TRACE(::testing::Message() << "gpus " << gpus);
        for (coord_t nx = 1; nx <= 9; nx++) {
            for (coord_t ny = 1; ny <= 9; ny++) {
                SCOPED_TRACE(::testing::Message()
                             << "poisson2d " << nx << "x" << ny);
                expectSame(real.poisson2d(nx, ny), sim.poisson2d(nx, ny));
            }
        }
        for (coord_t n : {1, 2, 3, 8, 17, 64}) {
            SCOPED_TRACE(::testing::Message() << "tridiagonal " << n);
            expectSame(real.tridiagonal(n, 2.5, -0.75),
                       sim.tridiagonal(n, 2.5, -0.75));
        }
        for (coord_t n : {2, 3, 4, 7, 8, 10, 15, 16, 33}) {
            SCOPED_TRACE(::testing::Message() << "n_fine " << n);
            expectSame(real.injection1d(n), sim.injection1d(n));
            expectSame(real.prolongation1d(n), sim.prolongation1d(n));
        }
    }
}

TEST(Sparse, SpmvBlocksFusionWithVectorUpdateOfX)
{
    // x is written through a Tiling partition, then SpMV reads it
    // through an image partition: true dependence, no fusion.
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), opts(true));
    num::Context ctx(rt);
    sp::SparseContext sctx(ctx);
    const coord_t n = 64;
    sp::CsrMatrix a = sctx.tridiagonal(n, 2.0, -1.0);
    num::NDArray x = ctx.random(n, 3);
    rt.flushWindow();
    rt.fusionStats().reset();
    num::NDArray x2 = ctx.mulScalar(2.0, x); // writes x2 via Tiling
    num::NDArray y = sctx.spmv(a, x2);       // reads x2 via Image
    rt.flushWindow();
    EXPECT_EQ(rt.fusionStats().groupsLaunched, 2u);
    EXPECT_GT(
        rt.fusionStats()
            .blocks[std::size_t(FusionBlock::TrueDependence)],
        0u);
    (void)y;
}

TEST(Sparse, SpmvFusesWithFollowingDot)
{
    // SpMV writes y via the row tiling; a dot reading y through the
    // same partition fuses with it (the CG group the paper finds).
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), opts(true));
    num::Context ctx(rt);
    sp::SparseContext sctx(ctx);
    const coord_t n = 64;
    sp::CsrMatrix a = sctx.tridiagonal(n, 2.0, -1.0);
    num::NDArray p = ctx.random(n, 4);
    rt.flushWindow();
    rt.fusionStats().reset();
    num::NDArray ap = sctx.spmv(a, p);
    num::NDArray pap = ctx.dot(p, ap);
    rt.flushWindow();
    EXPECT_EQ(rt.fusionStats().groupsLaunched, 1u);
    EXPECT_EQ(rt.fusionStats().fusedGroups, 1u);

    auto pv = ctx.toHost(p);
    auto apv = ctx.toHost(ap);
    double expect = 0.0;
    for (coord_t i = 0; i < n; i++)
        expect += pv[std::size_t(i)] * apv[std::size_t(i)];
    EXPECT_NEAR(ctx.value(pap), expect, 1e-9);
}

TEST(Sparse, FusedSpmvMatchesUnfused)
{
    for (int gpus : {1, 4}) {
        std::vector<double> results[2];
        for (bool fuse : {false, true}) {
            DiffuseRuntime rt(rt::MachineConfig::withGpus(gpus),
                              opts(fuse));
            num::Context ctx(rt);
            sp::SparseContext sctx(ctx);
            sp::CsrMatrix a = sctx.poisson2d(8, 8);
            num::NDArray x = ctx.random(64, 12);
            num::NDArray y = sctx.spmv(a, x);
            num::NDArray z = ctx.mulScalar(3.0, y);
            results[fuse ? 1 : 0] = ctx.toHost(z);
        }
        ASSERT_EQ(results[0].size(), results[1].size());
        for (std::size_t i = 0; i < results[0].size(); i++)
            EXPECT_DOUBLE_EQ(results[0][i], results[1][i]);
    }
}

} // namespace
} // namespace diffuse
