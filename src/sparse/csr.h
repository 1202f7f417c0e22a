/**
 * @file
 * sparse-mini: distributed CSR matrices, standing in for Legate Sparse
 * (paper §7). Matrices are row-tiled; SpMV reads its input vector
 * through an *image* partition (the x entries its rows touch), so a
 * preceding write of x through a Tiling partition is a true dependence
 * and SpMV never fuses with the vector update that produced x —
 * exactly the behaviour the paper's solvers exhibit.
 *
 * Row pointers, column indices and values are stores like any other;
 * their pieces are registered as image partitions computed at matrix
 * assembly (the scale-aware analogue of Legion dependent partitioning).
 * Column indices may be 32-bit, matching the paper's PETSc-parity
 * adjustment (§7.1 footnote: PETSc stores coordinates as 32-bit).
 *
 * Real-mode assembly writes each row straight into the stores in one
 * pass, at the matrix's index width, filling the diagonal as it goes;
 * the images are then read off the filled row pointers and column
 * indices. No intermediate triplet or CSR copy is built.
 */

#ifndef DIFFUSE_SPARSE_CSR_H
#define DIFFUSE_SPARSE_CSR_H

#include <functional>
#include <memory>

#include "cunumeric/ndarray.h"

namespace diffuse {
namespace sp {

/** Task types registered by sparse-mini. */
struct SparseOps
{
    TaskTypeId spmv = 0;
};

class SparseContext;

/**
 * A distributed CSR matrix handle. Copies share the assembly
 * (reference semantics), and dropping the last handle releases the
 * underlying stores.
 */
class CsrMatrix
{
  public:
    CsrMatrix() = default;

    coord_t rows() const { return impl_ ? impl_->rows : 0; }
    coord_t cols() const { return impl_ ? impl_->cols : 0; }
    coord_t nnz() const { return impl_ ? impl_->nnz : 0; }
    bool valid() const { return impl_ != nullptr; }

    /** Dense vector holding the matrix diagonal (assembly-time). */
    const num::NDArray &diagonal() const { return impl_->diag; }

    /** Row pointers (i64), column indices (i32 or i64) and values. */
    StoreId rowptrStore() const { return impl_->rowptr; }
    StoreId colindStore() const { return impl_->colind; }
    StoreId valsStore() const { return impl_->vals; }

    /**
     * Image partitions registered at assembly: per-point row-pointer
     * windows, nonzero ranges and gathered-x bounding intervals.
     */
    ImageId rowptrImage() const { return impl_->rowptrImage; }
    ImageId nnzImage() const { return impl_->nnzImage; }
    ImageId gatherImage() const { return impl_->gatherImage; }

  private:
    friend class SparseContext;

    struct Impl
    {
        DiffuseRuntime *rt = nullptr;
        StoreId rowptr = INVALID_STORE;
        StoreId colind = INVALID_STORE;
        StoreId vals = INVALID_STORE;
        ImageId rowptrImage = 0;
        ImageId nnzImage = 0;
        ImageId gatherImage = 0;
        coord_t rows = 0, cols = 0, nnz = 0;
        bool idx32 = true;
        num::NDArray diag;

        ~Impl()
        {
            if (rt) {
                rt->releaseApp(rowptr);
                rt->releaseApp(colind);
                rt->releaseApp(vals);
            }
        }
    };

    explicit CsrMatrix(std::shared_ptr<Impl> impl)
        : impl_(std::move(impl))
    {}

    std::shared_ptr<Impl> impl_;
};

/**
 * Library context for sparse operations; shares the array context's
 * DiffuseRuntime.
 */
class SparseContext
{
  public:
    explicit SparseContext(num::Context &arrays);

    num::Context &arrays() { return arrays_; }

    /**
     * Assemble the 5-point 2-D Poisson operator on an nx-by-ny grid
     * (rows = nx*ny), the standard Krylov-benchmark matrix.
     */
    CsrMatrix poisson2d(coord_t nx, coord_t ny, bool idx32 = true);

    /** Tridiagonal (1-D Poisson-like) matrix. */
    CsrMatrix tridiagonal(coord_t n, double diag, double off,
                          bool idx32 = true);

    /**
     * Injection restriction operator: coarse[i] = fine[2i] over a 1-D
     * hierarchy (rows = n/2, cols = n), used by the GMG solver.
     */
    CsrMatrix injection1d(coord_t n_fine, bool idx32 = true);

    /** Linear prolongation operator (transpose-like of injection). */
    CsrMatrix prolongation1d(coord_t n_fine, bool idx32 = true);

    /** y = A @ x as one index task. */
    num::NDArray spmv(const CsrMatrix &a, const num::NDArray &x);

  private:
    /**
     * Structure description used in Simulated mode: the matrix never
     * materializes, only its partition images do — so weak-scaling
     * studies can use the paper's per-GPU problem sizes without
     * assembling billions of nonzeros on the host.
     */
    struct AnalyticCsr
    {
        coord_t rows = 0, cols = 0, nnz = 0;
        /** Row-pointer value at row r (prefix nonzero count). */
        std::function<coord_t(coord_t)> nnzUpTo;
        /** Column bounds [lo, hi) touched by rows [r0, r1). */
        std::function<std::pair<coord_t, coord_t>(coord_t, coord_t)>
            colRange;
    };

    /**
     * Real-mode assembly: allocate a rows-by-cols matrix holding
     * exactly nnz entries and call fill(w) once with a row writer
     * bound to its stores. fill appends every row in order through
     * w.put(col, value) / w.endRow(); entries land directly in the
     * pooled colind/vals buffers at the matrix's index width, and the
     * entry on column == row (if any) becomes the row's diagonal.
     */
    template <typename Fill>
    CsrMatrix assemble(coord_t rows, coord_t cols, coord_t nnz,
                       bool idx32, const Fill &fill);
    CsrMatrix finalizeAnalytic(const AnalyticCsr &shape, bool idx32);
    CsrMatrix makeHandle(coord_t rows, coord_t cols, coord_t nnz,
                         bool idx32);
    void registerImages(CsrMatrix::Impl &impl,
                        const std::function<coord_t(coord_t)> &nnz_up_to,
                        const std::function<std::pair<coord_t, coord_t>(
                            coord_t, coord_t)> &col_range);

    bool simulated() const;

    num::Context &arrays_;
    SparseOps ops_;
};

} // namespace sp
} // namespace diffuse

#endif // DIFFUSE_SPARSE_CSR_H
