#pragma once
// Distributed 1.5D SpMM (paper §4.2, Algorithm 2; CAGNET's 1.5D layout).
//
// P ranks form a (P/c) x c grid. Block row i of Â and H is replicated on
// the c ranks of grid row i; the c replicas split the column blocks of the
// row among themselves (replica col takes blocks j with j % c == col),
// compute partial products, and an all-reduce across the grid row restores
// the full Z_i on every replica. Row fetches happen inside each grid
// COLUMN (one replica of every block row), so the per-rank exchange volume
// shrinks with c while the (dense) partial-sum all-reduce grows — the 1.5D
// tradeoff the paper evaluates in Figure 7.
//
// At c = 1 the grid is a single column: every rank owns one block row, no
// all-reduce runs, and this is the paper's 1D Algorithm 1 (§4.1). The 1D
// strategies ("1d-oblivious", "1d-sparse", "1d-overlap") run it that way.
//
//   kOblivious:      whole H blocks broadcast within the grid column
//                    (CAGNET), so the moved bytes depend only on the
//                    matrix SHAPE.
//   kSparsityAware:  only the NnzCols rows the local blocks read are
//                    exchanged, via one all-to-all per multiply. The
//                    needed-row index lists are exchanged ONCE at
//                    construction (phase "index_exchange", which the
//                    trainer excludes from per-epoch cost).

#include <algorithm>

#include "dense/matrix.hpp"
#include "dist/dist_csr.hpp"
#include "simcomm/collectives.hpp"

namespace sagnn {

/// Communication mode of the distributed SpMM (paper §4).
enum class SpmmMode {
  kOblivious,      ///< move whole H blocks regardless of sparsity (CAGNET)
  kSparsityAware,  ///< move only the H rows the local blocks actually read
};

/// (P/c) x c process grid, rank = grid_row * c + grid_col (row major).
struct GridLayout {
  int p = 1;
  int rows = 1;  ///< number of distinct block rows (P/c)
  int s = 1;     ///< replication factor c (grid width)

  /// Throws unless c >= 1 and c^2 divides p (the 1.5D requirement).
  static GridLayout make(int p, int c);

  int grid_row(int rank) const { return rank / s; }
  int grid_col(int rank) const { return rank % s; }
  int rank_of(int row, int col) const { return row * s + col; }
};

class DistSpmm15d {
 public:
  /// Collective over `comm` (all ranks construct together). `ranges` must
  /// have exactly P/c entries. Subcommunicators are split here and kept by
  /// value, so the object stays usable after the constructing call frame.
  DistSpmm15d(Comm& comm, const CsrMatrix& a, std::span<const BlockRange> ranges,
              int c, SpmmMode mode, const KernelConfig& kernels = {});

  const GridLayout& layout() const { return layout_; }
  const BlockRange& my_range() const { return local_.my_range(); }
  /// One replica of every block row — the communicator for global
  /// reductions of losses and weight gradients.
  Comm& col_comm() { return col_comm_; }

  /// One collective multiply; every replica returns the full Z block,
  /// bitwise identical across each grid row.
  Matrix multiply(const Matrix& h_local, double* cpu_seconds = nullptr);

  /// Chunked-pipelining multiply (sparsity-aware mode only): H is split
  /// into chunk_count(chunks, f) column chunks; the grid-column exchange of
  /// chunk k+1 is POSTED (ialltoallv: eager isends + pending irecvs) before
  /// chunk k is waited for and computed — a genuine double-buffered
  /// (depth-2) pipeline whose wait() records the measured hidden/blocked
  /// wall-clock (EpochCost::measured_overlap_fraction). Numerically
  /// identical to multiply(): each output element accumulates its
  /// neighbors in the same order, columns are independent. The grid-row
  /// partial-sum all-reduce stays one full-width collective AFTER the last
  /// chunk — splitting it per chunk would reorder each element's
  /// cross-replica additions (the ring schedule assigns chunks by buffer
  /// offset) and break bitwise parity with multiply().
  ///
  /// `stage_counter`, when non-null, is the epoch-wide pipeline-stage
  /// cursor of a cross-layer schedule: chunk k's traffic is recorded under
  /// stage *stage_counter + k, the trailing all-reduce under the next
  /// stage, and the counter advances past them — so the first exchange of
  /// the NEXT propagate occupies the pipeline slot right after this one's
  /// last SpMM chunk (cross-layer latency hiding). A null counter records
  /// untagged bulk-synchronous phases; with chunks == 1 that is exactly
  /// multiply(), which delegates here.
  Matrix multiply_pipelined(const Matrix& h_local, int chunks,
                            int* stage_counter, double* cpu_seconds = nullptr);

  /// Column chunks multiply_pipelined() actually uses for an f-wide H:
  /// `chunks` clamped to [1, max(1, f)].
  static int chunk_count(int chunks, vid_t f) {
    return std::max(1, std::min(chunks, static_cast<int>(std::max<vid_t>(1, f))));
  }

 private:
  bool assigned(int j) const { return j % layout_.s == grid_col_; }

  GridLayout layout_;
  int grid_row_ = 0;
  int grid_col_ = 0;
  SpmmMode mode_;
  DistCsr local_;
  Comm col_comm_;  ///< same grid column; comm rank == grid row
  Comm row_comm_;  ///< same grid row (the c replicas); comm rank == grid col
  /// requests_[i]: local rows of MY block that grid row i's replica in my
  /// column reads (sparsity-aware only).
  std::vector<std::vector<vid_t>> requests_;
};

}  // namespace sagnn
