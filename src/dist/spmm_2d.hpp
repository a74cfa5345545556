#pragma once
// Distributed 2D (SUMMA-style) SpMM (paper §4; CAGNET's 2D variant).
//
// P = q^2 ranks form a q x q grid. Rank (i, j) owns tile Â_{ij} (rows of
// block i, columns of block j) and the H block j (H residency follows the
// grid COLUMN). One multiply computes the local partial Â_{ij} H_j and
// all-reduces it across the grid row, leaving the full Z_i on every rank of
// row i (Z residency follows the grid ROW). remap_for_next() swaps Z back
// to H residency through the transpose partner so multiplies chain, which
// is the GCN layer-to-layer pattern.
//
// The Z all-reduce moves dense blocks whose size is independent of the
// graph's sparsity — the structural reason CAGNET (and the paper) prefer
// 1D/1.5D for GNN training. So there is no sparsity-aware mode: every
// rank multiplies its full tile.

#include "dense/matrix.hpp"
#include "dist/dist_csr.hpp"
#include "simcomm/collectives.hpp"

namespace sagnn {

/// q x q process grid, rank = grid_row * q + grid_col.
struct SquareGrid {
  int p = 1;
  int q = 1;

  /// Throws unless p is a perfect square.
  static SquareGrid make(int p);

  int grid_row(int rank) const { return rank / q; }
  int grid_col(int rank) const { return rank % q; }
  int rank_of(int row, int col) const { return row * q + col; }
};

class DistSpmm2d {
 public:
  /// Collective over `comm`; `ranges` must have exactly q entries.
  /// `kernels` selects the local SpMM storage format (bitwise-neutral).
  DistSpmm2d(Comm& comm, const CsrMatrix& a, std::span<const BlockRange> ranges,
             const KernelConfig& kernels = {});

  const SquareGrid& grid() const { return grid_; }
  /// Residency of this rank's H block (block id = grid column).
  const BlockRange& input_range() const { return input_range_; }
  /// Residency of this rank's Z block after multiply (block id = grid row).
  const BlockRange& output_range() const { return output_range_; }
  /// Ranks of this grid row: they hold pairwise-distinct H blocks, so this
  /// is the communicator for loss/weight-gradient reductions.
  Comm& row_comm() { return row_comm_; }

  /// Z_local = tile * H_local, then all-reduced across the grid row.
  Matrix multiply(const Matrix& h_local, double* cpu_seconds = nullptr);

  /// Swap a Z-resident block back to H residency (exchange with the
  /// transpose partner), enabling the next multiply in a chain.
  Matrix remap_for_next(const Matrix& z_local);

 private:
  SquareGrid grid_;
  int grid_row_ = 0;
  int grid_col_ = 0;
  BlockRange input_range_;
  BlockRange output_range_;
  CsrMatrix tile_;           ///< Â_{ij}, columns localized to block j
  /// SELL twin of tile_ (sparse/sell.hpp); disengaged on the default CSR
  /// path.
  std::optional<SellMatrix> tile_sell_;
  Comm world_;               ///< copy of the constructing communicator
  Comm row_comm_;            ///< same grid row; comm rank == grid col
};

}  // namespace sagnn
