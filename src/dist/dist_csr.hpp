#pragma once
// Per-rank state of a block-row-distributed sparse matrix (paper §4.1).
//
// Rank r of a 1D/1.5D distribution owns the block row A^T_{r·} of the
// (symmetrically permuted) adjacency, split by column into one block per
// part: A^T_{r1} ... A^T_{rk}. For each block j this precomputes
//   * the plain CSR block (columns localized to [0, |part j|)),
//   * the column-compacted block for the sparsity-aware kernel, and
//   * NnzCols(r, j): exactly the rows of H_j rank r must receive.

#include <span>
#include <vector>

#include "sparse/blocks.hpp"
#include "sparse/sell.hpp"

namespace sagnn {

class DistCsr {
 public:
  /// Build rank `rank`'s state for symmetric matrix `a` split into the
  /// contiguous block rows described by `ranges` (which must tile [0, n)).
  /// `kernels` selects the storage the local SpMM kernels stream
  /// (bitwise-neutral; SELL conversions are built once here).
  DistCsr(const CsrMatrix& a, std::span<const BlockRange> ranges, int rank,
          const KernelConfig& kernels = {});

  int n_blocks() const { return static_cast<int>(blocks_.size()); }
  int rank() const { return rank_; }
  const BlockRange& my_range() const { return my_range_; }
  vid_t local_rows() const { return my_range_.size(); }
  const std::vector<BlockRange>& ranges() const { return ranges_; }

  /// Block A^T_{r,j} with columns localized to block j's range.
  const CsrMatrix& plain_block(int j) const {
    return blocks_[static_cast<std::size_t>(j)];
  }
  /// Column-compacted form of plain_block(j).
  const CompactedBlock& compacted_block(int j) const {
    return compacted_[static_cast<std::size_t>(j)];
  }
  /// NnzCols(r, j): sorted local row indices of H_j this rank reads.
  const std::vector<vid_t>& needed_rows(int j) const {
    return compacted_[static_cast<std::size_t>(j)].cols;
  }
  /// Total H rows needed from OTHER blocks — the rank's sparsity-aware
  /// receive volume in rows.
  std::uint64_t total_needed_rows_remote() const;

  /// Z += plain_block(j) * H through the configured kernel format.
  void block_accumulate(int j, const Matrix& h, Matrix& z) const;
  /// Z += compacted_block(j).matrix * H_packed through the configured
  /// kernel format. The column indices of the compacted block address rows
  /// of the PACKED buffer `h_packed`: the sparsity-aware algorithms receive
  /// only the needed rows of H_j (needed_rows(j), in order) and the
  /// indices are remapped once at construction, so the kernel is the plain
  /// spmm_accumulate.
  void compacted_accumulate(int j, const Matrix& h_packed, Matrix& z) const;

 private:
  int rank_ = 0;
  BlockRange my_range_;
  std::vector<BlockRange> ranges_;
  std::vector<CsrMatrix> blocks_;
  std::vector<CompactedBlock> compacted_;
  /// SELL twins of blocks_/compacted_[].matrix; empty on the CSR path.
  std::vector<SellMatrix> block_sell_;
  std::vector<SellMatrix> compacted_sell_;
};

}  // namespace sagnn
