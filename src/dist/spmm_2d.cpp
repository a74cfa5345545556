#include "dist/spmm_2d.hpp"

#include "common/timer.hpp"
#include "sparse/spmm.hpp"

namespace sagnn {

namespace {
/// User tag for the transpose exchange (must stay below kUserTagLimit).
constexpr long kTransposeTag = 2001;
}  // namespace

SquareGrid SquareGrid::make(int p) {
  SAGNN_REQUIRE(p >= 1, "need at least one rank");
  int q = 1;
  while (q * q < p) ++q;
  SAGNN_REQUIRE(q * q == p, "2D requires a perfect-square rank count");
  return {p, q};
}

DistSpmm2d::DistSpmm2d(Comm& comm, const CsrMatrix& a,
                       std::span<const BlockRange> ranges,
                       const KernelConfig& kernels)
    : grid_(SquareGrid::make(comm.size())),
      grid_row_(grid_.grid_row(comm.rank())),
      grid_col_(grid_.grid_col(comm.rank())),
      world_(comm),
      row_comm_(comm.split([this](int r) { return grid_.grid_row(r); })) {
  SAGNN_REQUIRE(static_cast<int>(ranges.size()) == grid_.q,
                "2D needs one block per grid dimension");
  SAGNN_REQUIRE(a.n_rows() == a.n_cols(), "distributed matrix must be square");
  SAGNN_REQUIRE(ranges.front().begin == 0 && ranges.back().end == a.n_rows(),
                "block ranges must tile [0, n)");
  input_range_ = ranges[static_cast<std::size_t>(grid_col_)];
  output_range_ = ranges[static_cast<std::size_t>(grid_row_)];

  const CsrMatrix row_block = extract_row_block(a, output_range_);
  tile_ = std::move(split_block_cols(row_block, ranges)[static_cast<std::size_t>(grid_col_)]);
  if (kernels.format == SpmmFormat::kSell) {
    tile_sell_ = SellMatrix::from_csr(tile_, kernels);
  }
}

Matrix DistSpmm2d::multiply(const Matrix& h_local, double* cpu_seconds) {
  SAGNN_REQUIRE(h_local.n_rows() == input_range_.size(),
                "H block must match this rank's input residency");
  const vid_t f = h_local.n_cols();

  ThreadCpuTimer timer;
  Matrix z(output_range_.size(), f);
  if (tile_sell_) {
    spmm_accumulate(*tile_sell_, h_local, z);
  } else {
    spmm_accumulate(tile_, h_local, z);
  }
  if (cpu_seconds != nullptr) *cpu_seconds += timer.seconds();

  // The dominant 2D communication: a dense all-reduce of Z across the grid
  // row. Its volume cannot be shrunk by sparsity.
  if (grid_.q > 1) {
    allreduce_sum<real_t>(row_comm_, {z.data(), z.size()}, "allreduce");
  }
  return z;
}

Matrix DistSpmm2d::remap_for_next(const Matrix& z_local) {
  SAGNN_REQUIRE(z_local.n_rows() == output_range_.size(),
                "remap input must be Z-resident");
  const int partner = grid_.rank_of(grid_col_, grid_row_);
  if (partner == world_.rank()) return z_local;

  const vid_t f = z_local.n_cols();
  world_.send<real_t>(partner, kTransposeTag,
                      {z_local.data(), z_local.size()}, "transpose");
  Matrix h(input_range_.size(), f);
  world_.recv_into<real_t>(partner, kTransposeTag, {h.data(), h.size()});
  return h;
}

}  // namespace sagnn
