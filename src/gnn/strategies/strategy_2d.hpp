#pragma once
// 2D (SUMMA-style) distribution strategy ("2d-oblivious"): a q x q grid
// tiles Â; the dense Z all-reduce across grid rows dominates and cannot be
// shrunk by sparsity — the scheme the paper inherits CAGNET's case
// against, kept as a faithful comparison point. A sparsity-aware 2D mode
// would move the same bytes, so "2d-sparse" is only an alias of this
// strategy. Forward/backward aggregations remap their output back to H
// residency so layers chain.

#include "dist/spmm_2d.hpp"
#include "gnn/strategy.hpp"

namespace sagnn {

class Strategy2d final : public DistributionStrategy {
 public:
  std::string name() const override { return "2d-oblivious"; }

  int n_blocks(int p, int /*c*/) const override {
    return SquareGrid::make(p).q;
  }

  void setup(Comm& comm, const StrategyContext& ctx) override {
    spmm_ = std::make_unique<DistSpmm2d>(comm, *ctx.adjacency, ctx.ranges,
                                         ctx.kernels);
  }

  Matrix propagate_forward(const Matrix& x_local, double* cpu_seconds) override {
    Matrix z = spmm_->multiply(x_local, cpu_seconds);
    return spmm_->remap_for_next(z);
  }
  Matrix propagate_backward(const Matrix& g_local, double* cpu_seconds) override {
    Matrix z = spmm_->multiply(g_local, cpu_seconds);
    return spmm_->remap_for_next(z);
  }

  /// Ranks of a grid row hold pairwise-distinct H blocks (rank (i,j) holds
  /// block j), so the grid row is the reduction scope.
  Comm& reduce_comm() override { return spmm_->row_comm(); }
  /// Training state lives in H residency: the input range.
  const BlockRange& my_range() const override { return spmm_->input_range(); }

  std::vector<double> rank_work(const StrategyContext& ctx) const override;

  PredictedCost predict_cost(const PredictInput& in) const override;

 private:
  std::unique_ptr<DistSpmm2d> spmm_;
};

}  // namespace sagnn
