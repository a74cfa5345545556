#pragma once
// 1.5D distribution strategies (paper §4.2, Algorithm 2): a (P/c) x c grid
// replicates each block row on c ranks; row fetches shrink with c at the
// price of a grid-row all-reduce. Reductions run over the grid column
// (one replica of every block row).
//
// The pipelined registration ("1.5d-overlap", aliases "15d-overlap",
// "1.5d-pipelined") splits the feature/gradient matrix into K column
// chunks, issuing the grid-column alltoallv of chunk k+1 before the local
// SpMM of chunk k, PLUS cross-layer latency hiding: the pipeline-stage
// cursor runs across the whole epoch instead of resetting per propagate,
// so the first exchange of layer l+1 occupies the schedule slot directly
// after the last SpMM chunk of layer l (no per-layer pipeline drain). The
// trainer arms this through DistributionStrategy::begin_epoch().
//
// It reuses the sparsity-aware index exchange verbatim, so the moved bytes
// per epoch equal "1.5d-sparse"; only the alltoall message count (x K) and
// the schedule differ. The grid-row partial-sum all-reduce stays one
// full-width collective per propagate (stage-tagged but never
// column-split: splitting would reorder the ring's per-element additions
// and break bitwise parity), so its message count does NOT scale with K.
// Each stage's traffic lands in the epoch-wide tagged phases "alltoall#s" /
// "allreduce#s", which EpochCost turns into the pipelined critical path
// (see docs/cost_model.md); the posted-ahead exchanges also report the
// measured hidden/blocked wall-clock (EpochCost::measured_overlap_fraction).
// "1.5d-sparse" runs the untagged bulk multiply and ignores
// pipeline_chunks.

#include "dist/spmm_15d.hpp"
#include "gnn/strategy.hpp"

namespace sagnn {

class Strategy15d final : public DistributionStrategy {
 public:
  Strategy15d(SpmmMode mode, bool pipelined) : mode_(mode), pipelined_(pipelined) {}

  std::string name() const override {
    if (pipelined_) return "1.5d-overlap";
    return mode_ == SpmmMode::kSparsityAware ? "1.5d-sparse" : "1.5d-oblivious";
  }

  int n_blocks(int p, int c) const override {
    return GridLayout::make(p, c).rows;
  }

  void setup(Comm& comm, const StrategyContext& ctx) override {
    if (pipelined_) {
      SAGNN_REQUIRE(ctx.pipeline_chunks >= 1, "pipeline_chunks must be at least 1");
      chunks_ = ctx.pipeline_chunks;
    }
    spmm_ = std::make_unique<DistSpmm15d>(comm, *ctx.adjacency, ctx.ranges,
                                          ctx.c, mode_, ctx.kernels);
  }

  void begin_epoch() override { stage_ = 0; }

  Matrix propagate_forward(const Matrix& x_local, double* cpu_seconds) override {
    return multiply(x_local, cpu_seconds);
  }
  Matrix propagate_backward(const Matrix& g_local, double* cpu_seconds) override {
    return multiply(g_local, cpu_seconds);
  }

  Comm& reduce_comm() override { return spmm_->col_comm(); }
  const BlockRange& my_range() const override { return spmm_->my_range(); }

  std::vector<double> rank_work(const StrategyContext& ctx) const override;

  PredictedCost predict_cost(const PredictInput& in) const override;

 private:
  Matrix multiply(const Matrix& h_local, double* cpu_seconds) {
    if (pipelined_) {
      return spmm_->multiply_pipelined(h_local, chunks_, &stage_, cpu_seconds);
    }
    return spmm_->multiply(h_local, cpu_seconds);
  }

  SpmmMode mode_;
  bool pipelined_;
  int chunks_ = 1;
  /// Epoch-wide pipeline-stage cursor (reset by begin_epoch, advanced by
  /// every pipelined propagate): the cross-layer schedule's source of
  /// stage tags.
  int stage_ = 0;
  std::unique_ptr<DistSpmm15d> spmm_;
};

}  // namespace sagnn
