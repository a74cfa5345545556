#pragma once
// 1D block-row distribution strategies (paper §4.1): the CAGNET broadcast
// baseline ("1d-oblivious"), the paper's Algorithm 1 ("1d-sparse") and its
// chunked-pipelining schedule ("1d-overlap"). Every rank owns one block row
// of Â and H; the world communicator doubles as the reduction scope.
//
// The pipelined registration splits the feature/gradient matrix into K
// column chunks (StrategyContext::pipeline_chunks), interleaving the
// alltoallv of chunk k+1 with the local SpMM of chunk k in both propagation
// directions. It reuses the sparsity-aware index exchange verbatim, so the
// moved bytes per epoch equal "1d-sparse"; only the message count (x K)
// and the schedule differ. Each chunk's traffic lands in the stage-tagged
// phase "alltoall#k", which EpochCost::total_pipelined() turns into the
// pipelined critical path, and the posted-ahead exchanges report the
// measured hidden/blocked wall-clock (EpochCost::measured_overlap_fraction).
// "1d-sparse" runs the bulk multiply and ignores pipeline_chunks.

#include <optional>

#include "dist/spmm_1d.hpp"
#include "gnn/strategy.hpp"

namespace sagnn {

class Strategy1d final : public DistributionStrategy {
 public:
  Strategy1d(SpmmMode mode, bool pipelined) : mode_(mode), pipelined_(pipelined) {}

  std::string name() const override {
    if (pipelined_) return "1d-overlap";
    return mode_ == SpmmMode::kSparsityAware ? "1d-sparse" : "1d-oblivious";
  }

  int n_blocks(int p, int /*c*/) const override {
    SAGNN_REQUIRE(p >= 1, "need at least one rank");
    return p;
  }

  void setup(Comm& comm, const StrategyContext& ctx) override {
    if (pipelined_) {
      SAGNN_REQUIRE(ctx.pipeline_chunks >= 1, "pipeline_chunks must be at least 1");
      chunks_ = ctx.pipeline_chunks;
    }
    world_.emplace(comm);
    spmm_ = std::make_unique<DistSpmm1d>(*world_, *ctx.adjacency, ctx.ranges,
                                         mode_, ctx.kernels);
  }

  Matrix propagate_forward(const Matrix& x_local, double* cpu_seconds) override {
    return multiply(x_local, cpu_seconds);
  }
  Matrix propagate_backward(const Matrix& g_local, double* cpu_seconds) override {
    return multiply(g_local, cpu_seconds);
  }

  Comm& reduce_comm() override { return *world_; }
  const BlockRange& my_range() const override { return spmm_->my_range(); }

  std::vector<double> rank_work(const StrategyContext& ctx) const override;

  PredictedCost predict_cost(const PredictInput& in) const override;

 private:
  Matrix multiply(const Matrix& h_local, double* cpu_seconds) {
    if (pipelined_) {
      return spmm_->multiply_pipelined(*world_, h_local, chunks_, cpu_seconds);
    }
    return spmm_->multiply(*world_, h_local, cpu_seconds);
  }

  SpmmMode mode_;
  bool pipelined_;
  int chunks_ = 1;
  std::optional<Comm> world_;
  std::unique_ptr<DistSpmm1d> spmm_;
};

}  // namespace sagnn
