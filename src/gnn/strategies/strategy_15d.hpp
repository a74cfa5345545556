#pragma once
// 1D and 1.5D distribution strategies (paper §4.1-4.2, Algorithms 1 and 2):
// a (P/c) x c grid replicates each block row on c ranks; row fetches shrink
// with c at the price of a grid-row all-reduce. Reductions run over the
// grid column (one replica of every block row).
//
// The 1D strategies are this class with c pinned to 1, whatever the job's
// c says: every rank owns one block row and no all-reduce runs. They are
// the CAGNET broadcast baseline ("1d-oblivious"), the paper's Algorithm 1
// ("1d-sparse") and its chunked-pipelining schedule ("1d-overlap").
//
// The sparsity-aware multiply runs on one of three schedules, which only
// the registrations choose:
//   * kBulk ("*-sparse", "*-oblivious"): one untagged exchange per
//     propagate; pipeline_chunks is ignored.
//   * kPerPropagate ("1d-overlap", alias "1d-pipelined"): K column chunks
//     (StrategyContext::pipeline_chunks), the alltoallv of chunk k+1
//     posted before the local SpMM of chunk k. Stage ids 0..K-1 restart on
//     every propagate, so the pipeline is K deep; a multiply that does not
//     split (K = 1, or a feature width that clamps it to one chunk) records
//     the plain untagged phases.
//   * kEpochWide ("1.5d-overlap", aliases "15d-overlap", "1.5d-pipelined"):
//     the same chunking PLUS cross-layer latency hiding. The stage cursor
//     runs across the whole epoch instead of restarting per propagate, so
//     the first exchange of layer l+1 occupies the schedule slot directly
//     after the last SpMM chunk of layer l (no per-layer pipeline drain).
//     The trainer arms this through DistributionStrategy::begin_epoch().
//
// The pipelined schedules reuse the sparsity-aware index exchange
// verbatim, so the moved bytes per epoch equal the bulk schedule's; only
// the alltoall message count (x K) and the schedule differ. The grid-row
// partial-sum all-reduce stays one full-width collective per propagate
// (stage-tagged under kEpochWide but never column-split: splitting would
// reorder the ring's per-element additions and break bitwise parity), so
// its message count does NOT scale with K. Each stage's traffic lands in
// the tagged phases "alltoall#s" / "allreduce#s", which EpochCost turns
// into the pipelined critical path (see docs/cost_model.md); the
// posted-ahead exchanges also report the measured hidden/blocked
// wall-clock (EpochCost::measured_overlap_fraction).

#include "dist/spmm_15d.hpp"
#include "gnn/strategy.hpp"

namespace sagnn {

class Strategy15d final : public DistributionStrategy {
 public:
  enum class Schedule { kBulk, kPerPropagate, kEpochWide };

  /// `one_d` pins c to 1 (the 1D registrations).
  Strategy15d(SpmmMode mode, Schedule schedule, bool one_d)
      : mode_(mode), schedule_(schedule), one_d_(one_d) {}

  std::string name() const override {
    const std::string layout = one_d_ ? "1d-" : "1.5d-";
    if (schedule_ != Schedule::kBulk) return layout + "overlap";
    return layout + (mode_ == SpmmMode::kSparsityAware ? "sparse" : "oblivious");
  }

  int n_blocks(int p, int c) const override {
    return GridLayout::make(p, replication(c)).rows;
  }

  void setup(Comm& comm, const StrategyContext& ctx) override {
    if (schedule_ != Schedule::kBulk) {
      SAGNN_REQUIRE(ctx.pipeline_chunks >= 1, "pipeline_chunks must be at least 1");
      chunks_ = ctx.pipeline_chunks;
    }
    spmm_ = std::make_unique<DistSpmm15d>(comm, *ctx.adjacency, ctx.ranges,
                                          replication(ctx.c), mode_, ctx.kernels);
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
  /// The replication factor actually run for a requested c.
  int replication(int c) const { return one_d_ ? 1 : c; }

  Matrix multiply(const Matrix& h_local, double* cpu_seconds);

  SpmmMode mode_;
  Schedule schedule_;
  bool one_d_;
  int chunks_ = 1;
  /// Epoch-wide pipeline-stage cursor of kEpochWide (reset by
  /// begin_epoch, advanced by every pipelined propagate): the cross-layer
  /// schedule's source of stage tags.
  int stage_ = 0;
  std::unique_ptr<DistSpmm15d> spmm_;
};

}  // namespace sagnn
