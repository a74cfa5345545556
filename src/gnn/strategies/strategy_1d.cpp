#include "gnn/strategies/strategy_1d.hpp"

#include <algorithm>

#include "plan/census.hpp"

namespace sagnn {

std::vector<double> Strategy1d::rank_work(const StrategyContext& ctx) const {
  return block_row_nnz_work(ctx);
}

PredictedCost Strategy1d::predict_cost(const PredictInput& in) const {
  PredictedCost out;
  if (in.census == nullptr) {
    out.note = name() + " prediction needs a census";
    return out;
  }
  const GraphCensus& cs = *in.census;
  if (in.p < 1 || static_cast<vid_t>(in.p) > cs.n) {
    out.note = "more ranks than vertices";
    return out;
  }

  const CostEstimator e(in.model);
  const double n = static_cast<double>(cs.n);
  const double s = sizeof(real_t);
  const int k = pipelined_ ? std::max(1, in.chunks) : 1;
  const std::vector<vid_t> widths =
      predict_base(out.cost, in, in.p, n / in.p, in.p, 1);
  // Per propagate: oblivious broadcasts every remote block row to every
  // rank; sparsity-aware fetches only the halo rows the partitioner left
  // behind, with the bottleneck rank at the send-imbalance factor.
  // Chunking moves the same bytes in K times the messages; the payoff is
  // the pipelined critical path (depth = K).
  const double halo = cs.expected_halo_rows(in.partitioner, in.p);
  const double imb = cs.expected_send_imbalance(in.partitioner, in.p);
  for (vid_t width : widths) {
    const double w = static_cast<double>(width);
    if (mode_ == SpmmMode::kSparsityAware) {
      e.alltoall(out.cost, halo / in.p * imb * w * s,
                 static_cast<double>(k) * (in.p - 1), in.p, 1);
    } else {
      e.bcast(out.cost, (n - n / in.p) * w * s, in.p - 1, in.p, 1);
    }
  }
  out.valid = true;
  out.depth = k;
  return out;
}

namespace {
const StrategyRegistration kRegister1dOblivious{
    "1d-oblivious", {"1d-oblivious(cagnet)", "cagnet"}, [] {
      return std::make_unique<Strategy1d>(SpmmMode::kOblivious, false);
    }};
const StrategyRegistration kRegister1dSparse{
    "1d-sparse", {"1d-sparsity-aware"}, [] {
      return std::make_unique<Strategy1d>(SpmmMode::kSparsityAware, false);
    }};
const StrategyRegistration kRegister1dOverlap{
    "1d-overlap", {"1d-pipelined"}, [] {
      return std::make_unique<Strategy1d>(SpmmMode::kSparsityAware, true);
    }};
}  // namespace

}  // namespace sagnn
