#include "gnn/strategies/strategy_15d.hpp"

#include <algorithm>

#include "plan/census.hpp"

namespace sagnn {

Matrix Strategy15d::multiply(const Matrix& h_local, double* cpu_seconds) {
  if (schedule_ == Schedule::kBulk) return spmm_->multiply(h_local, cpu_seconds);
  if (schedule_ == Schedule::kEpochWide) {
    return spmm_->multiply_pipelined(h_local, chunks_, &stage_, cpu_seconds);
  }
  // kPerPropagate: stage ids restart every propagate, and a multiply that
  // does not split stays on the untagged bulk phases.
  int stage = 0;
  const bool split = DistSpmm15d::chunk_count(chunks_, h_local.n_cols()) > 1;
  return spmm_->multiply_pipelined(h_local, chunks_, split ? &stage : nullptr,
                                   cpu_seconds);
}

std::vector<double> Strategy15d::rank_work(const StrategyContext& ctx) const {
  // Rank r holds block row r/c; the c replicas split its work.
  const GridLayout layout = GridLayout::make(ctx.p, replication(ctx.c));
  std::vector<double> work(static_cast<std::size_t>(ctx.p), 0.0);
  const auto row_ptr = ctx.adjacency->row_ptr();
  for (int r = 0; r < ctx.p; ++r) {
    const BlockRange& range =
        ctx.ranges[static_cast<std::size_t>(layout.grid_row(r))];
    work[static_cast<std::size_t>(r)] =
        static_cast<double>(row_ptr[range.end] - row_ptr[range.begin]) /
        layout.s;
  }
  return work;
}

PredictedCost Strategy15d::predict_cost(const PredictInput& in) const {
  PredictedCost out;
  if (in.census == nullptr) {
    out.note = name() + " prediction needs a census";
    return out;
  }
  GridLayout layout;
  try {
    layout = GridLayout::make(in.p, replication(in.c));
  } catch (const Error& err) {
    out.note = err.what();
    return out;
  }
  const GraphCensus& cs = *in.census;
  if (static_cast<vid_t>(layout.rows) > cs.n) {
    out.note = "more block rows than vertices";
    return out;
  }

  const CostEstimator e(in.model);
  const double n = static_cast<double>(cs.n);
  const double s = sizeof(real_t);
  const int rows = layout.rows;
  const int c = layout.s;
  const int k = schedule_ != Schedule::kBulk ? in.chunks : 1;
  // Reduce scope: a grid column (one replica of every block row), `rows`
  // members spaced c apart. Each rank holds an n*c/p-row replica.
  const std::vector<vid_t> widths =
      predict_base(out.cost, in, rows, n * c / in.p, rows, c);
  const double halo = cs.expected_halo_rows(in.partitioner, rows);
  const double imb = cs.expected_send_imbalance(in.partitioner, rows);
  // Stage counts per propagate: K clamped to the width, as the run does.
  int max_chunks = 1;
  int sum_chunks = 0;
  for (vid_t width : widths) {
    const double w = static_cast<double>(width);
    const int chunks = DistSpmm15d::chunk_count(k, width);
    max_chunks = std::max(max_chunks, chunks);
    sum_chunks += chunks;
    // Grid-column fetch: the c replicas of a block row split its traffic.
    // Chunking moves the same bytes in K times the alltoall messages.
    if (mode_ == SpmmMode::kSparsityAware) {
      e.alltoall(out.cost, halo / in.p * imb * w * s,
                 static_cast<double>(chunks) * (rows - 1), rows, c);
    } else {
      e.bcast(out.cost, (rows - 1) * n / in.p * w * s, rows - 1, rows, c);
    }
    // Grid-row partial-sum all-reduce across the c replicas: one
    // full-width collective per propagate, whatever K.
    if (c > 1) e.allreduce(out.cost, (n * c / in.p) * w * s, c, 1);
  }
  out.valid = true;
  if (schedule_ == Schedule::kPerPropagate) {
    out.depth = max_chunks;
  } else if (schedule_ == Schedule::kEpochWide) {
    // Cross-layer schedule: the trainer records the deepest per-base stage
    // count, the alltoall stages of all propagates against, at c > 1, the
    // n_prop tagged grid-row all-reduces plus the untagged loss/gradient
    // all-reduce. At c = 1 no grid-row all-reduce runs.
    const int n_prop = static_cast<int>(widths.size());
    out.depth = std::max(sum_chunks, c > 1 ? n_prop + 1 : 0);
  }
  return out;
}

namespace {
using Schedule = Strategy15d::Schedule;

const StrategyRegistration kRegister1dOblivious{
    "1d-oblivious", {"1d-oblivious(cagnet)", "cagnet"}, [] {
      return std::make_unique<Strategy15d>(SpmmMode::kOblivious, Schedule::kBulk,
                                           true);
    }};
const StrategyRegistration kRegister1dSparse{
    "1d-sparse", {"1d-sparsity-aware"}, [] {
      return std::make_unique<Strategy15d>(SpmmMode::kSparsityAware, Schedule::kBulk,
                                           true);
    }};
const StrategyRegistration kRegister1dOverlap{
    "1d-overlap", {"1d-pipelined"}, [] {
      return std::make_unique<Strategy15d>(SpmmMode::kSparsityAware,
                                           Schedule::kPerPropagate, true);
    }};
const StrategyRegistration kRegister15dOblivious{
    "1.5d-oblivious", {}, [] {
      return std::make_unique<Strategy15d>(SpmmMode::kOblivious, Schedule::kBulk,
                                           false);
    }};
const StrategyRegistration kRegister15dSparse{
    "1.5d-sparse", {"1.5d-sparsity-aware"}, [] {
      return std::make_unique<Strategy15d>(SpmmMode::kSparsityAware, Schedule::kBulk,
                                           false);
    }};
const StrategyRegistration kRegister15dOverlap{
    "1.5d-overlap", {"15d-overlap", "1.5d-pipelined"}, [] {
      return std::make_unique<Strategy15d>(SpmmMode::kSparsityAware,
                                           Schedule::kEpochWide, false);
    }};
}  // namespace

}  // namespace sagnn
