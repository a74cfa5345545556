#include "gnn/strategies/strategy_2d.hpp"

#include "plan/census.hpp"

namespace sagnn {

std::vector<double> Strategy2d::rank_work(const StrategyContext& ctx) const {
  // Rank (i, j) multiplies the single tile Â_{ij}, whose nnz we
  // approximate as 1/q of block row i.
  const SquareGrid grid = SquareGrid::make(ctx.p);
  std::vector<double> work(static_cast<std::size_t>(ctx.p), 0.0);
  const auto row_ptr = ctx.adjacency->row_ptr();
  for (int r = 0; r < ctx.p; ++r) {
    const BlockRange& range =
        ctx.ranges[static_cast<std::size_t>(grid.grid_row(r))];
    work[static_cast<std::size_t>(r)] =
        static_cast<double>(row_ptr[range.end] - row_ptr[range.begin]) / grid.q;
  }
  return work;
}

PredictedCost Strategy2d::predict_cost(const PredictInput& in) const {
  PredictedCost out;
  if (in.census == nullptr) {
    out.note = name() + " prediction needs a census";
    return out;
  }
  SquareGrid grid;
  try {
    grid = SquareGrid::make(in.p);
  } catch (const Error& err) {
    out.note = err.what();
    return out;
  }
  const GraphCensus& cs = *in.census;
  if (static_cast<vid_t>(grid.q) > cs.n) {
    out.note = "more grid rows than vertices";
    return out;
  }

  const CostEstimator e(in.model);
  const double n = static_cast<double>(cs.n);
  const double s = sizeof(real_t);
  // The dense Z all-reduce and the residency transpose are oblivious to
  // sparsity.
  const std::vector<vid_t> widths =
      predict_base(out.cost, in, grid.q, n / grid.q, grid.q, 1);
  for (vid_t width : widths) {
    const double w = static_cast<double>(width);
    e.allreduce(out.cost, (n / grid.q) * w * s, grid.q, 1);
    e.exchange(out.cost, (n / grid.q) * w * s, 1, in.p, grid.q);
  }
  out.valid = true;
  return out;
}

namespace {
const StrategyRegistration kRegister2d{
    "2d-oblivious",
    {"2d-oblivious(summa)", "summa", "2d-sparse", "2d-sparsity-aware"},
    [] { return std::make_unique<Strategy2d>(); }};
}  // namespace

}  // namespace sagnn
