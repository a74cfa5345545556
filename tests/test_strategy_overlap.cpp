// The "1d-overlap" chunked-pipelining strategy and the cost accounting it
// depends on: identical training math and bytes to "1d-sparse" with K-fold
// messages, stage-tagged traffic driving TrainResult's three schedule
// columns, and a strategy-level epoch cost whose `other` bucket excludes
// the one-time index exchange exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "gnn/strategy.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "partition/partition.hpp"
#include "plan/census.hpp"
#include "sparse/blocks.hpp"

namespace sagnn {
namespace {

GcnConfig tiny_config(const Dataset& ds, int epochs = 3) {
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, epochs);
  cfg.learning_rate = 0.3f;
  return cfg;
}

TrainResult run(const Dataset& ds, const std::string& strategy, int chunks,
                int epochs = 3) {
  auto trainer = TrainerBuilder(ds)
                     .strategy(strategy)
                     .ranks(4)
                     .partitioner("gvb")
                     .pipeline_chunks(chunks)
                     .gcn(tiny_config(ds, epochs))
                     .build();
  trainer->train();
  return trainer->result();
}

TEST(StrategyOverlap, SameBytesAsSparseWithKFoldMessages) {
  // The pipelined schedule reuses the 1D sparsity-aware index exchange, so
  // it moves exactly the same payload per epoch — the chunking only
  // multiplies the per-pair message count (the latency price of overlap).
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const int chunks = 4;
  const TrainResult sparse = run(ds, "1d-sparse", chunks);
  const TrainResult overlap = run(ds, "1d-overlap", chunks);

  const PhaseVolume& a2a_sparse = sparse.phase_volumes.at("alltoall");
  const PhaseVolume& a2a_overlap = overlap.phase_volumes.at("alltoall");
  EXPECT_DOUBLE_EQ(a2a_overlap.megabytes_per_epoch, a2a_sparse.megabytes_per_epoch);
  EXPECT_DOUBLE_EQ(a2a_overlap.messages_per_epoch,
                   chunks * a2a_sparse.messages_per_epoch);
  EXPECT_DOUBLE_EQ(overlap.setup_megabytes, sparse.setup_megabytes);

  // Identical math: the loss trajectories agree bitwise, not just within
  // the serial-parity tolerance.
  ASSERT_EQ(overlap.epochs.size(), sparse.epochs.size());
  for (std::size_t e = 0; e < sparse.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(overlap.epochs[e].loss, sparse.epochs[e].loss) << e;
    EXPECT_DOUBLE_EQ(overlap.epochs[e].train_accuracy,
                     sparse.epochs[e].train_accuracy)
        << e;
  }
}

TEST(StrategyOverlap, SurfacesThreeScheduleColumns) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  for (int chunks : {1, 2, 4, 8}) {
    const TrainResult r = run(ds, "1d-overlap", chunks, 2);
    EXPECT_EQ(r.pipeline_stages, chunks);
    const double bulk = r.modeled_epoch_seconds();
    const double pipe = r.modeled_epoch_pipelined_seconds();
    const double ideal = r.modeled_epoch_overlapped_seconds();
    EXPECT_LE(pipe, bulk) << chunks;
    EXPECT_GE(pipe, ideal) << chunks;
    if (chunks == 1) {
      EXPECT_DOUBLE_EQ(pipe, bulk);
    }
  }
  // Bulk-synchronous strategies report a single stage, for which the
  // pipelined column degenerates to the bulk one.
  const TrainResult sparse = run(ds, "1d-sparse", 4, 2);
  EXPECT_EQ(sparse.pipeline_stages, 1);
  EXPECT_DOUBLE_EQ(sparse.modeled_epoch_pipelined_seconds(),
                   sparse.modeled_epoch_seconds());
}

TEST(StrategyOverlap, ChunkCountsBeyondFeatureWidthClamp) {
  // More chunks than columns must not break anything: each multiply clamps
  // to its own feature width and stays exact.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const TrainResult wide = run(ds, "1d-overlap", 1000, 2);
  const TrainResult sparse = run(ds, "1d-sparse", 1, 2);
  ASSERT_EQ(wide.epochs.size(), sparse.epochs.size());
  for (std::size_t e = 0; e < sparse.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(wide.epochs[e].loss, sparse.epochs[e].loss) << e;
  }
  EXPECT_GT(wide.pipeline_stages, 1);
}

TEST(StrategyOverlap, RejectsNonPositiveChunkCount) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  EXPECT_THROW(run(ds, "1d-overlap", 0, 1), Error);
}

TEST(StrategyEpochCost, OtherBucketExcludesIndexExchangeExactly) {
  // The one-time index exchange is excluded during cost assembly, so the
  // per-epoch `other` bucket equals the non-setup phases' cost exactly —
  // no subtract-and-clamp remainder.
  Rng rng(5);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(16, 60, rng));
  const auto ranges = uniform_block_ranges(16, 2);
  StrategyContext ctx;
  ctx.p = 2;
  ctx.adjacency = &a;
  ctx.ranges = ranges;
  const auto strategy = strategy_registry().create("1d-sparse");

  CostModel m;
  TrafficRecorder rec(2);
  rec.record("index_exchange", 0, 1, 123457);
  rec.record("gather", 0, 1, 1000);  // lands in `other`
  rec.record("alltoall", 0, 1, 500);
  const int epochs = 3;
  const std::vector<double> cpu{0.1, 0.2};
  const EpochCost cost = strategy->epoch_cost(m, rec, cpu, ctx, epochs);
  EXPECT_DOUBLE_EQ(cost.other, m.phase_seconds(rec.phase("gather")) / epochs);
  EXPECT_DOUBLE_EQ(cost.alltoall,
                   m.phase_seconds(rec.phase("alltoall")) / epochs);
}

TEST(StrategyOverlap, BlockRowWorkSharedWithSparse1d) {
  // Both 1D strategies weight ranks by block-row nnz; the shared helper
  // must agree with a direct per-block count.
  Rng rng(6);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(24, 120, rng));
  const auto ranges = uniform_block_ranges(24, 3);
  StrategyContext ctx;
  ctx.p = 3;
  ctx.adjacency = &a;
  ctx.ranges = ranges;
  const auto work = block_row_nnz_work(ctx);
  ASSERT_EQ(work.size(), 3u);
  double total = 0;
  for (double w : work) total += w;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(a.nnz()));
  EXPECT_EQ(strategy_registry().create("1d-overlap")->rank_work(ctx), work);
  EXPECT_EQ(strategy_registry().create("1d-sparse")->rank_work(ctx), work);
}

TEST(StrategyOverlap, SingleChunkPredictionEqualsSparseBitwise) {
  // "1d-overlap" is the "1d-sparse" class with the pipelined schedule on;
  // at K = 1 the two must price every bucket identically.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GraphCensus census = take_census(ds);
  PredictInput in;
  in.census = &census;
  in.p = 4;
  in.chunks = 1;
  in.partitioner = "gvb";
  in.dims = tiny_config(ds).dims;
  const PredictedCost overlap =
      strategy_registry().create("1d-overlap")->predict_cost(in);
  const PredictedCost sparse = strategy_registry().create("1d-sparse")->predict_cost(in);
  ASSERT_TRUE(overlap.valid);
  ASSERT_TRUE(sparse.valid);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(overlap.seconds()),
            std::bit_cast<std::uint64_t>(sparse.seconds()));
  EXPECT_EQ(overlap.depth, sparse.depth);
}

TEST(StrategyOverlap, SparsePredictionIgnoresChunkCount) {
  // "1d-sparse" keeps the bulk multiply whatever pipeline_chunks says, so
  // its prediction must not move with K; "1d-overlap" pays K-fold messages
  // for a K-deep pipeline.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GraphCensus census = take_census(ds);
  PredictInput in;
  in.census = &census;
  in.p = 4;
  in.partitioner = "gvb";
  in.dims = tiny_config(ds).dims;
  in.chunks = 1;
  const PredictedCost sparse_one =
      strategy_registry().create("1d-sparse")->predict_cost(in);
  in.chunks = 4;
  const PredictedCost sparse_four =
      strategy_registry().create("1d-sparse")->predict_cost(in);
  const PredictedCost overlap_four =
      strategy_registry().create("1d-overlap")->predict_cost(in);
  ASSERT_TRUE(sparse_one.valid);
  ASSERT_TRUE(sparse_four.valid);
  ASSERT_TRUE(overlap_four.valid);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sparse_four.seconds()),
            std::bit_cast<std::uint64_t>(sparse_one.seconds()));
  EXPECT_EQ(sparse_four.depth, 1);
  EXPECT_EQ(overlap_four.depth, 4);
}

}  // namespace
}  // namespace sagnn
