// The "1d-overlap" chunked-pipelining strategy and the cost accounting it
// depends on: identical training math and bytes to "1d-sparse" with K-fold
// messages, stage-tagged traffic driving TrainResult's three schedule
// columns, and a strategy-level epoch cost whose `other` bucket excludes
// the one-time index exchange exactly. Also pins that every 1D
// registration runs the 1.5D class at c = 1 whatever c the job asks for.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "gnn/strategy.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "partition/partition.hpp"
#include "plan/census.hpp"
#include "simcomm/cluster.hpp"
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
  // Every 1D strategy weights rank r by the nnz of block row r, whatever c
  // the context carries.
  Rng rng(6);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(24, 120, rng));
  const auto ranges = uniform_block_ranges(24, 3);
  StrategyContext ctx;
  ctx.p = 3;
  ctx.adjacency = &a;
  ctx.ranges = ranges;
  std::vector<double> work;
  for (const BlockRange& range : ranges) {
    work.push_back(static_cast<double>(a.row_ptr()[range.end] -
                                       a.row_ptr()[range.begin]));
  }
  double total = 0;
  for (double w : work) total += w;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(a.nnz()));
  for (const char* name : {"1d-overlap", "1d-sparse", "1d-oblivious"}) {
    const auto strategy = strategy_registry().create(name);
    ctx.c = 1;
    EXPECT_EQ(strategy->rank_work(ctx), work) << name;
    ctx.c = 2;
    EXPECT_EQ(strategy->rank_work(ctx), work) << name << " c=2";
  }
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

// ---- The 1D registrations are Strategy15d with c pinned to 1 ----

constexpr const char* kOneD[] = {"1d-oblivious", "1d-sparse", "1d-overlap"};

TEST(OneDStrategies, BlockRowCountIgnoresC) {
  for (const char* name : kOneD) {
    EXPECT_EQ(strategy_registry().create(name)->n_blocks(8, 2), 8) << name;
  }
}

TEST(OneDStrategies, PredictionIgnoresC) {
  // The planner prices the 1D strategies at every c of its grid, including
  // c = 3, where c^2 does not divide p: each must price as c = 1.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GraphCensus census = take_census(ds);
  PredictInput in;
  in.census = &census;
  in.p = 8;
  in.chunks = 4;
  in.partitioner = "gvb";
  in.dims = tiny_config(ds).dims;
  for (const char* name : kOneD) {
    const auto strategy = strategy_registry().create(name);
    in.c = 1;
    const PredictedCost one = strategy->predict_cost(in);
    ASSERT_TRUE(one.valid) << name;
    for (int c : {2, 3}) {
      in.c = c;
      const PredictedCost other = strategy->predict_cost(in);
      ASSERT_TRUE(other.valid) << name << " c=" << c;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(other.seconds()),
                std::bit_cast<std::uint64_t>(one.seconds()))
          << name << " c=" << c;
      EXPECT_EQ(other.depth, one.depth) << name << " c=" << c;
    }
  }
}

TEST(OneDStrategies, TrainingIgnoresC) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const auto train = [&](const char* name, int c) {
    auto trainer = TrainerBuilder(ds)
                       .strategy(name)
                       .ranks(4, c)
                       .partitioner("gvb")
                       .gcn(tiny_config(ds, 2))
                       .build();
    trainer->train();
    return trainer->result();
  };
  for (const char* name : kOneD) {
    const TrainResult one = train(name, 1);
    const TrainResult two = train(name, 2);
    ASSERT_EQ(two.epochs.size(), one.epochs.size()) << name;
    for (std::size_t e = 0; e < one.epochs.size(); ++e) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(two.epochs[e].loss),
                std::bit_cast<std::uint64_t>(one.epochs[e].loss))
          << name << " epoch " << e;
    }
    EXPECT_EQ(two.pipeline_stages, one.pipeline_stages) << name;
    ASSERT_EQ(two.phase_volumes.size(), one.phase_volumes.size()) << name;
    for (const auto& [phase, vol] : one.phase_volumes) {
      ASSERT_TRUE(two.phase_volumes.count(phase)) << name << " " << phase;
      EXPECT_EQ(two.phase_volumes.at(phase).megabytes_per_epoch,
                vol.megabytes_per_epoch)
          << name << " " << phase;
      EXPECT_EQ(two.phase_volumes.at(phase).messages_per_epoch,
                vol.messages_per_epoch)
          << name << " " << phase;
    }
  }
}

/// Phases recorded by one forward + one backward propagate of "1d-overlap"
/// at K = `chunks` on 4 ranks (8-wide features, so K <= 8 never clamps).
std::vector<std::string> overlap_phase_names(int chunks) {
  Rng rng(7);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(32, 160, rng));
  const auto ranges = uniform_block_ranges(32, 4);
  const Matrix h = Matrix::random_uniform(32, 8, rng);
  StrategyContext ctx;
  ctx.p = 4;
  ctx.adjacency = &a;
  ctx.ranges = ranges;
  ctx.pipeline_chunks = chunks;
  Cluster cluster(4);
  cluster.run([&](Comm& comm) {
    const auto strategy = strategy_registry().create("1d-overlap");
    strategy->setup(comm, ctx);
    strategy->begin_epoch();
    const BlockRange& r = strategy->my_range();
    const Matrix z =
        strategy->propagate_forward(h.slice_rows(r.begin, r.end), nullptr);
    (void)strategy->propagate_backward(z, nullptr);
  });
  return cluster.traffic().phase_names();
}

TEST(OneDStrategies, OverlapStageIdsRestartEveryPropagate) {
  // A single chunk records the plain bulk phase; K chunks record stages
  // 0..K-1 however many propagates ran.
  EXPECT_EQ(overlap_phase_names(1),
            (std::vector<std::string>{"alltoall", "index_exchange"}));
  EXPECT_EQ(overlap_phase_names(4),
            (std::vector<std::string>{"alltoall#0", "alltoall#1", "alltoall#2",
                                      "alltoall#3", "index_exchange"}));
}

}  // namespace
}  // namespace sagnn
