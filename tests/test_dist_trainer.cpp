// Distributed trainer plumbing: configurations run, metrics flow, volumes
// and modeled costs are populated, option validation.
#include <gtest/gtest.h>

#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"

namespace sagnn {
namespace {

TrainConfig base_config(const Dataset& ds, const char* strategy, int epochs = 3) {
  TrainConfig cfg;
  cfg.gcn = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, epochs);
  cfg.gcn.learning_rate = 0.3f;
  cfg.strategy = strategy;
  return cfg;
}

TrainResult run_distributed(const Dataset& ds, const TrainConfig& cfg) {
  auto trainer = TrainerBuilder(ds).config(cfg).build();
  trainer->train();
  return trainer->result();
}

TEST(DistTrainer, RunsAllAlgorithmsAndPartitioners) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  for (const char* strategy :
       {"1d-oblivious", "1d-sparse", "1.5d-oblivious", "1.5d-sparse"}) {
    for (const char* partitioner : {"block", "random", "metis", "gvb"}) {
      SCOPED_TRACE(std::string(strategy) + " + " + partitioner);
      TrainConfig cfg = base_config(ds, strategy, 2);
      cfg.p = 4;
      cfg.c = std::string(strategy).rfind("1.5d", 0) == 0 ? 2 : 1;
      cfg.partitioner = partitioner;
      const auto result = run_distributed(ds, cfg);
      ASSERT_EQ(result.epochs.size(), 2u);
      EXPECT_GT(result.epochs[0].loss, 0.0);
      EXPECT_GE(result.modeled_epoch.total(), 0.0);
    }
  }
}

TEST(DistTrainer, LossDecreases) {
  const Dataset ds = make_protein_sim(DatasetScale::kTiny);
  TrainConfig cfg = base_config(ds, "1d-sparse", 15);
  cfg.p = 4;
  cfg.partitioner = "metis";
  const auto result = run_distributed(ds, cfg);
  EXPECT_LT(result.epochs.back().loss, 0.9 * result.epochs.front().loss);
}

TEST(DistTrainer, PhaseVolumesMatchAlgorithmKind) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  TrainConfig cfg = base_config(ds, "1d-oblivious", 2);
  cfg.p = 4;

  const auto oblivious = run_distributed(ds, cfg);
  EXPECT_GT(oblivious.phase_volumes.at("bcast").megabytes_per_epoch, 0.0);
  EXPECT_EQ(oblivious.phase_volumes.count("alltoall"), 0u);

  cfg.strategy = "1d-sparse";
  const auto sparse = run_distributed(ds, cfg);
  EXPECT_GT(sparse.phase_volumes.at("alltoall").megabytes_per_epoch, 0.0);
  EXPECT_EQ(sparse.phase_volumes.count("bcast"), 0u);
  EXPECT_GT(sparse.setup_megabytes, 0.0);
}

TEST(DistTrainer, SparsityAwareCommunicatesLessWithPartitioning) {
  // The headline mechanism: SA+partitioner moves fewer bytes per epoch than
  // the oblivious baseline on a partitionable graph.
  const Dataset ds = make_protein_sim(DatasetScale::kTiny);
  TrainConfig cfg = base_config(ds, "1d-oblivious", 2);
  cfg.p = 4;
  cfg.partitioner = "block";
  const double oblivious_mb =
      run_distributed(ds, cfg).phase_volumes.at("bcast").megabytes_per_epoch;

  cfg.strategy = "1d-sparse";
  cfg.partitioner = "gvb";
  const double sa_mb =
      run_distributed(ds, cfg).phase_volumes.at("alltoall").megabytes_per_epoch;

  EXPECT_LT(sa_mb, oblivious_mb);
}

TEST(DistTrainer, VolumeModelPopulated) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  TrainConfig cfg = base_config(ds, "1d-sparse", 1);
  cfg.p = 4;
  cfg.partitioner = "metis";
  const auto result = run_distributed(ds, cfg);
  EXPECT_EQ(result.volume_model.k, 4);
  EXPECT_GT(result.volume_model.total_rows(), 0u);
  EXPECT_GE(result.partition_wall_seconds, 0.0);
}

TEST(DistTrainer, Runs2dAlgorithms) {
  // "2d-sparse" is an alias of "2d-oblivious": the same strategy, so the
  // same losses bit for bit and the same traffic.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  std::vector<TrainResult> results;
  for (const char* strategy : {"2d-oblivious", "2d-sparse"}) {
    TrainConfig cfg = base_config(ds, strategy, 2);
    cfg.p = 9;  // 3x3 grid
    cfg.partitioner = "metis";
    results.push_back(run_distributed(ds, cfg));
    EXPECT_EQ(results.back().epochs.size(), 2u);
    // The 2D algorithm always pays its Z all-reduce.
    EXPECT_GT(results.back().phase_volumes.at("allreduce").megabytes_per_epoch,
              0.0);
  }
  for (std::size_t e = 0; e < results[0].epochs.size(); ++e) {
    EXPECT_EQ(results[0].epochs[e].loss, results[1].epochs[e].loss) << e;
  }
  ASSERT_EQ(results[0].phase_volumes.size(), results[1].phase_volumes.size());
  for (const auto& [phase, vol] : results[0].phase_volumes) {
    const auto& other = results[1].phase_volumes.at(phase);
    EXPECT_EQ(vol.megabytes_per_epoch, other.megabytes_per_epoch) << phase;
    EXPECT_EQ(vol.messages_per_epoch, other.messages_per_epoch) << phase;
  }
}

TEST(DistTrainer, Rejects2dNonSquare) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  TrainConfig cfg = base_config(ds, "2d-oblivious", 1);
  cfg.p = 8;
  EXPECT_THROW(run_distributed(ds, cfg), Error);
}

TEST(DistTrainer, RejectsBadGrid) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  TrainConfig cfg = base_config(ds, "1.5d-sparse", 1);
  cfg.p = 6;
  cfg.c = 2;  // c^2 = 4 does not divide 6
  EXPECT_THROW(run_distributed(ds, cfg), Error);
}

TEST(DistTrainer, RejectsMismatchedGcnDims) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  TrainConfig cfg = base_config(ds, "1d-sparse", 1);
  cfg.gcn.dims.back() += 1;
  EXPECT_THROW(run_distributed(ds, cfg), Error);
}

}  // namespace
}  // namespace sagnn
