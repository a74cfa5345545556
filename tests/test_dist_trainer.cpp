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

TEST(DistTrainer, RejectsBadGrid) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  TrainConfig cfg = base_config(ds, "1.5d-sparse", 1);
  cfg.p = 6;
  cfg.c = 2;  // c^2 = 4 does not divide 6
  EXPECT_THROW(run_distributed(ds, cfg), Error);
}

TEST(DistTrainer, NameShowsTheReplicationFactorThatRuns) {
  // The 1D strategies run c = 1 whatever c the job asks for, so their name
  // carries no ",c=" suffix; the 1.5D strategies run the requested c.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GcnConfig gcn = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, 1);
  const auto name_at_c2 = [&](const char* strategy) {
    return TrainerBuilder(ds).strategy(strategy).ranks(4, 2).gcn(gcn).build()->name();
  };
  EXPECT_EQ(name_at_c2("1d-sparse"), "1d-sparse+block@p=4");
  EXPECT_EQ(name_at_c2("1.5d-sparse"), "1.5d-sparse+block@p=4,c=2");
}

TEST(DistTrainer, RejectsMismatchedGcnDims) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  TrainConfig cfg = base_config(ds, "1d-sparse", 1);
  cfg.gcn.dims.back() += 1;
  EXPECT_THROW(run_distributed(ds, cfg), Error);
}

}  // namespace
}  // namespace sagnn
