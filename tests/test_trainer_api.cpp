// The unified Trainer/TrainerBuilder API: registry resolution and error
// reporting, polymorphic use of all trainer kinds, epoch-at-a-time
// stepping vs whole-run training, and every registered name and alias.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "gnn/distributed_trainer.hpp"
#include "gnn/sampled_trainer.hpp"
#include "gnn/serial_trainer.hpp"
#include "gnn/strategy.hpp"
#include "graph/datasets.hpp"
#include "partition/partitioner_registry.hpp"

namespace sagnn {
namespace {

GcnConfig tiny_config(const Dataset& ds, int epochs = 3) {
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, epochs);
  cfg.learning_rate = 0.3f;
  return cfg;
}

TEST(StrategyRegistry, ListsAllPaperAlgorithms) {
  const auto names = strategy_registry().names();
  for (const char* expected :
       {"1d-oblivious", "1d-sparse", "1d-overlap", "1.5d-oblivious",
        "1.5d-sparse", "1.5d-overlap"}) {
    EXPECT_TRUE(strategy_registry().contains(expected)) << expected;
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(StrategyRegistry, CanonicalNameRoundTrips) {
  for (const auto& name : strategy_registry().names()) {
    EXPECT_EQ(strategy_registry().create(name)->name(), name);
  }
}

TEST(StrategyRegistry, AcceptsHistoricalAliases) {
  // Every canonical name and alias of all six strategies, with the
  // canonical name() it builds — including the descriptive forms older
  // callers printed ("1d-oblivious(cagnet)", "1d-sparsity-aware", ...).
  const std::pair<const char*, const char*> table[] = {
      {"1d-oblivious", "1d-oblivious"},
      {"1d-oblivious(cagnet)", "1d-oblivious"},
      {"cagnet", "1d-oblivious"},
      {"1d-sparse", "1d-sparse"},
      {"1d-sparsity-aware", "1d-sparse"},
      {"1d-overlap", "1d-overlap"},
      {"1d-pipelined", "1d-overlap"},
      {"1.5d-oblivious", "1.5d-oblivious"},
      {"1.5d-sparse", "1.5d-sparse"},
      {"1.5d-sparsity-aware", "1.5d-sparse"},
      {"1.5d-overlap", "1.5d-overlap"},
      {"15d-overlap", "1.5d-overlap"},
      {"1.5d-pipelined", "1.5d-overlap"},
  };
  for (const auto& [name, canonical] : table) {
    EXPECT_EQ(strategy_registry().create(name)->name(), canonical) << name;
    EXPECT_EQ(strategy_registry().canonical(name), canonical) << name;
  }
  EXPECT_EQ(strategy_registry().names().size(), 6u);
  // No name of the removed 2D and 3D strategies resolves.
  for (const char* removed :
       {"2d-oblivious", "2d-oblivious(summa)", "summa", "2d-sparse",
        "2d-sparsity-aware", "3d", "3d-comm-avoiding"}) {
    EXPECT_FALSE(strategy_registry().contains(removed)) << removed;
    EXPECT_THROW(strategy_registry().create(removed), UnknownNameError) << removed;
  }
}

TEST(StrategyRegistry, UnknownNameListsRegisteredStrategies) {
  try {
    strategy_registry().create("3d-sparse");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("3d-sparse"), std::string::npos);
    EXPECT_NE(what.find("1d-sparse"), std::string::npos);
    EXPECT_NE(what.find("1.5d-overlap"), std::string::npos);
  }
}

TEST(TrainerBuilder, BuildsEveryModePolymorphically) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GcnConfig cfg = tiny_config(ds, 2);
  SamplingConfig sampling;
  sampling.fanouts.assign(static_cast<std::size_t>(cfg.n_layers()), 5);

  std::vector<std::unique_ptr<Trainer>> trainers;
  trainers.push_back(TrainerBuilder(ds).strategy("serial").gcn(cfg).build());
  trainers.push_back(
      TrainerBuilder(ds).strategy("sampled").sampling(sampling).gcn(cfg).build());
  trainers.push_back(TrainerBuilder(ds)
                         .strategy("1d-sparse")
                         .ranks(4)
                         .partitioner("metis")
                         .gcn(cfg)
                         .build());
  for (auto& trainer : trainers) {
    const auto& metrics = trainer->train();
    EXPECT_EQ(metrics.size(), 2u) << trainer->name();
    EXPECT_EQ(trainer->epochs_run(), 2) << trainer->name();
    EXPECT_GT(trainer->result().epochs.front().loss, 0.0) << trainer->name();
  }
}

TEST(TrainerBuilder, DerivesGcnDimsFromDataset) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  auto trainer = TrainerBuilder(ds).epochs(1).build();  // no dims given
  EXPECT_EQ(trainer->train().size(), 1u);
}

TEST(TrainerBuilder, UnknownStrategyThrowsInvalidArgument) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  EXPECT_THROW(TrainerBuilder(ds).strategy("3d-sparse").gcn(tiny_config(ds)).build(),
               std::invalid_argument);
}

TEST(TrainerBuilder, UnknownPartitionerThrowsInvalidArgument) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  EXPECT_THROW(TrainerBuilder(ds)
                   .strategy("1d-sparse")
                   .partitioner("zoltan")
                   .gcn(tiny_config(ds))
                   .build(),
               std::invalid_argument);
}

TEST(DistributedTrainer, EpochSteppingMatchesWholeRun) {
  // Per-rank state (weights, communicators, index exchange) persists
  // across run_epoch() calls, so stepping must be indistinguishable from
  // one train() call.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GcnConfig cfg = tiny_config(ds, 4);

  auto whole = TrainerBuilder(ds)
                   .strategy("1d-sparse")
                   .ranks(4)
                   .partitioner("gvb")
                   .gcn(cfg)
                   .build();
  const auto whole_metrics = whole->train();

  auto stepped = TrainerBuilder(ds)
                     .strategy("1d-sparse")
                     .ranks(4)
                     .partitioner("gvb")
                     .gcn(cfg)
                     .build();
  std::vector<EpochMetrics> step_metrics;
  for (int e = 0; e < 2; ++e) step_metrics.push_back(stepped->run_epoch());
  // Finish through train(): it must run exactly the remaining epochs.
  const auto& all = stepped->train();
  ASSERT_EQ(all.size(), whole_metrics.size());
  for (std::size_t e = 0; e < all.size(); ++e) {
    EXPECT_DOUBLE_EQ(all[e].loss, whole_metrics[e].loss) << "epoch " << e;
  }
  EXPECT_DOUBLE_EQ(step_metrics[1].loss, all[1].loss);

  // result() reflects exactly the epochs run; per-epoch volumes agree with
  // the whole-run report.
  const TrainResult& a = stepped->result();
  const TrainResult& b = whole->result();
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (const auto& [phase, vol] : b.phase_volumes) {
    ASSERT_TRUE(a.phase_volumes.count(phase)) << phase;
    EXPECT_DOUBLE_EQ(a.phase_volumes.at(phase).megabytes_per_epoch,
                     vol.megabytes_per_epoch)
        << phase;
  }
}

TEST(DistributedTrainer, ResultAfterPartialRunAveragesRunEpochs) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  auto trainer = TrainerBuilder(ds)
                     .strategy("1d-sparse")
                     .ranks(4)
                     .gcn(tiny_config(ds, 5))
                     .build();
  (void)trainer->run_epoch();
  (void)trainer->run_epoch();
  const TrainResult& partial = trainer->result();
  EXPECT_EQ(partial.epochs.size(), 2u);
  EXPECT_GT(partial.phase_volumes.at("alltoall").megabytes_per_epoch, 0.0);
}

TEST(DistributedTrainer, PartialSteppingReportsCompletedEpochs) {
  // Regression: a run configured for 10 epochs but stopped after 3 via
  // run_epoch() stepping must report the COMPLETED count everywhere —
  // trajectory length, epochs_completed, and every per-epoch average. An
  // identically-configured 3-epoch whole run is the ground truth: traffic
  // is deterministic, so the per-epoch volumes must match to the bit.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  auto stepped = TrainerBuilder(ds)
                     .strategy("1d-sparse")
                     .ranks(4)
                     .partitioner("gvb")
                     .gcn(tiny_config(ds, 10))
                     .build();
  for (int e = 0; e < 3; ++e) (void)stepped->run_epoch();
  const TrainResult& partial = stepped->result();
  EXPECT_EQ(partial.epochs_completed(), 3);
  ASSERT_EQ(partial.epochs.size(), 3u);

  auto whole = TrainerBuilder(ds)
                   .strategy("1d-sparse")
                   .ranks(4)
                   .partitioner("gvb")
                   .gcn(tiny_config(ds, 3))
                   .build();
  whole->train();
  const TrainResult& full = whole->result();
  EXPECT_EQ(full.epochs_completed(), 3);
  ASSERT_EQ(partial.phase_volumes.size(), full.phase_volumes.size());
  for (const auto& [phase, vol] : full.phase_volumes) {
    ASSERT_TRUE(partial.phase_volumes.count(phase)) << phase;
    EXPECT_DOUBLE_EQ(partial.phase_volumes.at(phase).megabytes_per_epoch,
                     vol.megabytes_per_epoch)
        << phase;
    EXPECT_DOUBLE_EQ(partial.phase_volumes.at(phase).messages_per_epoch,
                     vol.messages_per_epoch)
        << phase;
  }
}

TEST(Trainer, EveryModeReportsCompletedEpochCount) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GcnConfig cfg = tiny_config(ds, 4);
  SamplingConfig sampling;
  sampling.fanouts.assign(static_cast<std::size_t>(cfg.n_layers()), 5);

  std::vector<std::unique_ptr<Trainer>> trainers;
  trainers.push_back(TrainerBuilder(ds).strategy("serial").gcn(cfg).build());
  trainers.push_back(
      TrainerBuilder(ds).strategy("sampled").sampling(sampling).gcn(cfg).build());
  trainers.push_back(
      TrainerBuilder(ds).strategy("1d-sparse").ranks(4).gcn(cfg).build());
  for (auto& trainer : trainers) {
    (void)trainer->run_epoch();
    EXPECT_EQ(trainer->result().epochs_completed(), 1) << trainer->name();
    trainer->train();
    EXPECT_EQ(trainer->result().epochs_completed(), 4) << trainer->name();
  }
}

TEST(PartitionerRegistryApi, NamesAreTheSupportedVocabulary) {
  const auto names = partitioner_registry().names();
  EXPECT_EQ(names, (std::vector<std::string>{"block", "gvb", "metis", "random"}));
}

TEST(PartitionerRegistryApi, UnknownNameListsRegisteredPartitioners) {
  // Error-path parity with the strategy registry: std::invalid_argument
  // whose message names the offender and every registered choice — via the
  // registry directly and via the make_partitioner() wrapper.
  for (auto create : {+[] { (void)partitioner_registry().create(
                          "zoltan", PartitionerOptions{}); },
                      +[] { (void)make_partitioner("zoltan"); }}) {
    try {
      create();
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("zoltan"), std::string::npos);
      for (const auto& name : partitioner_registry().names()) {
        EXPECT_NE(what.find(name), std::string::npos) << name;
      }
    }
  }
}

TEST(StrategyRegistry, UnknownNameListsEveryRegisteredStrategy) {
  // The full-vocabulary counterpart of UnknownNameListsRegisteredStrategies:
  // late-added strategies (e.g. "1d-overlap") must appear too.
  try {
    strategy_registry().create("bogus-strategy");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus-strategy"), std::string::npos);
    for (const auto& name : strategy_registry().names()) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

}  // namespace
}  // namespace sagnn
