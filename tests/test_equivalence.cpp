// The paper's accuracy-parity claim (§6.2): sparsity-aware and oblivious
// distributed training compute the same math as serial training, so losses
// and accuracies agree to floating-point reordering tolerance — across all
// algorithms, all partitioners, and several process geometries. The
// registry-driven suite at the bottom re-derives its case list from the
// strategy and partitioner registries, so every implementation added later
// is automatically held to the same parity bar.
#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <tuple>

#include "gnn/serial_trainer.hpp"
#include "gnn/strategy.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"
#include "partition/partitioner_registry.hpp"

namespace sagnn {
namespace {

struct EqCase {
  const char* strategy;
  int p;
  int c;
  const char* partitioner;
};

// ctest names each case after gtest's print of its parameter; print the
// fields as text (the default raw-byte dump includes pointer values).
void PrintTo(const EqCase& c, std::ostream* os) {
  *os << c.strategy << " p=" << c.p << " c=" << c.c << " " << c.partitioner;
}

class DistMatchesSerial : public ::testing::TestWithParam<EqCase> {};

TEST_P(DistMatchesSerial, LossTrajectoriesAgree) {
  const EqCase c = GetParam();
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const int epochs = 5;

  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, epochs);
  cfg.learning_rate = 0.3f;

  SerialTrainer serial(ds, cfg);
  const auto serial_metrics = serial.train();

  auto trainer = TrainerBuilder(ds)
                     .strategy(c.strategy)
                     .ranks(c.p, c.c)
                     .partitioner(c.partitioner)
                     .gcn(cfg)
                     .build();
  trainer->train();
  const TrainResult dist = trainer->result();

  ASSERT_EQ(dist.epochs.size(), serial_metrics.size());
  for (std::size_t e = 0; e < serial_metrics.size(); ++e) {
    // float32 accumulation-order differences grow slowly with epochs; the
    // trajectories must stay within a tight relative band.
    EXPECT_NEAR(dist.epochs[e].loss, serial_metrics[e].loss,
                5e-3 * std::max(1.0, serial_metrics[e].loss))
        << "epoch " << e;
    EXPECT_NEAR(dist.epochs[e].train_accuracy, serial_metrics[e].train_accuracy,
                0.02)
        << "epoch " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DistMatchesSerial,
    ::testing::Values(
        // 1D algorithms across partitioners and p.
        EqCase{"1d-oblivious", 1, 1, "block"},
        EqCase{"1d-oblivious", 4, 1, "block"},
        EqCase{"1d-oblivious", 4, 1, "metis"},
        EqCase{"1d-sparse", 4, 1, "block"},
        EqCase{"1d-sparse", 4, 1, "random"},
        EqCase{"1d-sparse", 4, 1, "metis"},
        EqCase{"1d-sparse", 4, 1, "gvb"},
        EqCase{"1d-sparse", 7, 1, "metis"},
        EqCase{"1d-sparse", 8, 1, "gvb"},
        // 1.5D algorithms with c in {1, 2} and both partitioner families.
        EqCase{"1.5d-oblivious", 4, 2, "block"},
        EqCase{"1.5d-oblivious", 8, 2, "metis"},
        EqCase{"1.5d-sparse", 4, 1, "block"},
        EqCase{"1.5d-sparse", 4, 2, "metis"},
        EqCase{"1.5d-sparse", 8, 2, "gvb"},
        EqCase{"1.5d-sparse", 16, 2, "gvb"}));

// ---- Registry-driven sweep: EVERY registered (strategy x partitioner) ----
// pair must reproduce the serial loss trajectory through TrainerBuilder.

class RegistryPairMatchesSerial
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(RegistryPairMatchesSerial, LossTrajectoriesAgree) {
  const auto& [strategy, partitioner] = GetParam();
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const int epochs = 3;
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, epochs);
  cfg.learning_rate = 0.3f;

  auto serial = TrainerBuilder(ds).strategy("serial").gcn(cfg).build();
  const auto serial_metrics = serial->train();

  // p = 4 satisfies every registered geometry (any p for 1D, c^2 | p for
  // 1.5D with c = 2).
  const int c = strategy.rfind("1.5d", 0) == 0 ? 2 : 1;
  auto trainer = TrainerBuilder(ds)
                     .strategy(strategy)
                     .ranks(4, c)
                     .partitioner(partitioner)
                     .gcn(cfg)
                     .build();
  const auto& dist = trainer->train();

  ASSERT_EQ(dist.size(), serial_metrics.size());
  for (std::size_t e = 0; e < serial_metrics.size(); ++e) {
    EXPECT_NEAR(dist[e].loss, serial_metrics[e].loss,
                5e-3 * std::max(1.0, serial_metrics[e].loss))
        << "epoch " << e;
    EXPECT_NEAR(dist[e].train_accuracy, serial_metrics[e].train_accuracy, 0.02)
        << "epoch " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredPairs, RegistryPairMatchesSerial,
    ::testing::Combine(::testing::ValuesIn(strategy_registry().names()),
                       ::testing::ValuesIn(partitioner_registry().names())),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>&
           info) {
      std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(Equivalence, ObliviousAndSparseProduceSameTrajectory) {
  // Same partitioner, same geometry: only the communication pattern
  // differs, so the two modes must agree with each other even more tightly
  // than with serial.
  const Dataset ds = make_protein_sim(DatasetScale::kTiny);
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, 4);
  auto run = [&](const char* strategy) {
    auto trainer = TrainerBuilder(ds)
                       .strategy(strategy)
                       .ranks(4)
                       .partitioner("metis")
                       .gcn(cfg)
                       .build();
    trainer->train();
    return trainer->result();
  };
  const TrainResult oblivious = run("1d-oblivious");
  const TrainResult sparse = run("1d-sparse");

  for (std::size_t e = 0; e < oblivious.epochs.size(); ++e) {
    EXPECT_NEAR(oblivious.epochs[e].loss, sparse.epochs[e].loss, 1e-4);
  }
}

}  // namespace
}  // namespace sagnn
