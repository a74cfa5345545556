// Golden-trajectory regression for the kernel-format knob: flipping
// TrainConfig::kernels to SELL-C-sigma must change NOTHING observable —
// end-to-end loss/accuracy trajectories bitwise identical and per-phase
// communication volumes exactly equal, for EVERY registered
// (strategy x partitioner) pair (the case list is re-derived from the
// registries, so strategies added later are automatically held to the same
// bar with zero edits here), for the serial and sampled built-in modes,
// and for the serving engine's full_forward/infer_batch chain.
//
// Suites are prefixed "KernelsGolden" so the sanitizer CI jobs can select
// them by regex alongside the kernel parity suites.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>

#include "gnn/serial_trainer.hpp"
#include "gnn/strategy.hpp"
#include "graph/datasets.hpp"
#include "partition/partitioner_registry.hpp"
#include "serve/graph_mutator.hpp"
#include "serve/inference_engine.hpp"

namespace sagnn {
namespace {

KernelConfig sell_config() {
  KernelConfig cfg;
  cfg.format = SpmmFormat::kSell;
  // Deliberately small chunk/sigma so tiny datasets still exercise several
  // chunks and sorting windows.
  cfg.sell_chunk = 8;
  cfg.sell_sigma = 16;
  return cfg;
}

GcnConfig tiny_gcn(const Dataset& ds, int epochs) {
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, epochs);
  cfg.learning_rate = 0.3f;
  return cfg;
}

/// EXACT equality of two runs: trajectories bit for bit, volumes to the
/// last byte. No tolerance — the knob's contract is bitwise neutrality.
void expect_identical_results(const TrainResult& csr, const TrainResult& sell) {
  ASSERT_EQ(csr.epochs.size(), sell.epochs.size());
  for (std::size_t e = 0; e < csr.epochs.size(); ++e) {
    EXPECT_EQ(csr.epochs[e].loss, sell.epochs[e].loss) << "epoch " << e;
    EXPECT_EQ(csr.epochs[e].train_accuracy, sell.epochs[e].train_accuracy)
        << "epoch " << e;
  }
  ASSERT_EQ(csr.phase_volumes.size(), sell.phase_volumes.size());
  for (const auto& [phase, vol] : csr.phase_volumes) {
    const auto it = sell.phase_volumes.find(phase);
    ASSERT_NE(it, sell.phase_volumes.end()) << "phase " << phase;
    EXPECT_EQ(vol.megabytes_per_epoch, it->second.megabytes_per_epoch)
        << "phase " << phase;
    EXPECT_EQ(vol.messages_per_epoch, it->second.messages_per_epoch)
        << "phase " << phase;
  }
}

// ---- Registry-driven sweep: EVERY registered (strategy x partitioner) ----

class KernelsGoldenRegistrySweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(KernelsGoldenRegistrySweep, SellTrajectoryBitwiseEqualsCsr) {
  const auto& [strategy, partitioner] = GetParam();
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GcnConfig gcn = tiny_gcn(ds, 3);
  // p = 4 satisfies every registered geometry (any p for 1D, c^2 | p for
  // 1.5D with c = 2).
  const int c = strategy.rfind("1.5d", 0) == 0 ? 2 : 1;

  auto run = [&](const KernelConfig& kernels) {
    auto trainer = TrainerBuilder(ds)
                       .strategy(strategy)
                       .ranks(4, c)
                       .partitioner(partitioner)
                       .gcn(gcn)
                       .kernels(kernels)
                       .build();
    trainer->train();
    return trainer->result();
  };
  expect_identical_results(run(KernelConfig{}), run(sell_config()));
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredPairs, KernelsGoldenRegistrySweep,
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

// ---- Built-in single-rank modes ----

TEST(KernelsGolden, SerialTrajectoryBitwiseEqualsCsr) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GcnConfig gcn = tiny_gcn(ds, 4);
  auto run = [&](const KernelConfig& kernels) {
    auto trainer =
        TrainerBuilder(ds).strategy("serial").gcn(gcn).kernels(kernels).build();
    trainer->train();
    return trainer->result();
  };
  expect_identical_results(run(KernelConfig{}), run(sell_config()));
}

TEST(KernelsGolden, SampledTrajectoryBitwiseEqualsCsr) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GcnConfig gcn = tiny_gcn(ds, 3);
  SamplingConfig sampling;
  sampling.batch_size = 32;
  sampling.fanouts = {4, 4, 4};
  auto run = [&](const KernelConfig& kernels) {
    auto trainer = TrainerBuilder(ds)
                       .strategy("sampled")
                       .gcn(gcn)
                       .sampling(sampling)
                       .kernels(kernels)
                       .build();
    trainer->train();
    return trainer->result();
  };
  expect_identical_results(run(KernelConfig{}), run(sell_config()));
}

// ---- Serving ----

TEST(KernelsGolden, ServingForwardBitwiseEqualAcrossFormats) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  auto trainer =
      TrainerBuilder(ds).strategy("serial").gcn(tiny_gcn(ds, 2)).build();
  trainer->train();
  const GcnModel& model = dynamic_cast<SerialTrainer&>(*trainer).model();

  serve::GraphMutator g_csr(ds.adjacency);
  serve::InferenceEngine csr(model, ds.features, g_csr, 1u << 20);
  serve::GraphMutator g_sell(ds.adjacency);
  serve::InferenceEngine sell(model, ds.features, g_sell, 1u << 20,
                              sell_config());

  // The SELL full forward must be bitwise equal to the CSR one (which the
  // serving suite already pins to the training forward)...
  const Matrix full_csr = csr.full_forward();
  const Matrix full_sell = sell.full_forward();
  ASSERT_TRUE(full_sell == full_csr);

  // ...and the per-node batch path on the SELL engine must still hit the
  // same bits, closing the chain batch == full_forward == training forward.
  std::vector<vid_t> nodes;
  for (vid_t v = 0; v < ds.n_vertices(); v += 3) nodes.push_back(v);
  const Matrix batch = sell.infer_batch(nodes);
  ASSERT_EQ(batch.n_rows(), static_cast<vid_t>(nodes.size()));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_TRUE(std::equal(batch.row(static_cast<vid_t>(i)),
                           batch.row(static_cast<vid_t>(i)) + batch.n_cols(),
                           full_sell.row(nodes[i])))
        << "node " << nodes[i];
  }
}

}  // namespace
}  // namespace sagnn
