// The checkpoint/restore contract of the unified Trainer API: training 2E
// epochs uninterrupted must equal E epochs + save + restore-in-a-fresh-
// trainer + E epochs, BITWISE — identical loss trajectory, final weights,
// and per-epoch phase volumes — for serial, sampled, and distributed modes
// at multiple thread counts. Elastic restarts (restore onto a different
// rank count) re-partition and must still track the serial trajectory.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <sstream>

#include "bench_support/experiment.hpp"
#include "ckpt/errors.hpp"
#include "ckpt/state_io.hpp"
#include "common/parallel.hpp"
#include "gnn/distributed_trainer.hpp"
#include "gnn/sampled_trainer.hpp"
#include "gnn/serial_trainer.hpp"
#include "graph/datasets.hpp"

namespace sagnn {
namespace {

GcnConfig ckpt_config(const Dataset& ds, int epochs) {
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, epochs);
  cfg.learning_rate = 0.3f;
  // Exercise the epoch-keyed deterministic dropout in the resume path.
  cfg.dropout = 0.2f;
  return cfg;
}

void expect_same_trajectory(const std::vector<EpochMetrics>& a,
                            const std::vector<EpochMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_DOUBLE_EQ(a[e].loss, b[e].loss) << "epoch " << e;
    EXPECT_DOUBLE_EQ(a[e].train_accuracy, b[e].train_accuracy) << "epoch " << e;
  }
}

void expect_same_weights(const GcnModel& a, const GcnModel& b) {
  ASSERT_EQ(a.n_layers(), b.n_layers());
  for (int l = 0; l < a.n_layers(); ++l) {
    EXPECT_TRUE(a.layer(l).weights() == b.layer(l).weights()) << "layer " << l;
  }
}

TEST(CkptTrainer, SerialResumeIsBitIdentical) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const int half = 3;
  const GcnConfig cfg = ckpt_config(ds, 2 * half);

  auto uninterrupted = TrainerBuilder(ds).strategy("serial").gcn(cfg).build();
  uninterrupted->train();

  auto first = TrainerBuilder(ds).strategy("serial").gcn(cfg).build();
  for (int e = 0; e < half; ++e) (void)first->run_epoch();
  std::stringstream snapshot;
  first->save(snapshot);
  first.reset();  // the "kill": only the snapshot and the dataset survive

  auto resumed = TrainerBuilder(ds).resume(snapshot);
  EXPECT_EQ(resumed->epochs_run(), half);
  resumed->train();

  expect_same_trajectory(resumed->result().epochs,
                         uninterrupted->result().epochs);
  expect_same_weights(dynamic_cast<SerialTrainer&>(*resumed).model(),
                      dynamic_cast<SerialTrainer&>(*uninterrupted).model());
}

TEST(CkptTrainer, SampledResumeContinuesRngStreamBitIdentically) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const int half = 2;
  const GcnConfig cfg = ckpt_config(ds, 2 * half);
  SamplingConfig sampling;
  sampling.batch_size = 16;
  sampling.fanouts.assign(static_cast<std::size_t>(cfg.n_layers()), 4);

  auto uninterrupted =
      TrainerBuilder(ds).strategy("sampled").sampling(sampling).gcn(cfg).build();
  uninterrupted->train();

  auto first =
      TrainerBuilder(ds).strategy("sampled").sampling(sampling).gcn(cfg).build();
  for (int e = 0; e < half; ++e) (void)first->run_epoch();
  std::stringstream snapshot;
  first->save(snapshot);
  first.reset();

  auto resumed = TrainerBuilder(ds).resume(snapshot);
  resumed->train();

  expect_same_trajectory(resumed->result().epochs,
                         uninterrupted->result().epochs);
  auto& a = dynamic_cast<SampledTrainer&>(*resumed);
  auto& b = dynamic_cast<SampledTrainer&>(*uninterrupted);
  expect_same_weights(a.model(), b.model());
  // The sampling-specific counters continue too (RNG stream position).
  ASSERT_EQ(a.train_detailed().size(), b.train_detailed().size());
  for (std::size_t e = 0; e < a.train_detailed().size(); ++e) {
    EXPECT_EQ(a.train_detailed()[e].sampled_edges,
              b.train_detailed()[e].sampled_edges)
        << "epoch " << e;
  }
}

struct DistCase {
  const char* strategy;
  int p;
  int c;
  const char* partitioner;
  int threads;
};

// ctest names each case after gtest's print of its parameter; print the
// fields as text (the default raw-byte dump includes pointer values).
void PrintTo(const DistCase& d, std::ostream* os) {
  *os << d.strategy << " p=" << d.p << " c=" << d.c << " " << d.partitioner;
  *os << " t=" << d.threads;
}

class CkptDistributedRoundTrip : public ::testing::TestWithParam<DistCase> {};

TEST_P(CkptDistributedRoundTrip, ResumeIsBitIdentical) {
  const DistCase param = GetParam();
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const int half = 3;
  const GcnConfig cfg = ckpt_config(ds, 2 * half);

  auto make_builder = [&] {
    return TrainerBuilder(ds)
        .strategy(param.strategy)
        .ranks(param.p, param.c)
        .partitioner(param.partitioner)
        .threads(param.threads)
        .gcn(cfg);
  };

  auto uninterrupted = make_builder().build();
  uninterrupted->train();

  auto first = make_builder().build();
  for (int e = 0; e < half; ++e) (void)first->run_epoch();
  std::stringstream snapshot;
  first->save(snapshot);
  first.reset();

  // Resume without re-stating the configuration: everything (strategy,
  // geometry, partitioner, epochs) comes from the snapshot.
  auto resumed = TrainerBuilder(ds).threads(param.threads).resume(snapshot);
  EXPECT_EQ(resumed->epochs_run(), half);
  resumed->train();

  expect_same_trajectory(resumed->result().epochs,
                         uninterrupted->result().epochs);
  expect_same_weights(dynamic_cast<DistributedTrainer&>(*resumed).model(),
                      dynamic_cast<DistributedTrainer&>(*uninterrupted).model());

  // Per-epoch phase volumes: the restored traffic history plus the resumed
  // epochs must equal the uninterrupted run to the bit.
  const TrainResult& a = resumed->result();
  const TrainResult& b = uninterrupted->result();
  ASSERT_EQ(a.phase_volumes.size(), b.phase_volumes.size());
  for (const auto& [phase, vol] : b.phase_volumes) {
    ASSERT_TRUE(a.phase_volumes.count(phase)) << phase;
    EXPECT_DOUBLE_EQ(a.phase_volumes.at(phase).megabytes_per_epoch,
                     vol.megabytes_per_epoch)
        << phase;
    EXPECT_DOUBLE_EQ(a.phase_volumes.at(phase).messages_per_epoch,
                     vol.messages_per_epoch)
        << phase;
  }
  EXPECT_EQ(a.pipeline_stages, b.pipeline_stages);
  set_parallel_threads(0);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndThreads, CkptDistributedRoundTrip,
    ::testing::Values(DistCase{"1d-sparse", 4, 1, "gvb", 1},
                      DistCase{"1d-sparse", 4, 1, "gvb", 4},
                      DistCase{"1d-overlap", 4, 1, "metis", 1},
                      DistCase{"1d-overlap", 4, 1, "metis", 4},
                      DistCase{"1.5d-sparse", 4, 2, "block", 1}),
    [](const ::testing::TestParamInfo<DistCase>& info) {
      std::string name = std::string(info.param.strategy) + "_" +
                         info.param.partitioner + "_t" +
                         std::to_string(info.param.threads);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(CkptTrainer, ElasticRestartOnFewerRanksTracksSerial) {
  // Snapshot a p=4 run, restore onto p'=2: the graph is re-partitioned,
  // the replicated weights carry over, and the continued trajectory must
  // still track the serial reference within float-reordering tolerance
  // (the same bar every distributed configuration is held to).
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const int half = 2, total = 5;
  const GcnConfig cfg = ckpt_config(ds, total);

  auto serial = TrainerBuilder(ds).strategy("serial").gcn(cfg).build();
  const auto serial_metrics = serial->train();

  auto first = TrainerBuilder(ds)
                   .strategy("1d-sparse")
                   .ranks(4)
                   .partitioner("gvb")
                   .gcn(cfg)
                   .build();
  for (int e = 0; e < half; ++e) (void)first->run_epoch();
  std::stringstream snapshot;
  first->save(snapshot);
  first.reset();

  auto resumed = TrainerBuilder(ds).ranks(2).resume(snapshot);
  auto& dist = dynamic_cast<DistributedTrainer&>(*resumed);
  EXPECT_EQ(dist.config().p, 2);
  EXPECT_EQ(resumed->epochs_run(), half);
  resumed->train();

  const auto& metrics = resumed->result().epochs;
  ASSERT_EQ(metrics.size(), serial_metrics.size());
  for (std::size_t e = 0; e < metrics.size(); ++e) {
    EXPECT_NEAR(metrics[e].loss, serial_metrics[e].loss,
                5e-3 * std::max(1.0, serial_metrics[e].loss))
        << "epoch " << e;
    EXPECT_NEAR(metrics[e].train_accuracy, serial_metrics[e].train_accuracy,
                0.02)
        << "epoch " << e;
  }
  // Per-epoch volumes now describe the p'=2 geometry, averaged over the
  // post-restart epochs only.
  EXPECT_GT(resumed->result().phase_volumes.at("alltoall").megabytes_per_epoch,
            0.0);
}

TEST(CkptTrainer, ElasticThenSameGeometryResumeKeepsTrafficBase) {
  // A snapshot taken AFTER an elastic restart records a traffic history
  // that only covers the post-restart epochs. A later same-geometry
  // resume must inherit that base: per-epoch volumes keep dividing by the
  // epochs the recorder actually covers, not the total epoch count.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GcnConfig cfg = ckpt_config(ds, 6);

  auto first = TrainerBuilder(ds)
                   .strategy("1d-sparse")
                   .ranks(4)
                   .partitioner("gvb")
                   .gcn(cfg)
                   .build();
  for (int e = 0; e < 2; ++e) (void)first->run_epoch();
  std::stringstream snap_p4;
  first->save(snap_p4);

  auto elastic = TrainerBuilder(ds).ranks(2).resume(snap_p4);
  for (int e = 0; e < 2; ++e) (void)elastic->run_epoch();
  std::stringstream snap_p2;
  elastic->save(snap_p2);

  auto resumed = TrainerBuilder(ds).resume(snap_p2);  // same geometry as p2
  resumed->train();  // epochs 5 and 6
  ASSERT_EQ(resumed->result().epochs_completed(), 6);

  // Ground truth: per-epoch traffic of a fresh p=2 run (epoch-invariant
  // for full-batch training). The resumed run's recorder covers epochs
  // 3..6 and must average over exactly those 4.
  auto fresh = TrainerBuilder(ds)
                   .strategy("1d-sparse")
                   .ranks(2)
                   .partitioner("gvb")
                   .gcn(cfg)
                   .build();
  (void)fresh->run_epoch();
  EXPECT_DOUBLE_EQ(
      resumed->result().phase_volumes.at("alltoall").megabytes_per_epoch,
      fresh->result().phase_volumes.at("alltoall").megabytes_per_epoch);
}

TEST(CkptTrainer, ElasticRestartOnMoreRanksResumesTraining) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GcnConfig cfg = ckpt_config(ds, 4);
  auto first =
      TrainerBuilder(ds).strategy("1d-sparse").ranks(2).gcn(cfg).build();
  (void)first->run_epoch();
  std::stringstream snapshot;
  first->save(snapshot);

  auto resumed = TrainerBuilder(ds).ranks(8).partitioner("metis").resume(snapshot);
  resumed->train();
  EXPECT_EQ(resumed->result().epochs_completed(), 4);
  EXPECT_EQ(dynamic_cast<DistributedTrainer&>(*resumed).config().p, 8);
}

TEST(CkptTrainer, SamePButDifferentPartitionerRestartsTrafficAccounting) {
  // Equal rank count is NOT enough to adopt the snapshot's communication
  // history: a different partitioner changes the permutation and halos,
  // so the resume must take the elastic path — per-epoch volumes then
  // cover only the post-restart epochs under the NEW layout, matching a
  // fresh same-config run exactly.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GcnConfig cfg = ckpt_config(ds, 4);
  auto first = TrainerBuilder(ds)
                   .strategy("1d-sparse")
                   .ranks(4)
                   .partitioner("gvb")
                   .gcn(cfg)
                   .build();
  (void)first->run_epoch();
  (void)first->run_epoch();
  std::stringstream snapshot;
  first->save(snapshot);

  auto resumed = TrainerBuilder(ds).partitioner("metis").resume(snapshot);
  resumed->train();
  ASSERT_EQ(resumed->result().epochs_completed(), 4);
  const double resumed_mb =
      resumed->result().phase_volumes.at("alltoall").megabytes_per_epoch;

  // Ground truth for the post-restart per-epoch volume: a fresh metis run
  // (traffic is deterministic and epoch-independent for full-batch GCN).
  auto fresh = TrainerBuilder(ds)
                   .strategy("1d-sparse")
                   .ranks(4)
                   .partitioner("metis")
                   .gcn(cfg)
                   .build();
  (void)fresh->run_epoch();
  EXPECT_DOUBLE_EQ(
      resumed_mb,
      fresh->result().phase_volumes.at("alltoall").megabytes_per_epoch);
}

TEST(CkptTrainer, EpochsOverrideExtendsTheRun) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  auto first = TrainerBuilder(ds).strategy("serial").gcn(ckpt_config(ds, 2)).build();
  first->train();
  std::stringstream snapshot;
  first->save(snapshot);

  auto resumed = TrainerBuilder(ds).epochs(6).resume(snapshot);
  resumed->train();
  EXPECT_EQ(resumed->result().epochs_completed(), 6);
}

TEST(CkptTrainer, StrategyMismatchIsTypedErrorNamingBoth) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  auto first =
      TrainerBuilder(ds).strategy("1d-sparse").ranks(4).gcn(ckpt_config(ds, 2)).build();
  (void)first->run_epoch();
  std::stringstream snapshot;
  first->save(snapshot);

  try {
    (void)TrainerBuilder(ds).strategy("1.5d-oblivious").resume(snapshot);
    FAIL() << "expected CheckpointMismatchError";
  } catch (const ckpt::CheckpointMismatchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1d-sparse"), std::string::npos);
    EXPECT_NE(what.find("1.5d-oblivious"), std::string::npos);
  }
}

TEST(CkptTrainer, AliasOfSnapshotStrategyIsNoMismatch) {
  // A snapshot that names "1d-sparsity-aware" resumes under its canonical
  // name "1d-sparse": an alias is the same algorithm.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  auto first = TrainerBuilder(ds)
                   .strategy("1d-sparsity-aware")
                   .ranks(4)
                   .gcn(ckpt_config(ds, 2))
                   .build();
  (void)first->run_epoch();
  std::stringstream snapshot;
  first->save(snapshot);

  auto resumed = TrainerBuilder(ds).strategy("1d-sparse").resume(snapshot);
  resumed->train();
  EXPECT_EQ(resumed->result().epochs_completed(), 2);
}

TEST(CkptTrainer, UnregisteredSnapshotStrategyIsTypedError) {
  // A snapshot naming a strategy the registry no longer has ("2d-sparse"):
  // the prologue alone decides, before any trainer state is read.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  TrainConfig cfg;
  cfg.strategy = "2d-sparse";
  cfg.p = 4;
  cfg.gcn = ckpt_config(ds, 2);
  std::stringstream snapshot;
  {
    ckpt::Serializer s(snapshot);
    ckpt::write_prologue(s, cfg, ds);
    s.finish();
  }

  try {
    (void)TrainerBuilder(ds).resume(snapshot);
    FAIL() << "expected UnknownNameError";
  } catch (const UnknownNameError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2d-sparse"), std::string::npos);
    EXPECT_NE(what.find(strategy_registry().catalog()), std::string::npos);
  }

  snapshot.clear();
  snapshot.seekg(0);
  try {
    (void)TrainerBuilder(ds).strategy("1d-sparse").resume(snapshot);
    FAIL() << "expected CheckpointMismatchError";
  } catch (const ckpt::CheckpointMismatchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2d-sparse"), std::string::npos);
    EXPECT_NE(what.find("1d-sparse"), std::string::npos);
  }
}

TEST(CkptTrainer, DatasetMismatchIsTypedError) {
  const Dataset amazon = make_amazon_sim(DatasetScale::kTiny);
  auto first = TrainerBuilder(amazon).strategy("serial").gcn(ckpt_config(amazon, 2)).build();
  (void)first->run_epoch();
  std::stringstream snapshot;
  first->save(snapshot);

  const Dataset protein = make_protein_sim(DatasetScale::kTiny);
  EXPECT_THROW((void)TrainerBuilder(protein).resume(snapshot),
               ckpt::CheckpointMismatchError);
}

TEST(CkptTrainer, ExperimentSpecCheckpointKnobsRoundTripThroughFiles) {
  // The bench-runner path: one experiment saves to disk, a second resumes
  // from it (here with the same geometry) and must match the uninterrupted
  // trajectory bitwise.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const std::string path = ::testing::TempDir() + "/sagnn_ckpt_spec.bin";

  ExperimentSpec spec;
  spec.strategy = "1d-sparse";
  spec.partitioner = "gvb";
  spec.p = 4;
  spec.epochs = 2;
  spec.checkpoint_to = path;
  const TrainResult first = run_experiment(ds, spec);

  // Resume: the checkpoint's configuration is authoritative (the stale
  // spec fields must NOT leak in as overrides); only resume_overrides do.
  ExperimentSpec resume_spec;
  resume_spec.resume_from = path;
  resume_spec.resume_overrides.epochs = 5;  // extend on resume
  const TrainResult resumed = run_experiment(ds, resume_spec);
  ASSERT_EQ(resumed.epochs_completed(), 5);

  spec.checkpoint_to.clear();
  spec.epochs = 5;
  const TrainResult reference = run_experiment(ds, spec);
  for (int e = 0; e < 5; ++e) {
    EXPECT_DOUBLE_EQ(resumed.epochs[static_cast<std::size_t>(e)].loss,
                     reference.epochs[static_cast<std::size_t>(e)].loss)
        << "epoch " << e;
  }
  EXPECT_DOUBLE_EQ(first.epochs[1].loss, reference.epochs[1].loss);
}

TEST(CkptTrainer, DamagedSnapshotsThrowTypedErrorsAtResume) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  auto first =
      TrainerBuilder(ds).strategy("1d-sparse").ranks(4).gcn(ckpt_config(ds, 2)).build();
  (void)first->run_epoch();
  std::stringstream snapshot;
  first->save(snapshot);
  const std::string bytes = snapshot.str();

  {
    // Truncation at half length lands inside a section payload or header.
    std::istringstream in(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW((void)TrainerBuilder(ds).resume(in),
                 ckpt::CheckpointTruncatedError);
  }
  {
    // Corrupt a payload byte well inside the stream (past the 16-byte
    // format header and the first section header): CRC must catch it.
    std::string corrupt = bytes;
    corrupt[64] ^= 0x01;
    std::istringstream in(corrupt);
    EXPECT_THROW((void)TrainerBuilder(ds).resume(in), ckpt::CheckpointCrcError);
  }
  {
    std::string wrong_version = bytes;
    wrong_version[8] = 42;
    std::istringstream in(wrong_version);
    EXPECT_THROW((void)TrainerBuilder(ds).resume(in),
                 ckpt::CheckpointFormatError);
  }
}

}  // namespace
}  // namespace sagnn
