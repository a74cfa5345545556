// Cross-validation of the static volume model (partition/metrics) against
// the bytes the simulated cluster actually moves — the recorded all-to-all
// traffic of one sparsity-aware SpMM must equal the VolumeStats prediction
// exactly, for every partitioner.
#include <gtest/gtest.h>

#include "dist/spmm_15d.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"
#include "partition/metrics.hpp"
#include "simcomm/cluster.hpp"
#include "sparse/permute.hpp"

namespace sagnn {
namespace {

class VolumeCrossCheck : public ::testing::TestWithParam<const char*> {};

TEST_P(VolumeCrossCheck, RecordedBytesEqualPrediction) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const CsrMatrix& a = ds.adjacency;
  const int p = 4;
  const vid_t f = 8;

  const auto part = make_partitioner(GetParam())->partition(a, p);
  const VolumeStats predicted = compute_volume_stats(a, part);

  // Relabel, distribute, run ONE sparsity-aware SpMM, record traffic.
  const auto perm = part.relabel_permutation();
  const CsrMatrix ap = permute_symmetric(a, perm);
  const auto ranges = ranges_from_sizes(part.part_sizes());
  Rng rng(1);
  const Matrix h = Matrix::random_uniform(a.n_rows(), f, rng);

  Cluster cluster(p);
  cluster.run([&](Comm& comm) {
    DistSpmm15d spmm_dist(comm, ap, ranges, /*c=*/1, SpmmMode::kSparsityAware);
    const BlockRange r = spmm_dist.my_range();
    (void)spmm_dist.multiply(h.slice_rows(r.begin, r.end));
  });

  const PhaseTraffic traffic = cluster.traffic().phase("alltoall");
  // Per-pair equality: bytes(j -> i) == predicted rows * f * sizeof(real).
  for (int j = 0; j < p; ++j) {
    for (int i = 0; i < p; ++i) {
      if (i == j) continue;
      const std::uint64_t expected =
          predicted.pair_rows[static_cast<std::size_t>(j) * p + i] * f *
          sizeof(real_t);
      EXPECT_EQ(traffic.bytes_between(j, i), expected)
          << "pair (" << j << " -> " << i << ")";
    }
  }
  EXPECT_EQ(traffic.total_bytes(),
            predicted.total_rows() * f * sizeof(real_t));
}

INSTANTIATE_TEST_SUITE_P(Partitioners, VolumeCrossCheck,
                         ::testing::Values("block", "random", "metis", "gvb"));

TEST(VolumeCrossCheck, TrainerReportsConsistentAlltoallVolume) {
  // The trainer's per-epoch alltoall MB must equal the model's prediction
  // times the number of SpMMs per epoch (2L-1 for an L-layer GCN: L forward
  // + L-1 backward), with layer widths f = {16, 16, classes} after layer 1.
  const Dataset ds = make_protein_sim(DatasetScale::kTiny);
  auto trainer =
      TrainerBuilder(ds)
          .strategy("1d-sparse")
          .ranks(4)
          .partitioner("metis")
          .gcn(GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, 2))
          .build();
  trainer->train();
  const TrainResult result = trainer->result();

  // Forward SpMMs carry widths {f0, 16, 16}; backward carries {16, 16}.
  const double rows = static_cast<double>(result.volume_model.total_rows());
  const double expected_mb =
      rows * sizeof(real_t) *
      (ds.n_features() + 16 + 16 + 16 + 16) / 1.0e6;
  EXPECT_NEAR(result.phase_volumes.at("alltoall").megabytes_per_epoch,
              expected_mb, 1e-9);
}

}  // namespace
}  // namespace sagnn
