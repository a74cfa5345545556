// Distributed 1.5D SpMM (Algorithm 2): grid layout, correctness against
// serial SpMM across (p, c) combinations and both modes, replication
// consistency, and the c=1 degeneration — which is the paper's 1D
// Algorithm 1, so the Spmm1d* suites run DistSpmm15d at c=1: both modes
// equal the serial product, the sparsity-aware mode communicates strictly
// less on partitionable graphs, and the per-propagate pipelined multiply
// is bit-identical to the bulk one.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "dist/spmm_15d.hpp"
#include "graph/generators.hpp"
#include "simcomm/cluster.hpp"
#include "sparse/spmm.hpp"

namespace sagnn {
namespace {

TEST(GridLayout, ShapeAndIndexing) {
  const GridLayout g = GridLayout::make(8, 2);
  EXPECT_EQ(g.rows, 4);
  EXPECT_EQ(g.s, 2);
  EXPECT_EQ(g.grid_row(5), 2);
  EXPECT_EQ(g.grid_col(5), 1);
  EXPECT_EQ(g.rank_of(2, 1), 5);
}

TEST(GridLayout, RejectsIndivisible) {
  EXPECT_THROW(GridLayout::make(6, 2), Error);  // c^2=4 does not divide 6
  EXPECT_THROW(GridLayout::make(8, 0), Error);
}

// gtest prints a parameter without a PrintTo overload as its raw bytes, and
// ctest names each case after that print. The explicit zero fields take the
// place of padding, so no uninitialised byte reaches the test name.
struct Case15 {
  Case15(vid_t n_, eid_t m_, vid_t f_, int p_, int c_, SpmmMode mode_)
      : n(n_), m(m_), f(f_), p(p_), c(c_), mode(mode_) {}
  vid_t n;
  std::int32_t pad0 = 0;
  eid_t m;
  vid_t f;
  int p;
  int c;
  SpmmMode mode;
};
static_assert(std::has_unique_object_representations_v<Case15>);

// The 1D sweep's parameter keeps its own layout (no c field): its ctest
// names are the struct's bytes.
struct Case {
  Case(vid_t n_, eid_t m_, vid_t f_, int p_, SpmmMode mode_)
      : n(n_), m(m_), f(f_), p(p_), mode(mode_) {}
  vid_t n;
  std::int32_t pad0 = 0;
  eid_t m;
  vid_t f;
  int p;
  SpmmMode mode;
  std::int32_t pad1 = 0;
};
static_assert(std::has_unique_object_representations_v<Case>);

/// Runs `multiplies` back-to-back multiplies: the bulk multiply() when
/// `chunks` is 0, else multiply_pipelined() with a stage counter that
/// restarts at 0 for every multiply (the "1d-overlap" schedule).
Matrix run_dist_15d(const CsrMatrix& a, const Matrix& h,
                    std::span<const BlockRange> ranges, int p, int c,
                    SpmmMode mode, TrafficRecorder* traffic_out = nullptr,
                    int chunks = 0, int multiplies = 1) {
  Matrix result(a.n_rows(), h.n_cols());
  std::vector<Matrix> replicas(static_cast<std::size_t>(p));
  Cluster cluster(p);
  cluster.run([&](Comm& comm) {
    DistSpmm15d spmm_dist(comm, a, ranges, c, mode);
    const BlockRange r = spmm_dist.my_range();
    Matrix z_local = h.slice_rows(r.begin, r.end);
    for (int i = 0; i < multiplies; ++i) {
      int stage = 0;
      z_local = chunks == 0 ? spmm_dist.multiply(z_local)
                            : spmm_dist.multiply_pipelined(z_local, chunks, &stage);
    }
    replicas[static_cast<std::size_t>(comm.rank())] = z_local;
    if (spmm_dist.layout().grid_col(comm.rank()) == 0) {
      for (vid_t i = 0; i < z_local.n_rows(); ++i) {
        std::copy(z_local.row(i), z_local.row(i) + z_local.n_cols(),
                  result.row(r.begin + i));
      }
    }
  });
  // Replication consistency: all ranks in a process row hold identical Z.
  const GridLayout g = GridLayout::make(p, c);
  for (int rank = 0; rank < p; ++rank) {
    const int row0 = g.rank_of(g.grid_row(rank), 0);
    EXPECT_EQ(replicas[static_cast<std::size_t>(rank)].max_abs_diff(
                  replicas[static_cast<std::size_t>(row0)]),
              0.0)
        << "rank " << rank << " disagrees with its process row";
  }
  if (traffic_out != nullptr) *traffic_out = cluster.traffic();
  return result;
}

Matrix run_dist_15d(const CsrMatrix& a, const Matrix& h, int p, int c,
                    SpmmMode mode, TrafficRecorder* traffic_out = nullptr,
                    int chunks = 0) {
  return run_dist_15d(a, h, uniform_block_ranges(a.n_rows(), p / c), p, c,
                      mode, traffic_out, chunks);
}

void expect_matches_serial(const Case15& c, std::uint64_t seed) {
  Rng rng(seed);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(c.n, c.m, rng));
  const Matrix h = Matrix::random_uniform(c.n, c.f, rng);
  const Matrix z = run_dist_15d(a, h, c.p, c.c, c.mode);
  EXPECT_LT(z.max_abs_diff(spmm(a, h)), 1e-4);
}

class Spmm15dMatchesSerial : public ::testing::TestWithParam<Case15> {};

TEST_P(Spmm15dMatchesSerial, Agrees) {
  const Case15 c = GetParam();
  expect_matches_serial(c, c.n + c.p * 31 + c.c);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Spmm15dMatchesSerial,
    ::testing::Values(Case15{64, 400, 4, 4, 1, SpmmMode::kOblivious},
                      Case15{64, 400, 4, 4, 1, SpmmMode::kSparsityAware},
                      Case15{64, 400, 4, 4, 2, SpmmMode::kOblivious},
                      Case15{64, 400, 4, 4, 2, SpmmMode::kSparsityAware},
                      Case15{96, 800, 8, 8, 2, SpmmMode::kOblivious},
                      Case15{96, 800, 8, 8, 2, SpmmMode::kSparsityAware},
                      Case15{96, 800, 6, 16, 4, SpmmMode::kOblivious},
                      Case15{96, 800, 6, 16, 4, SpmmMode::kSparsityAware},
                      Case15{50, 300, 3, 9, 3, SpmmMode::kSparsityAware},
                      Case15{128, 1200, 8, 16, 2, SpmmMode::kSparsityAware}));

// The 1D algorithm's sweep: DistSpmm15d at c=1 across graphs, rank counts
// and feature widths, through the same check as the 1.5D sweep.
class Spmm1dMatchesSerial : public ::testing::TestWithParam<Case> {};

TEST_P(Spmm1dMatchesSerial, Agrees) {
  const Case c = GetParam();
  expect_matches_serial(Case15{c.n, c.m, c.f, c.p, 1, c.mode}, c.n + c.p);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Spmm1dMatchesSerial,
    ::testing::Values(Case{16, 60, 3, 1, SpmmMode::kOblivious},
                      Case{16, 60, 3, 1, SpmmMode::kSparsityAware},
                      Case{64, 400, 8, 4, SpmmMode::kOblivious},
                      Case{64, 400, 8, 4, SpmmMode::kSparsityAware},
                      Case{100, 700, 5, 7, SpmmMode::kOblivious},
                      Case{100, 700, 5, 7, SpmmMode::kSparsityAware},
                      Case{128, 1500, 16, 16, SpmmMode::kOblivious},
                      Case{128, 1500, 16, 16, SpmmMode::kSparsityAware},
                      Case{37, 150, 2, 5, SpmmMode::kSparsityAware},
                      Case{256, 4000, 4, 8, SpmmMode::kSparsityAware}));

TEST(Spmm15d, C1IsTheOneDimensionalAlgorithm) {
  // With c=1 every rank owns one block row: no grid-row all-reduce runs in
  // either mode, and the oblivious mode broadcasts whole remote blocks.
  // (Spmm1d.SparseVolumeMatchesNnzColsPrediction pins the sparse volume.)
  Rng rng(3);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(60, 400, rng));
  const Matrix h = Matrix::random_uniform(60, 4, rng);
  TrafficRecorder sparse(1), oblivious(1);
  run_dist_15d(a, h, 4, 1, SpmmMode::kSparsityAware, &sparse);
  run_dist_15d(a, h, 4, 1, SpmmMode::kOblivious, &oblivious);
  EXPECT_EQ(sparse.phase_names(),
            (std::vector<std::string>{"alltoall", "index_exchange"}));
  EXPECT_EQ(oblivious.phase_names(), std::vector<std::string>{"bcast"});
  // Each of the 4 ranks receives the 3 other 15-row blocks.
  EXPECT_EQ(oblivious.phase("bcast").total_bytes(),
            4u * 3u * 15u * 4u * sizeof(real_t));
}

TEST(Spmm1d, SparseVolumeNeverExceedsOblivious) {
  Rng rng(9);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(96, 500, rng));
  const Matrix h = Matrix::random_uniform(96, 8, rng);
  TrafficRecorder tr_obl(1), tr_sa(1);
  run_dist_15d(a, h, 6, 1, SpmmMode::kOblivious, &tr_obl);
  run_dist_15d(a, h, 6, 1, SpmmMode::kSparsityAware, &tr_sa);
  const auto obl = tr_obl.phase("bcast").total_bytes();
  const auto sa = tr_sa.phase("alltoall").total_bytes();
  EXPECT_GT(obl, 0u);
  EXPECT_LE(sa, obl);
}

TEST(Spmm1d, BlockLocalGraphIsCommunicationFree) {
  // Edges only within blocks: the sparsity-aware all-to-all must carry
  // zero remote payload ("communication-free training" regime).
  CooMatrix coo(32, 32);
  for (vid_t v = 0; v < 32; v += 8) {
    for (vid_t i = 0; i < 7; ++i) coo.add(v + i, v + i + 1, 1.0f);
  }
  coo.symmetrize();
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  Rng rng(1);
  const Matrix h = Matrix::random_uniform(32, 4, rng);
  TrafficRecorder traffic(1);
  const Matrix z = run_dist_15d(a, h, 4, 1, SpmmMode::kSparsityAware, &traffic);
  EXPECT_LT(z.max_abs_diff(spmm(a, h)), 1e-5);
  EXPECT_EQ(traffic.phase("alltoall").total_bytes(), 0u);
}

TEST(Spmm1d, SparseVolumeMatchesNnzColsPrediction) {
  Rng rng(10);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(80, 400, rng));
  const vid_t f = 8;
  const Matrix h = Matrix::random_uniform(80, f, rng);
  const int p = 5;
  // Predict: sum over ranks of remote needed rows * f * sizeof(real_t).
  const auto ranges = uniform_block_ranges(80, p);
  std::uint64_t predicted = 0;
  for (int r = 0; r < p; ++r) {
    predicted += DistCsr(a, ranges, r).total_needed_rows_remote();
  }
  predicted *= static_cast<std::uint64_t>(f) * sizeof(real_t);
  TrafficRecorder traffic(1);
  run_dist_15d(a, h, p, 1, SpmmMode::kSparsityAware, &traffic);
  EXPECT_EQ(traffic.phase("alltoall").total_bytes(), predicted);
}

TEST(Spmm1d, RepeatedMultipliesStayCorrect) {
  // The index exchange happens once; multiple multiplies (as in training)
  // must all be right.
  Rng rng(11);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(40, 240, rng));
  Matrix h = Matrix::random_uniform(40, 4, rng);
  Matrix expected = h;
  for (int iter = 0; iter < 3; ++iter) expected = spmm(a, expected);
  const Matrix result =
      run_dist_15d(a, h, uniform_block_ranges(40, 4), 4, 1,
                   SpmmMode::kSparsityAware, nullptr, /*chunks=*/0,
                   /*multiplies=*/3);
  EXPECT_LT(result.max_abs_diff(expected), 1e-3);
}

TEST(Spmm1d, HandlesEmptyBlocks) {
  // A rank may own zero rows (degenerate partitions); the algorithms must
  // still work — its block contributes nothing and it requests nothing.
  Rng rng(13);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(30, 120, rng));
  const Matrix h = Matrix::random_uniform(30, 3, rng);
  const std::vector<vid_t> sizes{10, 0, 20};
  const auto ranges = ranges_from_sizes(sizes);
  for (SpmmMode mode : {SpmmMode::kOblivious, SpmmMode::kSparsityAware}) {
    const Matrix result = run_dist_15d(a, h, ranges, 3, 1, mode);
    EXPECT_LT(result.max_abs_diff(spmm(a, h)), 1e-4);
  }
}

TEST(Spmm1d, WorksOnDisconnectedGraph) {
  // Two components split across ranks: zero cross traffic for SA when the
  // blocks align with components.
  CooMatrix coo(20, 20);
  for (vid_t v = 0; v < 9; ++v) coo.add(v, v + 1, 1.0f);
  for (vid_t v = 10; v < 19; ++v) coo.add(v, v + 1, 1.0f);
  coo.symmetrize();
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  Rng rng(14);
  const Matrix h = Matrix::random_uniform(20, 2, rng);
  TrafficRecorder traffic(1);
  const Matrix result =
      run_dist_15d(a, h, 2, 1, SpmmMode::kSparsityAware, &traffic);
  EXPECT_LT(result.max_abs_diff(spmm(a, h)), 1e-5);
  EXPECT_EQ(traffic.phase("alltoall").total_bytes(), 0u);
}

TEST(Spmm1d, ComputeSecondsAccumulate) {
  Rng rng(12);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(64, 800, rng));
  const auto ranges = uniform_block_ranges(64, 2);
  const Matrix h = Matrix::random_uniform(64, 32, rng);
  std::vector<double> secs(2, 0.0);
  Cluster cluster(2);
  cluster.run([&](Comm& comm) {
    DistSpmm15d spmm_dist(comm, a, ranges, 1, SpmmMode::kSparsityAware);
    const BlockRange r = spmm_dist.my_range();
    const Matrix h_local = h.slice_rows(r.begin, r.end);
    (void)spmm_dist.multiply(h_local,
                             &secs[static_cast<std::size_t>(comm.rank())]);
  });
  EXPECT_GT(secs[0] + secs[1], 0.0);
}

TEST(Spmm1dPipelined, MatchesBulkMultiplyBitwise) {
  // Column chunking never reorders any output element's accumulation, so
  // the pipelined product is bit-identical to the bulk sparsity-aware one
  // for every chunk count — including counts above the feature width.
  Rng rng(21);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(64, 400, rng));
  const Matrix h = Matrix::random_uniform(64, 8, rng);
  const Matrix bulk = run_dist_15d(a, h, 4, 1, SpmmMode::kSparsityAware);
  for (int chunks : {1, 2, 3, 8, 100}) {
    const Matrix pipelined =
        run_dist_15d(a, h, 4, 1, SpmmMode::kSparsityAware, nullptr, chunks);
    EXPECT_EQ(pipelined.max_abs_diff(bulk), 0.0) << "chunks " << chunks;
  }
}

TEST(Spmm1dPipelined, StageTaggedTrafficMatchesBulkBytes) {
  Rng rng(22);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(96, 700, rng));
  const Matrix h = Matrix::random_uniform(96, 9, rng);
  const int p = 4;
  const int chunks = 3;
  TrafficRecorder bulk(1), pipe(1);
  run_dist_15d(a, h, p, 1, SpmmMode::kSparsityAware, &bulk);
  run_dist_15d(a, h, p, 1, SpmmMode::kSparsityAware, &pipe, chunks);

  // One tagged stage per chunk; bytes sum to the bulk alltoall exactly
  // (same rows requested, columns partitioned), messages go up K-fold.
  EXPECT_EQ(pipe.stage_count("alltoall"), chunks);
  EXPECT_EQ(pipe.phase_total("alltoall").total_bytes(),
            bulk.phase("alltoall").total_bytes());
  EXPECT_EQ(pipe.phase_total("alltoall").total_msgs(),
            static_cast<std::uint64_t>(chunks) *
                bulk.phase("alltoall").total_msgs());
  // No stage is empty: 9 columns over 3 chunks moves bytes in every stage.
  for (int k = 0; k < chunks; ++k) {
    EXPECT_GT(pipe.phase(TrafficRecorder::stage_phase("alltoall", k))
                  .total_bytes(),
              0u)
        << "stage " << k;
  }
}

TEST(Spmm1dPipelined, HandlesEmptyBlocksAndRepeatedMultiplies) {
  Rng rng(23);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(30, 150, rng));
  const std::vector<vid_t> sizes{10, 0, 20};
  const auto ranges = ranges_from_sizes(sizes);
  const Matrix h = Matrix::random_uniform(30, 5, rng);
  Matrix expected = h;
  for (int iter = 0; iter < 3; ++iter) expected = spmm(a, expected);
  const Matrix result =
      run_dist_15d(a, h, ranges, 3, 1, SpmmMode::kSparsityAware, nullptr,
                   /*chunks=*/2, /*multiplies=*/3);
  EXPECT_LT(result.max_abs_diff(expected), 1e-3);
}

TEST(Spmm1dPipelined, RejectsObliviousMode) {
  Rng rng(24);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(16, 60, rng));
  const Matrix h = Matrix::random_uniform(16, 4, rng);
  EXPECT_THROW(run_dist_15d(a, h, 2, 1, SpmmMode::kOblivious, nullptr, 2), Error);
}

TEST(Spmm15d, ReplicationReducesRowExchangeVolume) {
  // Increasing c reduces the number of off-diagonal blocks each rank must
  // fetch rows for (at the price of the all-reduce) — the 1.5D tradeoff.
  Rng rng(4);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(128, 2000, rng));
  const Matrix h = Matrix::random_uniform(128, 8, rng);
  TrafficRecorder t1(1), t2(1);
  run_dist_15d(a, h, 16, 1, SpmmMode::kSparsityAware, &t1);
  run_dist_15d(a, h, 16, 2, SpmmMode::kSparsityAware, &t2);
  EXPECT_LT(t2.phase("alltoall").total_bytes(), t1.phase("alltoall").total_bytes());
  EXPECT_GT(t2.phase("allreduce").total_bytes(), t1.phase("allreduce").total_bytes());
}

TEST(Spmm15d, ObliviousBcastVolumeIndependentOfSparsity) {
  // The oblivious algorithm moves the same bytes for a dense-ish and a
  // nearly-diagonal graph of equal size; the sparsity-aware one does not.
  const vid_t n = 64;
  Rng rng(5);
  const CsrMatrix dense_g = CsrMatrix::from_coo(erdos_renyi(n, 1200, rng));
  CooMatrix diag(n, n);
  for (vid_t v = 0; v + 1 < n; v += 2) diag.add(v, v + 1, 1.0f);
  diag.symmetrize();
  const CsrMatrix sparse_g = CsrMatrix::from_coo(diag);
  const Matrix h = Matrix::random_uniform(n, 4, rng);

  TrafficRecorder obl_dense(1), obl_sparse(1), sa_dense(1), sa_sparse(1);
  run_dist_15d(dense_g, h, 8, 2, SpmmMode::kOblivious, &obl_dense);
  run_dist_15d(sparse_g, h, 8, 2, SpmmMode::kOblivious, &obl_sparse);
  run_dist_15d(dense_g, h, 8, 2, SpmmMode::kSparsityAware, &sa_dense);
  run_dist_15d(sparse_g, h, 8, 2, SpmmMode::kSparsityAware, &sa_sparse);

  EXPECT_EQ(obl_dense.phase("bcast").total_bytes(),
            obl_sparse.phase("bcast").total_bytes());
  EXPECT_LT(sa_sparse.phase("alltoall").total_bytes(),
            sa_dense.phase("alltoall").total_bytes());
}

TEST(Spmm15d, RepeatedMultipliesStayCorrect) {
  Rng rng(6);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(48, 300, rng));
  const auto ranges = uniform_block_ranges(48, 4);
  Matrix h = Matrix::random_uniform(48, 3, rng);
  Matrix expected = h;
  for (int i = 0; i < 3; ++i) expected = spmm(a, expected);

  Matrix result(48, 3);
  Cluster cluster(8);
  cluster.run([&](Comm& comm) {
    DistSpmm15d spmm_dist(comm, a, ranges, 2, SpmmMode::kSparsityAware);
    const BlockRange r = spmm_dist.my_range();
    Matrix h_local = h.slice_rows(r.begin, r.end);
    for (int i = 0; i < 3; ++i) h_local = spmm_dist.multiply(h_local);
    if (spmm_dist.layout().grid_col(comm.rank()) == 0) {
      for (vid_t i = 0; i < h_local.n_rows(); ++i) {
        std::copy(h_local.row(i), h_local.row(i) + 3, result.row(r.begin + i));
      }
    }
  });
  EXPECT_LT(result.max_abs_diff(expected), 1e-3);
}

}  // namespace
}  // namespace sagnn
