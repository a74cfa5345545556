// Local SpMM kernel tests, including a dense-reference property sweep and
// the compacted-column contract used by the sparsity-aware algorithms.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dense/gemm.hpp"
#include "graph/generators.hpp"
#include "sparse/blocks.hpp"
#include "sparse/spmm.hpp"

namespace sagnn {
namespace {

Matrix to_dense(const CsrMatrix& a) {
  Matrix d(a.n_rows(), a.n_cols());
  for (vid_t r = 0; r < a.n_rows(); ++r) {
    auto cols = a.row_cols(r);
    auto vals = a.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) d(r, cols[k]) = vals[k];
  }
  return d;
}

TEST(Spmm, IdentityTimesHIsH) {
  CooMatrix eye(4, 4);
  for (vid_t i = 0; i < 4; ++i) eye.add(i, i, 1.0f);
  const CsrMatrix a = CsrMatrix::from_coo(eye);
  Rng rng(1);
  const Matrix h = Matrix::random_uniform(4, 3, rng);
  EXPECT_EQ(spmm(a, h).max_abs_diff(h), 0.0);
}

TEST(Spmm, EmptyMatrixGivesZero) {
  const CsrMatrix a = CsrMatrix::zeros(3, 5);
  Rng rng(2);
  const Matrix h = Matrix::random_uniform(5, 2, rng);
  const Matrix z = spmm(a, h);
  for (vid_t r = 0; r < 3; ++r) {
    for (vid_t c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(z(r, c), 0.0f);
  }
}

TEST(Spmm, ShapeMismatchThrows) {
  const CsrMatrix a = CsrMatrix::zeros(3, 5);
  const Matrix h(4, 2);
  EXPECT_THROW(spmm(a, h), Error);
}

TEST(Spmm, AccumulateAddsIntoZ) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 2.0f);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  Matrix h(2, 1);
  h(0, 0) = 3.0f;
  Matrix z(2, 1);
  z(0, 0) = 1.0f;
  spmm_accumulate(a, h, z);
  EXPECT_FLOAT_EQ(z(0, 0), 7.0f);
}

// Property sweep: SpMM agrees with dense GEMM on random sparse matrices of
// several shapes and densities.
class SpmmMatchesDense
    : public ::testing::TestWithParam<std::tuple<vid_t, vid_t, vid_t, int>> {};

TEST_P(SpmmMatchesDense, Agrees) {
  const auto [n, m, f, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  CooMatrix coo(n, m);
  const eid_t nnz = static_cast<eid_t>(n) * 4;
  for (eid_t k = 0; k < nnz; ++k) {
    coo.add(static_cast<vid_t>(rng.next_below(n)),
            static_cast<vid_t>(rng.next_below(m)), rng.uniform(-1, 1));
  }
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const Matrix h = Matrix::random_uniform(m, f, rng);
  const Matrix z = spmm(a, h);
  const Matrix z_ref = gemm(to_dense(a), h);
  EXPECT_LT(z.max_abs_diff(z_ref), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpmmMatchesDense,
    ::testing::Values(std::tuple{8, 8, 1, 1}, std::tuple{16, 8, 3, 2},
                      std::tuple{8, 16, 5, 3}, std::tuple{64, 64, 16, 4},
                      std::tuple{100, 50, 7, 5}, std::tuple{1, 100, 4, 6},
                      std::tuple{100, 1, 4, 7}));

TEST(Spmm, CompactedBlockMatchesFullBlock) {
  // Compacting columns and packing the corresponding H rows must yield the
  // same product as the uncompacted multiply — the core SA-algorithm
  // identity.
  Rng rng(42);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(64, 300, rng));
  const CsrMatrix block = extract_row_block(a, {0, 16});
  const Matrix h = Matrix::random_uniform(64, 8, rng);

  const Matrix full = spmm(block, h);

  const CompactedBlock cb = compact_columns(block);
  const Matrix h_packed = h.gather_rows(cb.cols);
  Matrix z(block.n_rows(), 8);
  spmm_accumulate(cb.matrix, h_packed, z);

  EXPECT_EQ(full.max_abs_diff(z), 0.0);
}

}  // namespace
}  // namespace sagnn
