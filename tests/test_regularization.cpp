// Dropout and weight decay: determinism, placement invariance (the property
// that keeps distributed == serial), and training effects.
#include <gtest/gtest.h>

#include <utility>

#include "dense/ops.hpp"
#include "gnn/serial_trainer.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"

namespace sagnn {
namespace {

TEST(Dropout, ZeroProbabilityIsIdentity) {
  Rng rng(1);
  Matrix m = Matrix::random_uniform(10, 4, rng);
  const Matrix orig = m;
  dropout_rows_deterministic(m, 0.0f, 7, 0);
  EXPECT_EQ(m.max_abs_diff(orig), 0.0);
}

TEST(Dropout, SurvivorsAreScaled) {
  Matrix m(1000, 1);
  m.fill(1.0f);
  dropout_rows_deterministic(m, 0.5f, 3, 0);
  int zeros = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m.data()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(m.data()[i], 2.0f);
    }
  }
  EXPECT_NEAR(zeros / 1000.0, 0.5, 0.06);
}

TEST(Dropout, PlacementInvariance) {
  // Masking a whole matrix equals masking its row blocks with matching
  // offsets — the invariant that makes distributed dropout correct.
  Rng rng(2);
  Matrix full = Matrix::random_uniform(60, 5, rng);
  Matrix top = full.slice_rows(0, 25);
  Matrix bottom = full.slice_rows(25, 60);

  dropout_rows_deterministic(full, 0.3f, 99, 0);
  dropout_rows_deterministic(top, 0.3f, 99, 0);
  dropout_rows_deterministic(bottom, 0.3f, 99, 25);

  EXPECT_EQ(full.slice_rows(0, 25).max_abs_diff(top), 0.0);
  EXPECT_EQ(full.slice_rows(25, 60).max_abs_diff(bottom), 0.0);
}

TEST(Dropout, RejectsInvalidProbability) {
  Matrix m(2, 2);
  EXPECT_THROW(dropout_rows_deterministic(m, 1.0f, 1, 0), Error);
  EXPECT_THROW(dropout_rows_deterministic(m, -0.1f, 1, 0), Error);
}

TEST(WeightDecay, ShrinksWeightsWithZeroGradient) {
  GcnLayer layer(Matrix(1, 1, {2.0f}), true);
  layer.apply_gradient(Matrix(1, 1, {0.0f}), /*lr=*/0.1f, /*wd=*/0.5f);
  // W -= lr*wd*W -> 2 - 0.05*2 = 1.9
  EXPECT_FLOAT_EQ(layer.weights()(0, 0), 1.9f);
}

TEST(Regularization, DistributedMatchesSerialWithDropoutAndDecay) {
  // The headline parity property must survive both regularizers.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, 4);
  cfg.learning_rate = 0.2f;
  cfg.dropout = 0.3f;
  cfg.weight_decay = 0.01f;

  SerialTrainer serial(ds, cfg);
  const auto sm = serial.train();

  for (const auto& [strategy, c] :
       {std::pair{"1d-sparse", 1}, std::pair{"1.5d-sparse", 2}}) {
    auto trainer = TrainerBuilder(ds)
                       .strategy(strategy)
                       .ranks(4, c)
                       .partitioner("metis")
                       .gcn(cfg)
                       .build();
    trainer->train();
    const TrainResult dist = trainer->result();
    for (std::size_t e = 0; e < sm.size(); ++e) {
      EXPECT_NEAR(dist.epochs[e].loss, sm[e].loss, 5e-3 * std::max(1.0, sm[e].loss))
          << strategy << " epoch " << e;
    }
  }
}

TEST(Regularization, WeightDecayReducesWeightNorm) {
  const Dataset ds = make_protein_sim(DatasetScale::kTiny);
  GcnConfig plain = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, 15);
  GcnConfig decayed = plain;
  decayed.weight_decay = 0.1f;
  SerialTrainer a(ds, plain), b(ds, decayed);
  a.train();
  b.train();
  auto norm = [](const GcnModel& m) {
    double acc = 0;
    for (int l = 0; l < m.n_layers(); ++l) {
      const Matrix& w = m.layer(l).weights();
      acc += w.frobenius_distance(Matrix(w.n_rows(), w.n_cols()));
    }
    return acc;
  };
  EXPECT_LT(norm(b.model()), norm(a.model()));
}

}  // namespace
}  // namespace sagnn
