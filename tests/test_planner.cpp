// The strategy planner (src/plan/): census statistics and their closed
// forms, search-space pinning, fail-fast unknown-name errors, ranked-plan
// determinism across host thread counts (predictions are pure arithmetic —
// no measurement), and the TrainerBuilder::autotune() end-to-end surface.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/parallel.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"
#include "plan/planner.hpp"

namespace sagnn {
namespace {

Dataset degenerate_dataset() {
  Dataset ds;
  ds.name = "one-vertex";
  ds.adjacency = CsrMatrix::zeros(1, 1);  // n = 1, nnz = 0
  ds.features = Matrix(1, 3);
  ds.labels = {0};
  ds.n_classes = 1;
  ds.train_mask = {1};
  return ds;
}

TEST(Census, RecordsGlobalCountsAndDegreeShape) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GraphCensus census = take_census(ds);
  EXPECT_EQ(census.n, ds.n_vertices());
  EXPECT_EQ(census.nnz, ds.n_edges());
  EXPECT_EQ(census.f, ds.n_features());
  EXPECT_EQ(census.n_classes, ds.n_classes);
  EXPECT_NEAR(census.avg_degree,
              static_cast<double>(ds.n_edges()) / ds.n_vertices(), 1e-9);
  EXPECT_GE(census.degree_skew, 1.0);
  EXPECT_FALSE(census.probes.empty());
}

TEST(Census, RandomHaloClosedFormBrackets) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GraphCensus census = take_census(ds);
  EXPECT_EQ(census.random_expected_halo_rows(1), 0.0);
  // More parts always means more (expected) halo.
  const double h4 = census.random_expected_halo_rows(4);
  const double h16 = census.random_expected_halo_rows(16);
  EXPECT_GT(h4, 0.0);
  EXPECT_GT(h16, h4);
  // A partitioner can only be predicted at or below random's halo when its
  // probes say so; gvb's probes must say so on a clustered graph.
  EXPECT_LE(census.expected_halo_rows("gvb", 8),
            census.random_expected_halo_rows(8));
}

TEST(Census, DegenerateGraphYieldsZeroHaloAndNoProbes) {
  const GraphCensus census = take_census(degenerate_dataset());
  EXPECT_EQ(census.n, 1u);
  EXPECT_EQ(census.nnz, 0u);
  EXPECT_EQ(census.avg_degree, 0.0);
  // Every probe k clamps to n = 1 and is dropped; the closed forms still
  // answer (zero halo, unit imbalance) instead of crashing.
  EXPECT_EQ(census.expected_halo_rows("block", 4), 0.0);
  EXPECT_EQ(census.expected_send_imbalance("block", 4), 1.0);
  EXPECT_EQ(census.expected_compute_imbalance("block", 4), 1.0);
}

TEST(Planner, PinnedKnobsShrinkTheSearchSpace) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GraphCensus census = take_census(ds);
  PlannerOptions opts;
  opts.pinned_p = 8;
  opts.strategies = {"1.5d-sparse"};
  opts.partitioners = {"gvb"};
  const Plan plan = plan_strategies(census, opts);
  ASSERT_FALSE(plan.ranked.empty());
  for (const PlanCandidate& cand : plan.ranked) {
    EXPECT_EQ(cand.p, 8);
    EXPECT_EQ(cand.strategy, "1.5d-sparse");
    EXPECT_EQ(cand.partitioner, "gvb");
  }
  // c stays searched: {1, 2} are the valid 1.5D factors at p = 8.
  EXPECT_EQ(plan.ranked.size(), 2u);
}

TEST(Planner, UnknownNamesFailFast) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GraphCensus census = take_census(ds);
  PlannerOptions opts;
  opts.strategies = {"bogus-strategy"};
  EXPECT_THROW(plan_strategies(census, opts), UnknownNameError);
  opts.strategies.clear();
  opts.partitioners = {"zoltan"};
  EXPECT_THROW(plan_strategies(census, opts), UnknownNameError);
}

TEST(Planner, InvalidGeometriesAreSkippedWithDiagnostics) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GraphCensus census = take_census(ds);
  PlannerOptions opts;
  opts.pinned_p = 8;
  opts.pinned_c = 3;  // c^2 = 9 does not divide 8: no 1.5D grid exists
  opts.strategies = {"1.5d-sparse"};
  opts.partitioners = {"block"};
  const Plan plan = plan_strategies(census, opts);
  EXPECT_TRUE(plan.ranked.empty());
  EXPECT_FALSE(plan.skipped.empty());
  EXPECT_THROW(plan.best(), Error);
}

TEST(Planner, RankingIsDeterministicAcrossThreadCounts) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  PlannerOptions opts;
  opts.p_grid = {4, 8};
  const auto plan_at = [&](int threads) {
    set_parallel_threads(threads);
    return plan_strategies(take_census(ds), opts);
  };
  const Plan a = plan_at(1);
  const Plan b = plan_at(4);
  set_parallel_threads(0);
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].strategy, b.ranked[i].strategy) << "rank " << i;
    EXPECT_EQ(a.ranked[i].partitioner, b.ranked[i].partitioner) << "rank " << i;
    EXPECT_EQ(a.ranked[i].p, b.ranked[i].p) << "rank " << i;
    EXPECT_EQ(a.ranked[i].c, b.ranked[i].c) << "rank " << i;
    EXPECT_EQ(a.ranked[i].chunks, b.ranked[i].chunks) << "rank " << i;
    // Bitwise: the prediction is pure arithmetic over the census.
    EXPECT_EQ(a.ranked[i].seconds, b.ranked[i].seconds) << "rank " << i;
  }
}

TEST(Planner, EveryRegisteredStrategyImplementsPredictCost) {
  // The planner is only as wide as its predictors: a strategy whose
  // predict_cost() declined every geometry would silently vanish from
  // every plan. Price one valid geometry per strategy to pin the contract.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GraphCensus census = take_census(ds);
  PlannerOptions opts;
  opts.pinned_p = 16;  // c^2 | 16 for every c in the default grid
  opts.partitioners = {"block"};
  const Plan plan = plan_strategies(census, opts);
  std::vector<std::string> planned;
  for (const PlanCandidate& cand : plan.ranked) planned.push_back(cand.strategy);
  for (const std::string& name : strategy_registry().names()) {
    EXPECT_NE(std::find(planned.begin(), planned.end(), name), planned.end())
        << name << " produced no valid candidate at p=16";
  }
}

TEST(TrainerBuilderAutotune, PinsBuilderKnobsAndAdoptsTheWinner) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  TrainerBuilder builder(ds);
  builder.ranks(4).partitioner("gvb").epochs(2).autotune();
  const Plan& plan = builder.plan();
  ASSERT_FALSE(plan.ranked.empty());
  for (const PlanCandidate& cand : plan.ranked) {
    EXPECT_EQ(cand.p, 4);
    EXPECT_EQ(cand.partitioner, "gvb");
  }
  const PlanCandidate& best = plan.best();
  EXPECT_EQ(builder.peek().strategy, best.strategy);
  EXPECT_EQ(builder.peek().partitioner, best.partitioner);
  EXPECT_EQ(builder.peek().p, best.p);
  EXPECT_EQ(builder.peek().c, best.c);
  EXPECT_EQ(builder.peek().pipeline_chunks, best.chunks);

  // The adopted configuration must actually train.
  auto trainer = builder.build();
  trainer->train();
  EXPECT_EQ(trainer->result().epochs_completed(), 2);
}

TEST(TrainerBuilderAutotune, RejectsBuiltInSingleRankModes) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  EXPECT_THROW(TrainerBuilder(ds).strategy("serial").autotune(), Error);
}

TEST(TrainerBuilderFailFast, UnknownStrategyThrowsAtTheSetterCall) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  TrainerBuilder builder(ds);
  try {
    builder.strategy("bogus-strategy");
    FAIL() << "strategy() accepted an unknown name";
  } catch (const UnknownNameError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus-strategy"), std::string::npos);
    EXPECT_NE(what.find("1d-sparse"), std::string::npos);
    EXPECT_NE(what.find("1.5d-overlap"), std::string::npos);
    EXPECT_NE(what.find("serial"), std::string::npos);  // built-ins listed
  }
  // The builder is untouched by the failed call.
  EXPECT_EQ(builder.peek().strategy, "serial");
}

TEST(TrainerBuilderFailFast, UnknownPartitionerThrowsAtTheSetterCall) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  TrainerBuilder builder(ds);
  EXPECT_THROW(builder.partitioner("zoltan"), UnknownNameError);
  EXPECT_EQ(builder.peek().partitioner, "block");
  // Aliases are valid vocabulary, exactly like create().
  builder.partitioner("gvb(volume-balancing)");
  EXPECT_EQ(builder.peek().partitioner, "gvb(volume-balancing)");
}

TEST(RegistryCatalog, ListsCanonicalNamesWithAliases) {
  const std::string catalog = strategy_registry().catalog();
  EXPECT_NE(catalog.find("1.5d-overlap (aka 15d-overlap, 1.5d-pipelined)"),
            std::string::npos);
  EXPECT_NE(catalog.find("cagnet"), std::string::npos);
  const auto aliases = strategy_registry().aliases("1d-oblivious");
  EXPECT_NE(std::find(aliases.begin(), aliases.end(), "cagnet"), aliases.end());
  EXPECT_TRUE(strategy_registry().aliases("no-such-strategy").empty());
}

}  // namespace
}  // namespace sagnn
