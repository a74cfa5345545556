// Serving workload: a closed loop with one client over amazon-sim kSmall.
//
// A checkpoint is trained and serialised before timing starts. Set-up is
// serve::ModelLoader + GraphMutator + InferenceEngine construction,
// repeated, with the median reported. The loop then issues Zipf(1.1)
// infer_node() queries with one symmetric edge insert or erase before
// every 8th query; the aggregation cache holds half the rows, below the
// working set, so hits, evictions and invalidations all occur. Sampled
// cached answers are checked against infer_node_bypass() (outside the
// loop's clock), and the end-of-run answers against full_forward() rows,
// before and after compaction.

#include <sched.h>

#include <sstream>

#include "bench.hpp"
#include "common/rng.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"
#include "serve/inference_engine.hpp"
#include "serve/model_loader.hpp"

namespace perfbench {

using namespace sagnn;

namespace {

constexpr double kZipfExponent = 1.1;
constexpr int kUpdateEvery = 8;
constexpr int kCheckEvery = 64;
/// Traced runs span every 4th round: half of them carry an update.
constexpr int kTraceEvery = 4;
constexpr int kWarmupQueries = 256;  ///< per block, untimed: the cache fills
constexpr std::size_t kCompactionThreshold = 128;
constexpr double kCacheShare = 0.5;  ///< cache capacity as a share of all rows
constexpr double kTailQuantile = 0.99;

std::string make_checkpoint(const Dataset& ds, std::uint64_t seed, int threads) {
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, /*epochs=*/5);
  cfg.learning_rate = 0.3f;
  cfg.seed = seed;
  auto trainer = TrainerBuilder(ds).strategy("serial").gcn(cfg).threads(threads).build();
  trainer->train();
  std::stringstream snapshot;
  trainer->save(snapshot);
  return snapshot.str();
}

/// The serving stack; the engine is declared last so it is destroyed
/// before the graph it listens to.
struct Server {
  std::unique_ptr<serve::GraphMutator> graph;
  std::unique_ptr<serve::InferenceEngine> engine;
};

Server start_server(const Dataset& ds, const std::string& checkpoint,
                    std::size_t cache_bytes, double* load_seconds) {
  Server s;
  const auto t0 = Clock::now();
  std::istringstream in(checkpoint);
  serve::ModelLoader loader(in);
  loader.require_compatible(ds);
  *load_seconds = seconds_since(t0);
  s.graph = std::make_unique<serve::GraphMutator>(ds.adjacency);
  s.graph->set_compaction_threshold(kCompactionThreshold);
  s.engine = std::make_unique<serve::InferenceEngine>(loader.take_model(), ds.features,
                                                      *s.graph, cache_bytes);
  return s;
}

/// Pins the calling thread to the index-th CPU (cyclically) of its allowed
/// set until destroyed. The client is one thread, which the scheduler
/// would otherwise keep on one core for the whole run, so one busy core
/// of the host would set every figure of that run.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(int index) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus.push_back(c);
    }
    if (cpus.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(index) % cpus.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinnedToCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// One closed-loop client over a server: an edge insert or erase before
/// every kUpdateEvery-th query, then one infer_node(). Its queries and
/// updates are counted as attempted operations.
class Client {
 public:
  Client(Server& server, Rng& rng, const ZipfSampler& zipf, Outcome& out)
      : graph_(*server.graph), engine_(*server.engine), rng_(rng), zipf_(zipf), out_(out) {}

  /// Round q; spans it on `trace` when set. Returns the query's cost.
  Cost round(int q, SpanLog* trace) {
    target_ = static_cast<vid_t>(zipf_.sample(rng_));
    Scoped span(trace, "round", q);
    if (q > 0 && q % kUpdateEvery == 0) update(q, trace);
    ++out_.attempted;
    const Stopwatch watch;
    Scoped s(trace, "infer_node", q);
    logits_ = engine_.infer_node(target_);
    return watch.elapsed();
  }

  /// The last answer must equal the cache-bypassing reference.
  void check(int q) {
    out_.check(logits_ == engine_.infer_node_bypass(target_),
               "cached answer differs from infer_node_bypass at query " + std::to_string(q));
  }

  vid_t random_vertex() { return static_cast<vid_t>(rng_.next_below(graph_.n())); }

  std::vector<double> update_s;   ///< updates that did not compact
  std::vector<double> compact_s;  ///< updates that crossed the compaction threshold

 private:
  void update(int q, SpanLog* trace) {
    ++out_.attempted;
    const auto compactions = graph_.stats().compactions;
    const auto t0 = Clock::now();
    if (!inserted_.empty() && rng_.bernoulli(0.5)) {
      const auto idx = static_cast<std::size_t>(rng_.next_below(inserted_.size()));
      const auto [u, v] = inserted_[idx];
      inserted_[idx] = inserted_.back();
      inserted_.pop_back();
      Scoped s(trace, "erase_edge", q);
      graph_.erase_edge(u, v);
    } else {
      const vid_t u = random_vertex();
      const vid_t v = random_vertex();
      Scoped s(trace, "insert_edge", q);
      if (graph_.insert_edge(u, v, real_t{0.05f})) inserted_.emplace_back(u, v);
    }
    (graph_.stats().compactions > compactions ? compact_s : update_s)
        .push_back(seconds_since(t0));
  }

  serve::GraphMutator& graph_;
  serve::InferenceEngine& engine_;
  Rng& rng_;
  const ZipfSampler& zipf_;
  Outcome& out_;
  std::vector<std::pair<vid_t, vid_t>> inserted_;
  vid_t target_ = 0;
  std::vector<real_t> logits_;
};

/// End of run: per-node answers equal full-graph forward rows, and stay
/// equal across an explicit compaction (timed into `compact_s`).
void check_answers(Server& server, Client& client, Outcome& out,
                   std::vector<double>& compact_s) {
  std::vector<vid_t> sample;
  for (int i = 0; i < 32; ++i) sample.push_back(client.random_vertex());
  const Matrix before = server.engine->infer_batch(sample);
  const Matrix full = server.engine->full_forward();
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const real_t* a = before.row(static_cast<vid_t>(i));
    const real_t* b = full.row(sample[i]);
    if (!out.check(std::equal(a, a + before.n_cols(), b),
                   "infer_batch row differs from full_forward at node " +
                       std::to_string(sample[i]))) {
      break;
    }
  }
  const auto t0 = Clock::now();
  server.graph->compact();
  compact_s.push_back(seconds_since(t0));
  out.check(server.engine->infer_batch(sample) == before, "compaction changed answers");
}

}  // namespace

Outcome run_serving(const Options& opt) {
  Outcome out;
  const Dataset ds = make_amazon_sim(DatasetScale::kSmall);
  const std::string checkpoint = make_checkpoint(ds, opt.seed, opt.pool_threads);
  const auto n = static_cast<std::uint64_t>(ds.n_vertices());
  const auto cache_bytes = static_cast<std::size_t>(
      kCacheShare * static_cast<double>(n) * ds.n_features() * sizeof(real_t));
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 17);
  const ZipfSampler zipf(kZipfExponent, n);

  // Every block starts a fresh server (its set-up samples), warms the
  // cache, then runs the closed loop for its share of the budget, pinned
  // to the next CPU in turn; two blocks per CPU. A traced
  // run spans every kTraceEvery-th round and leaves the rest untraced, so both
  // latencies come from the same loop.
  SpanLog log(Clock::now(), 0);
  std::vector<Cost> setup, traced_latency;
  std::vector<double> load, update_s, compact_s;
  Blocks latency;
  Cost loops;
  double hits = 0, lookups = 0, evictions = 0, invalidations = 0, compactions = 0;
  Server server;
  std::unique_ptr<Client> client;
  const int blocks = 2 * opt.nproc;
  const double block_s = opt.seconds / blocks;
  int q = 0;
  for (int b = 0; b < blocks; ++b) {
    const PinnedToCpu pin(b);
    client.reset();
    repeat_setup(
        [&] {
          server.engine.reset();  // before the graph it listens to
          server.graph.reset();
        },
        [&] {
          double load_s = 0;
          server = start_server(ds, checkpoint, cache_bytes, &load_s);
          load.push_back(load_s);
        },
        block_s, setup, out);
    client = std::make_unique<Client>(server, rng, zipf, out);
    for (int w = 0; w < kWarmupQueries; ++w) client->round(q++, nullptr);

    const auto cache0 = server.engine->cache_stats();
    const auto compactions0 = server.graph->stats().compactions;
    client->update_s.clear();
    client->compact_s.clear();
    Cost checks;  // the correctness checks stay off the loop's clocks
    latency.start();
    Blocks::Block& block = latency.current();
    const Stopwatch loop;
    const auto t_block = Clock::now();
    while (seconds_since(t_block) - checks.wall < block_s) {
      SpanLog* trace = opt.trace && q % kTraceEvery == 0 ? &log : nullptr;
      (trace != nullptr ? traced_latency : block.ops).push_back(client->round(q, trace));
      if (q % kCheckEvery == 0) {
        const Stopwatch watch;
        client->check(q);
        checks += watch.elapsed();
      }
      ++q;
    }
    block.loop = loop.elapsed() - checks;
    loops += block.loop;

    const auto& cache = server.engine->cache_stats();
    hits += static_cast<double>(cache.hits - cache0.hits);
    lookups += static_cast<double>(cache.hits + cache.misses - cache0.hits - cache0.misses);
    evictions += static_cast<double>(cache.evictions - cache0.evictions);
    invalidations += static_cast<double>(cache.invalidations - cache0.invalidations);
    compactions += static_cast<double>(server.graph->stats().compactions - compactions0);
    update_s.insert(update_s.end(), client->update_s.begin(), client->update_s.end());
    compact_s.insert(compact_s.end(), client->compact_s.begin(), client->compact_s.end());
  }
  const double rss = peak_rss_mb();
  check_answers(server, *client, out, compact_s);

  const std::size_t queries = latency.all(&Cost::wall).size() + traced_latency.size();
  if (!opt.trace) {
    out.e2e["op_cpu_ms_p50"] = median(latency.all(&Cost::cpu)) * 1e3;
    out.e2e["op_cpu_ms_tail"] = latency.percentile_median(&Cost::cpu, kTailQuantile) * 1e3;
    out.e2e["ops_per_cpu_s"] = latency.rate_median(&Cost::cpu);
    out.e2e["setup_s"] = median(on(setup, &Cost::cpu));
    out.e2e["peak_rss_mb"] = rss;
    out.report["serve_ms_p50"] = median(latency.all(&Cost::wall)) * 1e3;
    out.report["serve_ms_p99"] = latency.percentile_median(&Cost::wall, kTailQuantile) * 1e3;
    out.report["serve_qps"] = latency.rate_median(&Cost::wall);
    out.report["setup_wall_s"] = median(on(setup, &Cost::wall));
    out.notes["tail"] = latency.describe_tail("p99", "queries");
    out.notes["block_wall_medians"] = latency.describe_medians(&Cost::wall);
    out.notes["block_cpu_medians"] = latency.describe_medians(&Cost::cpu);
  } else {
    out.layers["trace.overhead_frac"] =
        median(on(traced_latency, &Cost::wall)) / median(latency.all(&Cost::wall)) - 1.0;
    std::string gap;
    out.layers["trace.unattributed_frac"] = unattributed_share(log.spans(), "round", &gap);
    out.notes["largest_unattributed_gap"] = gap;
    if (!opt.trace_file.empty()) write_trace(opt.trace_file, {&log});
  }
  out.layers["common.pool.cpu_util"] = loops.cpu / (loops.wall * opt.pool_threads);
  out.layers["serve.cache.hit_rate"] = lookups > 0 ? hits / lookups : 0;
  out.layers["serve.cache.evictions"] = evictions;
  out.layers["serve.cache.invalidations"] = invalidations;
  out.layers["serve.update.us_p50"] = median(update_s) * 1e6;
  out.layers["serve.compact.ms"] = median(compact_s) * 1e3;
  out.layers["serve.compactions"] = compactions;
  out.layers["ckpt.load.ms"] = median(load) * 1e3;
  out.notes["setup_reps"] = std::to_string(setup.size());
  out.notes["queries"] = std::to_string(queries);
  return out;
}

}  // namespace perfbench
