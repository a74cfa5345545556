// Training workloads.
//
// Untraced run, in kBlocks blocks: build the trainer (setup_s is the
// median build over all blocks), warm it up, then time
// Trainer::run_epoch() on both clocks (bench.hpp, Cost) for the block's
// share of the budget. Traffic
// figures are read from TrainResult after the warm-up epochs, a fixed
// epoch count, so they repeat exactly. Every block must repeat the first
// block's trajectory, which must match a serial reference trainer.
//
// Traced run: the same trainer runs interleaved, epoch by epoch, with a
// replay that calls the library's public functions in the trainer's order
// (SerialTrainer::run_epoch, or DistributedTrainer's partition/setup/epoch
// body on a Cluster of its own) with a span around every call. The
// replay's losses must equal the trainer's bit for bit, which is what
// makes its spans a measurement of the same program.

#include <cmath>
#include <iostream>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "gnn/loss.hpp"
#include "gnn/strategy.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"
#include "partition/metrics.hpp"
#include "simcomm/cluster.hpp"
#include "simcomm/collectives.hpp"
#include "sparse/blocks.hpp"
#include "sparse/permute.hpp"
#include "sparse/sell.hpp"

namespace perfbench {

using namespace sagnn;

namespace {

constexpr int kWarmupEpochs = 3;
constexpr std::size_t kMinBlockEpochs = 20;  ///< per block, for its p90
constexpr std::size_t kMinTracedEpochs = 50;
constexpr int kParityEpochs = 10;
constexpr double kTailQuantile = 0.90;

struct TrainSpec {
  std::string strategy = "serial";
  std::string dataset = "reddit";
  int p = 1;
  int c = 1;
  int chunks = 4;
  std::string partitioner = "gvb";

  bool distributed() const { return strategy != "serial"; }
};

TrainSpec spec_for(const std::string& workload) {
  TrainSpec s;
  if (workload == "train-1d-papers") {
    s.strategy = "1d-sparse";
    s.dataset = "papers";
    s.p = 4;
  } else if (workload == "train-15d-reddit") {
    s.strategy = "1.5d-overlap";
    s.p = 4;
    s.c = 2;
  }
  return s;
}

/// The graphs are the fixed kDefault recipes, so traffic repeats exactly
/// across seeds; the seed drives the model initialisation.
Dataset make_data(const TrainSpec& s) {
  return s.dataset == "papers" ? make_papers_sim(DatasetScale::kDefault)
                               : make_reddit_sim(DatasetScale::kDefault);
}

GcnConfig gcn_config(const Dataset& ds, std::uint64_t seed) {
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes);
  cfg.seed = seed;
  return cfg;
}

TrainerBuilder builder_for(const Dataset& ds, const TrainSpec& s,
                           const GcnConfig& cfg, int threads) {
  TrainerBuilder b(ds);
  b.strategy(s.strategy).gcn(cfg).threads(threads);
  if (s.distributed()) {
    b.ranks(s.p, s.c).partitioner(s.partitioner).pipeline_chunks(s.chunks);
  }
  return b;
}

std::string layer_name(const char* what, const char* dir, int l) {
  return std::string(what) + "." + dir + ".l" + std::to_string(l);
}

/// SerialTrainer::run_epoch, call for call, with a span around each call.
class SerialReplay {
 public:
  SerialReplay(const Dataset& ds, const GcnConfig& cfg)
      : ds_(ds), cfg_(cfg), adjacency_(ds.adjacency, KernelConfig{}), model_(cfg) {
    SAGNN_REQUIRE(cfg.dropout == 0.0f, "the replay mirrors dropout-free training");
  }

  EpochMetrics epoch(SpanLog* log) {
    const int e = epoch_++;
    Scoped ep(log, "epoch", e);
    Matrix h = ds_.features;
    for (int l = 0; l < model_.n_layers(); ++l) {
      Matrix m;
      {
        Scoped s(log, layer_name("spmm", "fwd", l), e);
        m = spmm(adjacency_, h);
      }
      Scoped s(log, layer_name("layer", "fwd", l), e);
      h = model_.layer(l).forward(std::move(m));
    }
    LossStats stats;
    Matrix d_h;
    {
      Scoped s(log, "loss.stats", e);
      stats = softmax_xent_stats(h, ds_.labels, ds_.train_mask);
    }
    {
      Scoped s(log, "loss.grad", e);
      d_h = softmax_xent_grad(h, ds_.labels, ds_.train_mask, stats.count);
    }
    std::vector<Matrix> d_weights(static_cast<std::size_t>(model_.n_layers()));
    for (int l = model_.n_layers() - 1; l >= 0; --l) {
      GcnLayer::Backward back;
      {
        Scoped s(log, layer_name("layer", "bwd", l), e);
        back = model_.layer(l).backward(d_h);
      }
      d_weights[static_cast<std::size_t>(l)] = std::move(back.d_weights);
      if (l > 0) {
        Scoped s(log, layer_name("spmm", "bwd", l), e);
        d_h = spmm(adjacency_, back.d_m);
      }
    }
    {
      Scoped s(log, "optimizer", e);
      for (int l = 0; l < model_.n_layers(); ++l) {
        model_.layer(l).apply_gradient(d_weights[static_cast<std::size_t>(l)],
                                       cfg_.learning_rate, cfg_.weight_decay);
      }
    }
    return {stats.mean_loss(), stats.accuracy()};
  }

 private:
  const Dataset& ds_;
  GcnConfig cfg_;
  SpmmOperand adjacency_;
  GcnModel model_;
  int epoch_ = 0;
};

/// DistributedTrainer's partition, per-rank setup and epoch body on a
/// Cluster of its own, with a span around each call on every rank.
class DistReplay {
 public:
  DistReplay(const Dataset& ds, const TrainSpec& spec, const GcnConfig& cfg,
             Clock::time_point origin)
      : cfg_(cfg), cluster_(spec.p) {
    SAGNN_REQUIRE(cfg.dropout == 0.0f, "the replay mirrors dropout-free training");
    for (int r = 0; r < spec.p; ++r) logs_.emplace_back(origin, r);
    const int n_blocks = strategy_registry().create(spec.strategy)->n_blocks(spec.p, spec.c);

    const auto t0 = Clock::now();
    const Partition partition =
        make_partitioner(spec.partitioner, {})->partition(ds.adjacency, n_blocks);
    partition_seconds_ = seconds_since(t0);
    volume_ = compute_volume_stats(ds.adjacency, partition);

    const auto perm = partition.relabel_permutation();
    a_ = permute_symmetric(ds.adjacency, perm);
    h0_ = permute_rows(ds.features, perm);
    labels_ = permute_labels(ds.labels, perm);
    mask_.assign(ds.train_mask.size(), 0);
    for (std::size_t v = 0; v < mask_.size(); ++v) {
      mask_[static_cast<std::size_t>(perm[v])] = ds.train_mask[v];
    }
    ranges_ = ranges_from_sizes(partition.part_sizes());
    total_train_ = std::count(mask_.begin(), mask_.end(), std::uint8_t{1});

    states_.resize(static_cast<std::size_t>(spec.p));
    const StrategyContext ctx{spec.p, spec.c, &a_, ranges_, spec.chunks, KernelConfig{}};
    cluster_.run([&](Comm& comm) {
      auto st = std::make_unique<RankState>();
      st->strategy = strategy_registry().create(spec.strategy);
      {
        Scoped s(&logs_[static_cast<std::size_t>(comm.rank())], "dist.setup", -1);
        st->strategy->setup(comm, ctx);
      }
      const BlockRange range = st->strategy->my_range();
      st->h0_local = h0_.slice_rows(range.begin, range.end);
      st->labels_local.assign(labels_.begin() + range.begin, labels_.begin() + range.end);
      st->mask_local.assign(mask_.begin() + range.begin, mask_.begin() + range.end);
      st->model = GcnModel(cfg_);
      states_[static_cast<std::size_t>(comm.rank())] = std::move(st);
    });
  }

  EpochMetrics epoch() {
    const int e = epoch_++;
    EpochMetrics metrics;
    cluster_.run([&](Comm& comm) {
      SpanLog* log = &logs_[static_cast<std::size_t>(comm.rank())];
      RankState& st = *states_[static_cast<std::size_t>(comm.rank())];
      const double cpu0 = thread_cpu_seconds();
      Scoped ep(log, "epoch", e);
      st.strategy->begin_epoch();
      Comm& reduce_comm = st.strategy->reduce_comm();
      GcnModel& model = st.model;

      Matrix h = st.h0_local;
      for (int l = 0; l < model.n_layers(); ++l) {
        Matrix m;
        {
          Scoped s(log, layer_name("propagate", "fwd", l), e);
          double cpu = 0;
          m = st.strategy->propagate_forward(h, &cpu);
          log->set_cpu(s.id(), cpu);
        }
        Scoped s(log, layer_name("layer", "fwd", l), e);
        h = model.layer(l).forward(std::move(m));
      }

      LossStats local;
      {
        Scoped s(log, "loss.stats", e);
        local = softmax_xent_stats(h, st.labels_local, st.mask_local);
      }
      std::vector<double> triple{local.loss_sum, static_cast<double>(local.correct),
                                 static_cast<double>(local.count)};
      {
        Scoped s(log, "allreduce.loss", e);
        allreduce_sum<double>(reduce_comm, triple, "allreduce");
      }
      if (comm.rank() == 0) {
        metrics = {triple[0] / std::max(1.0, triple[2]),
                   triple[2] > 0 ? triple[1] / triple[2] : 0.0};
      }
      Matrix d_h;
      {
        Scoped s(log, "loss.grad", e);
        d_h = softmax_xent_grad(h, st.labels_local, st.mask_local, total_train_);
      }

      std::vector<Matrix> d_weights(static_cast<std::size_t>(model.n_layers()));
      for (int l = model.n_layers() - 1; l >= 0; --l) {
        GcnLayer::Backward back;
        {
          Scoped s(log, layer_name("layer", "bwd", l), e);
          back = model.layer(l).backward(d_h);
        }
        std::vector<real_t> flat{back.d_weights.data(),
                                 back.d_weights.data() + back.d_weights.size()};
        {
          Scoped s(log, "allreduce.grad.l" + std::to_string(l), e);
          allreduce_sum<real_t>(reduce_comm, flat, "allreduce");
        }
        d_weights[static_cast<std::size_t>(l)] =
            Matrix(back.d_weights.n_rows(), back.d_weights.n_cols(), std::move(flat));
        if (l > 0) {
          Scoped s(log, layer_name("propagate", "bwd", l), e);
          double cpu = 0;
          d_h = st.strategy->propagate_backward(back.d_m, &cpu);
          log->set_cpu(s.id(), cpu);
        }
      }
      {
        Scoped s(log, "optimizer", e);
        for (int l = 0; l < model.n_layers(); ++l) {
          model.layer(l).apply_gradient(d_weights[static_cast<std::size_t>(l)],
                                        cfg_.learning_rate, cfg_.weight_decay);
        }
      }
      log->set_cpu(ep.id(), thread_cpu_seconds() - cpu0);
    });
    return metrics;
  }

  double partition_seconds() const { return partition_seconds_; }
  const VolumeStats& volume() const { return volume_; }
  const std::vector<SpanLog>& logs() const { return logs_; }
  TrafficRecorder& traffic() { return cluster_.traffic(); }

 private:
  struct RankState {
    std::unique_ptr<DistributionStrategy> strategy;
    Matrix h0_local;
    std::vector<vid_t> labels_local;
    std::vector<std::uint8_t> mask_local;
    GcnModel model;
  };

  GcnConfig cfg_;
  CsrMatrix a_;
  Matrix h0_;
  std::vector<vid_t> labels_;
  std::vector<std::uint8_t> mask_;
  std::vector<BlockRange> ranges_;
  std::int64_t total_train_ = 0;
  double partition_seconds_ = 0;
  VolumeStats volume_;
  Cluster cluster_;
  std::vector<SpanLog> logs_;
  std::vector<std::unique_ptr<RankState>> states_;
  int epoch_ = 0;
};

/// Exact recorded traffic read from a TrainResult, grouped the way the
/// per-layer metrics name it.
void add_traffic(Outcome& out, const TrainResult& r, const GcnConfig& cfg) {
  double mb = 0, msgs = 0, other_mb = 0, other_msgs = 0;
  for (const auto& [phase, v] : r.phase_volumes) {
    mb += v.megabytes_per_epoch;
    msgs += v.messages_per_epoch;
    if (phase != "alltoall" && phase != "allreduce") {
      other_mb += v.megabytes_per_epoch;
      other_msgs += v.messages_per_epoch;
    }
  }
  const auto phase = [&](const char* name) {
    const auto it = r.phase_volumes.find(name);
    return it == r.phase_volumes.end() ? PhaseVolume{} : it->second;
  };
  double max_send = 0;
  for (vid_t w : propagate_widths(cfg.dims)) max_send += r.volume_model.max_send_megabytes(w);

  out.report["comm_mb_per_epoch"] = mb;
  out.report["comm_msgs_per_epoch"] = msgs;
  out.report["max_send_mb_per_epoch"] = max_send;
  out.report["modeled_comm_ms"] = r.modeled_epoch.comm() * 1e3;
  out.layers["simcomm.total.mb_per_epoch"] = mb;
  out.layers["simcomm.total.msgs_per_epoch"] = msgs;
  out.layers["simcomm.max_send_mb_per_epoch"] = max_send;
  out.layers["simcomm.modeled_comm_ms"] = r.modeled_epoch.comm() * 1e3;
  out.layers["simcomm.alltoall.mb_per_epoch"] = phase("alltoall").megabytes_per_epoch;
  out.layers["simcomm.alltoall.msgs_per_epoch"] = phase("alltoall").messages_per_epoch;
  out.layers["simcomm.allreduce.mb_per_epoch"] = phase("allreduce").megabytes_per_epoch;
  out.layers["simcomm.allreduce.msgs_per_epoch"] = phase("allreduce").messages_per_epoch;
  out.layers["simcomm.other.mb_per_epoch"] = other_mb;
  out.layers["simcomm.other.msgs_per_epoch"] = other_msgs;
  out.layers["simcomm.index_exchange.mb"] = r.setup_megabytes;
}

void check_faults(Outcome& out, const TrainResult& r) {
  out.layers["simcomm.faults.retries"] = static_cast<double>(r.faults.retries);
  out.check(!r.faults.any(), "fault counters are nonzero on a fault-free run");
}

void check_finite(Outcome& out, const std::vector<EpochMetrics>& traj) {
  for (std::size_t e = 0; e < traj.size(); ++e) {
    if (!std::isfinite(traj[e].loss)) {
      out.fail("loss is not finite at epoch " + std::to_string(e));
      return;
    }
  }
}

/// Over their common epochs, a distributed trajectory must stay within the
/// serial-parity tolerance of the test suite (5e-3 * max(1, loss)); a
/// serial one must repeat bit for bit.
void check_parity(Outcome& out, const std::vector<EpochMetrics>& got,
                  const std::vector<EpochMetrics>& serial, bool distributed) {
  for (std::size_t e = 0; e < std::min(got.size(), serial.size()); ++e) {
    const double ref = serial[e].loss;
    const bool ok = distributed
                        ? std::abs(got[e].loss - ref) <= 5e-3 * std::max(1.0, ref)
                        : got[e].loss == ref && got[e].train_accuracy == serial[e].train_accuracy;
    if (!ok) {
      std::ostringstream os;
      os << "epoch " << e << " loss " << got[e].loss << " vs serial reference " << ref;
      out.fail(os.str());
      return;
    }
  }
}

std::vector<EpochMetrics> serial_reference(const Dataset& ds, const GcnConfig& cfg,
                                           int threads) {
  auto ref = TrainerBuilder(ds).strategy("serial").gcn(cfg).threads(threads).build();
  for (int e = 0; e < kParityEpochs; ++e) ref->run_epoch();
  return ref->result().epochs;
}

Outcome timed_training(const Options& opt, const TrainSpec& spec) {
  Outcome out;
  out.ranks = spec.p;
  const Dataset ds = make_data(spec);
  const GcnConfig cfg = gcn_config(ds, opt.seed);
  const TrainerBuilder builder = builder_for(ds, spec, cfg, opt.pool_threads);

  // Each block trains a freshly built trainer from epoch 0; every block's
  // trajectory must repeat the first block's bit for bit.
  std::vector<Cost> setup;
  Blocks epochs;
  std::vector<EpochMetrics> first_block;
  std::unique_ptr<Trainer> trainer;
  const double block_s = opt.seconds / kBlocks;
  const auto t_run = Clock::now();
  for (int b = 0; b < kBlocks; ++b) {
    repeat_setup([&] { trainer.reset(); }, [&] { trainer = builder.build(); }, block_s,
                 setup, out);
    for (int e = 0; e < kWarmupEpochs; ++e) {
      ++out.attempted;
      trainer->run_epoch();
    }
    if (b == 0 && spec.distributed()) add_traffic(out, trainer->result(), cfg);
    epochs.start();
    Blocks::Block& block = epochs.current();
    const Stopwatch loop;
    while ((seconds_since(t_run) < 4 * opt.seconds) &&
           (loop.elapsed().wall < block_s || block.ops.size() < kMinBlockEpochs)) {
      ++out.attempted;
      const Stopwatch watch;
      trainer->run_epoch();
      block.ops.push_back(watch.elapsed());
    }
    block.loop = loop.elapsed();

    const TrainResult& result = trainer->result();
    check_finite(out, result.epochs);
    check_faults(out, result);
    if (b == 0) {
      first_block = result.epochs;
      continue;
    }
    const std::size_t n = std::min(first_block.size(), result.epochs.size());
    for (std::size_t e = 0; e < n; ++e) {
      if (!out.check(result.epochs[e].loss == first_block[e].loss,
                     "block " + std::to_string(b) + " differs from block 0 at epoch " +
                         std::to_string(e))) {
        break;
      }
    }
  }
  const double rss = peak_rss_mb();
  check_parity(out, first_block, serial_reference(ds, cfg, opt.pool_threads),
               spec.distributed());

  out.e2e["op_cpu_ms_p50"] = median(epochs.all(&Cost::cpu)) * 1e3;
  out.e2e["op_cpu_ms_tail"] = epochs.percentile_median(&Cost::cpu, kTailQuantile) * 1e3;
  out.e2e["ops_per_cpu_s"] = epochs.rate_median(&Cost::cpu);
  out.e2e["setup_s"] = median(on(setup, &Cost::cpu));
  out.e2e["peak_rss_mb"] = rss;
  out.report["epoch_ms_p50"] = median(epochs.all(&Cost::wall)) * 1e3;
  out.report["epoch_ms_tail"] = epochs.percentile_median(&Cost::wall, kTailQuantile) * 1e3;
  out.report["setup_wall_s"] = median(on(setup, &Cost::wall));
  out.notes["tail"] = epochs.describe_tail("p90", "epochs");
  out.notes["setup_reps"] = std::to_string(setup.size());
  out.notes["block_wall_medians"] = epochs.describe_medians(&Cost::wall);
  out.notes["block_cpu_medians"] = epochs.describe_medians(&Cost::cpu);
  return out;
}

/// One log's summed wall and CPU seconds of the matching spans of one
/// epoch.
struct EpochSpan {
  double wall = 0;
  double cpu = 0;
};
using PerEpoch = std::map<int, std::vector<EpochSpan>>;  // epoch -> one per log

/// Spans whose name starts with `prefix`, from `first_epoch` on, summed
/// per epoch and log.
PerEpoch collect(const std::vector<const SpanLog*>& logs, const std::string& prefix,
                 int first_epoch) {
  PerEpoch per;
  for (std::size_t r = 0; r < logs.size(); ++r) {
    for (const Span& s : logs[r]->spans()) {
      if (s.epoch < first_epoch || s.name.compare(0, prefix.size(), prefix) != 0) continue;
      auto& v = per[s.epoch];
      v.resize(logs.size());
      v[r].wall += s.duration();
      v[r].cpu += s.cpu;
    }
  }
  return per;
}

/// Median over epochs of the slowest log's summed span wall time, in ms.
double slowest_ms(const std::vector<const SpanLog*>& logs, const std::string& prefix,
                  int first_epoch) {
  std::vector<double> per_epoch;
  for (const auto& [e, v] : collect(logs, prefix, first_epoch)) {
    double worst = 0;
    for (const EpochSpan& x : v) worst = std::max(worst, x.wall);
    per_epoch.push_back(worst * 1e3);
  }
  return median(per_epoch);
}

/// Computed bytes one CSR SpMM Z = A*H of width f streams: the matrix
/// (row pointers, column indices, values), one gathered H row per
/// nonzero, and Z written once.
double spmm_bytes(const CsrMatrix& a, vid_t f) {
  const double n = a.n_rows(), nnz = static_cast<double>(a.nnz());
  return (n + 1) * sizeof(eid_t) + nnz * (sizeof(vid_t) + sizeof(real_t)) +
         nnz * f * sizeof(real_t) + n * f * sizeof(real_t);
}

/// sparse.* and gnn.* metrics from a serial replay's log.
void serial_layer_metrics(Outcome& out, const SpanLog& log, const Dataset& ds,
                          const GcnConfig& cfg, int first_epoch, bool dense_too) {
  const std::vector<const SpanLog*> logs{&log};
  const int L = cfg.n_layers();
  double bytes = 0, ms = 0;
  for (int l = 0; l < L; ++l) {
    const double fwd = slowest_ms(logs, layer_name("spmm", "fwd", l), first_epoch);
    out.layers["sparse.spmm.fwd.l" + std::to_string(l) + ".ms"] = fwd;
    bytes += spmm_bytes(ds.adjacency, cfg.dims[static_cast<std::size_t>(l)]);
    ms += fwd;
    if (l > 0) {
      const double bwd = slowest_ms(logs, layer_name("spmm", "bwd", l), first_epoch);
      out.layers["sparse.spmm.bwd.l" + std::to_string(l) + ".ms"] = bwd;
      bytes += spmm_bytes(ds.adjacency, cfg.dims[static_cast<std::size_t>(l)]);
      ms += bwd;
    }
  }
  out.layers["sparse.spmm.gbps"] = ms > 0 ? bytes / (ms * 1e-3) / 1e9 : 0;
  if (dense_too) {
    for (int l = 0; l < L; ++l) {
      for (const char* dir : {"fwd", "bwd"}) {
        out.layers["gnn.layer." + std::string(dir) + ".l" + std::to_string(l) + ".ms"] =
            slowest_ms(logs, layer_name("layer", dir, l), first_epoch);
      }
    }
    out.layers["gnn.loss.ms"] = slowest_ms(logs, "loss.", first_epoch);
    out.layers["gnn.optimizer.ms"] = slowest_ms(logs, "optimizer", first_epoch);
  }
}

void dist_layer_metrics(Outcome& out, const DistReplay& replay, const GcnConfig& cfg,
                        int first_epoch) {
  std::vector<const SpanLog*> logs;
  for (const SpanLog& log : replay.logs()) logs.push_back(&log);
  const int L = cfg.n_layers();
  for (int l = 0; l < L; ++l) {
    for (const char* dir : {"fwd", "bwd"}) {
      out.layers["gnn.layer." + std::string(dir) + ".l" + std::to_string(l) + ".ms"] =
          slowest_ms(logs, layer_name("layer", dir, l), first_epoch);
      if (std::string(dir) == "bwd" && l == 0) continue;
      // The slowest rank of each propagate: its compute (the cpu_seconds
      // out-parameter) and the rest of its span, which it spent waiting.
      std::vector<double> compute, wait;
      for (const auto& [e, v] : collect(logs, layer_name("propagate", dir, l), first_epoch)) {
        const auto slow = std::max_element(v.begin(), v.end(), [](const auto& a, const auto& b) {
          return a.wall < b.wall;
        });
        compute.push_back(slow->cpu * 1e3);
        wait.push_back((slow->wall - slow->cpu) * 1e3);
      }
      const std::string base = "dist.propagate." + std::string(dir) + ".l" + std::to_string(l);
      out.layers[base + ".compute_ms"] = median(compute);
      out.layers[base + ".wait_ms"] = median(wait);
    }
  }
  out.layers["gnn.loss.ms"] = slowest_ms(logs, "loss.", first_epoch);
  out.layers["gnn.optimizer.ms"] = slowest_ms(logs, "optimizer", first_epoch);
  out.layers["dist.allreduce.ms"] = slowest_ms(logs, "allreduce.", first_epoch);

  std::vector<double> imbalance;
  for (const auto& [e, v] : collect(logs, "epoch", first_epoch)) {
    double worst = 0, sum = 0;
    for (const EpochSpan& x : v) {
      worst = std::max(worst, x.cpu);
      sum += x.cpu;
    }
    if (sum > 0) imbalance.push_back(worst / (sum / static_cast<double>(v.size())));
  }
  out.layers["dist.compute_imbalance"] = median(imbalance);

  double setup = 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.name == "dist.setup") setup = std::max(setup, s.duration());
    }
  }
  out.layers["dist.setup.ms"] = setup * 1e3;
  out.layers["partition.partition_s"] = replay.partition_seconds();
  out.layers["partition.edgecut"] = static_cast<double>(replay.volume().edgecut);
  out.layers["partition.send_imbalance_pct"] = replay.volume().send_imbalance_percent();
  out.layers["partition.max_send_rows"] = static_cast<double>(replay.volume().max_send_rows());
}

/// The replay's recorded traffic, averaged exactly as the trainer's
/// finalize() does, must equal the trainer's phase volumes.
void check_replay_traffic(Outcome& out, DistReplay& replay, const TrainResult& r) {
  const TrafficRecorder traffic = replay.traffic();
  const double inv_epochs = 1.0 / std::max(1, r.epochs_completed());
  for (const auto& [phase, v] : r.phase_volumes) {
    const PhaseTraffic t = traffic.phase_total(phase);
    const double mb = static_cast<double>(t.total_bytes()) * inv_epochs / 1.0e6;
    const double msgs = static_cast<double>(t.total_msgs()) * inv_epochs;
    out.check(mb == v.megabytes_per_epoch && msgs == v.messages_per_epoch,
              "replay traffic differs from the trainer's in phase " + phase);
  }
}

Outcome traced_training(const Options& opt, const TrainSpec& spec) {
  Outcome out;
  out.ranks = spec.p;
  const Dataset ds = make_data(spec);
  const GcnConfig cfg = gcn_config(ds, opt.seed);
  const auto origin = Clock::now();

  auto trainer = builder_for(ds, spec, cfg, opt.pool_threads).build();
  ++out.attempted;
  SpanLog driver_log(origin, spec.p);  // the driver thread's own track
  std::unique_ptr<SerialReplay> serial;
  std::unique_ptr<DistReplay> dist;
  if (spec.distributed()) {
    dist = std::make_unique<DistReplay>(ds, spec, cfg, origin);
  } else {
    serial = std::make_unique<SerialReplay>(ds, cfg);
  }

  // Trainer and replay step in lockstep, so every replayed epoch is
  // compared with the trainer's epoch of the same index.
  std::vector<double> untraced_s, traced_s;
  double trainer_cpu = 0, trainer_wall = 0;
  const auto t_loop = Clock::now();
  for (int e = 0; (seconds_since(t_loop) < opt.seconds ||
                   traced_s.size() < kMinTracedEpochs) &&
                  seconds_since(t_loop) < 4 * opt.seconds;
       ++e) {
    out.attempted += 2;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    const EpochMetrics want = trainer->run_epoch();
    const double wall = seconds_since(t0);
    const double cpu = process_cpu_seconds() - cpu0;

    const auto t1 = Clock::now();
    const EpochMetrics got = dist ? dist->epoch() : serial->epoch(&driver_log);
    const double traced = seconds_since(t1);
    if (!out.check(got.loss == want.loss && got.train_accuracy == want.train_accuracy,
                   "replay differs from the trainer at epoch " + std::to_string(e))) {
      break;
    }
    // Exact traffic is read at a fixed epoch count, as in the untraced run.
    if (dist && e == kWarmupEpochs - 1) add_traffic(out, trainer->result(), cfg);
    if (e < kWarmupEpochs) continue;
    untraced_s.push_back(wall);
    traced_s.push_back(traced);
    trainer_cpu += cpu;
    trainer_wall += wall;
  }

  const TrainResult& result = trainer->result();
  check_finite(out, result.epochs);
  check_faults(out, result);
  out.layers["common.pool.cpu_util"] =
      trainer_cpu / (trainer_wall * static_cast<double>(opt.pool_threads));
  out.layers["trace.overhead_frac"] = median(traced_s) / median(untraced_s) - 1.0;

  std::string gap;
  if (dist) {
    check_replay_traffic(out, *dist, result);
    out.layers["simcomm.overlap.hidden_frac"] = result.measured_overlap_fraction();
    out.layers["simcomm.overlap.max_blocked_ms"] = result.modeled_epoch.measured_max_blocked * 1e3;
    dist_layer_metrics(out, *dist, cfg, kWarmupEpochs);
    double share = 0;
    std::string rank_gap;
    for (const SpanLog& log : dist->logs()) {
      share += unattributed_share(log.spans(), "epoch", &rank_gap);
      if (gap.empty()) gap = rank_gap;
    }
    out.layers["trace.unattributed_frac"] = share / static_cast<double>(dist->logs().size());

    // The serial reference of the parity check is itself a traced replay:
    // it supplies the sparse.* kernel spans of this dataset.
    SpanLog serial_log(origin, spec.p + 1);
    SerialReplay reference(ds, cfg);
    std::vector<EpochMetrics> ref;
    for (int e = 0; e < kParityEpochs; ++e) ref.push_back(reference.epoch(&serial_log));
    check_parity(out, result.epochs, ref, true);
    serial_layer_metrics(out, serial_log, ds, cfg, kWarmupEpochs, false);
    if (!opt.trace_file.empty()) {
      std::vector<const SpanLog*> all{&serial_log};
      for (const SpanLog& log : dist->logs()) all.push_back(&log);
      write_trace(opt.trace_file, all);
    }
  } else {
    serial_layer_metrics(out, driver_log, ds, cfg, kWarmupEpochs, true);
    out.layers["trace.unattributed_frac"] = unattributed_share(driver_log.spans(), "epoch", &gap);
    if (!opt.trace_file.empty()) write_trace(opt.trace_file, {&driver_log});
  }
  out.notes["largest_unattributed_gap"] = gap;
  out.notes["traced_epochs"] = std::to_string(traced_s.size());
  return out;
}

}  // namespace

bool is_training_workload(const std::string& name) {
  return name == "train-serial-reddit" || name == "train-1d-papers" ||
         name == "train-15d-reddit";
}

Outcome run_training(const Options& opt) {
  const TrainSpec spec = spec_for(opt.workload);
  return opt.trace ? traced_training(opt, spec) : timed_training(opt, spec);
}

}  // namespace perfbench
