#include "gnn/distributed_trainer.hpp"

#include <algorithm>
#include <fstream>

#include "ckpt/state_io.hpp"
#include "common/timer.hpp"
#include "gnn/loss.hpp"
#include "sparse/permute.hpp"

namespace sagnn {

/// Everything one simulated rank keeps alive between epochs. The strategy
/// holds its communicators by value, so the state stays valid across
/// successive Cluster::run() invocations.
struct DistributedTrainer::RankState {
  std::unique_ptr<DistributionStrategy> strategy;
  Matrix h0_local;
  std::vector<vid_t> labels_local;
  std::vector<std::uint8_t> mask_local;
  /// Original vertex id of each permuted local row: dropout masks key on
  /// the ORIGINAL identity so they match serial training exactly.
  std::vector<vid_t> ids_local;
  GcnModel model;  ///< same seed -> identical weights on all ranks
};

DistributedTrainer::DistributedTrainer(const Dataset& dataset, TrainConfig config)
    : config_(std::move(config)), dataset_(&dataset) {
  initialize();
}

void DistributedTrainer::initialize() {
  const Dataset& dataset = *dataset_;
  SAGNN_REQUIRE(config_.p >= 1, "need at least one rank");
  job_strategy_ = strategy_registry().create(config_.strategy);
  const int n_blocks = job_strategy_->n_blocks(config_.p, config_.c);
  SAGNN_REQUIRE(config_.gcn.dims.front() == dataset.n_features() &&
                    config_.gcn.dims.back() == dataset.n_classes,
                "GCN dims must match the dataset");

  // ---- Partition & permute (one-time preprocessing, paper §6.3.1). ----
  WallTimer part_timer;
  const auto partitioner =
      make_partitioner(config_.partitioner, config_.partitioner_options);
  const Partition partition = partitioner->partition(dataset.adjacency, n_blocks);
  result_.partition_wall_seconds = part_timer.seconds();
  result_.volume_model = compute_volume_stats(dataset.adjacency, partition);

  const auto perm = partition.relabel_permutation();
  a_ = permute_symmetric(dataset.adjacency, perm);
  h0_ = permute_rows(dataset.features, perm);
  labels_ = permute_labels(dataset.labels, perm);
  mask_.assign(dataset.train_mask.size(), 0);
  for (std::size_t v = 0; v < mask_.size(); ++v) {
    mask_[static_cast<std::size_t>(perm[v])] = dataset.train_mask[v];
  }
  ranges_ = ranges_from_sizes(partition.part_sizes());
  original_id_ = invert_permutation(perm);
  total_train_ = std::count(mask_.begin(), mask_.end(), std::uint8_t{1});
  SAGNN_REQUIRE(total_train_ > 0, "dataset has no training vertices");

  // ---- Cluster + per-rank strategy setup. ----
  // Destruction order matters on re-initialization: the old RankStates
  // hold communicators into the old world, so they go first.
  states_.clear();
  cluster_ = std::make_unique<Cluster>(config_.p, config_.fault_plan);
  states_.resize(static_cast<std::size_t>(config_.p));
  rank_cpu_seconds_.assign(static_cast<std::size_t>(config_.p), 0.0);
  const StrategyContext ctx = context();
  cluster_->run([&](Comm& comm) {
    auto st = std::make_unique<RankState>();
    st->strategy = strategy_registry().create(config_.strategy);
    st->strategy->setup(comm, ctx);
    const BlockRange range = st->strategy->my_range();
    st->h0_local = h0_.slice_rows(range.begin, range.end);
    st->labels_local.assign(labels_.begin() + range.begin,
                            labels_.begin() + range.end);
    st->mask_local.assign(mask_.begin() + range.begin, mask_.begin() + range.end);
    st->ids_local.assign(original_id_.begin() + range.begin,
                         original_id_.begin() + range.end);
    st->model = GcnModel(config_.gcn);
    states_[static_cast<std::size_t>(comm.rank())] = std::move(st);
  });
  result_.setup_megabytes =
      static_cast<double>(
          cluster_->traffic().phase("index_exchange").total_bytes()) /
      1.0e6;
}

DistributedTrainer::~DistributedTrainer() = default;

std::string DistributedTrainer::name() const {
  // The c that runs: the 1D strategies pin it to 1 whatever config_.c says.
  const int c = config_.p / job_strategy_->n_blocks(config_.p, config_.c);
  return job_strategy_->name() + "+" + config_.partitioner + "@p=" +
         std::to_string(config_.p) + (c > 1 ? ",c=" + std::to_string(c) : "");
}

EpochMetrics DistributedTrainer::run_epoch() {
  const int e = epoch_;
  EpochMetrics metrics;
  // Arm scheduled kills for this epoch (single-threaded: no rank is inside
  // the world between cluster rounds). Setup traffic above ran kill-free.
  if (config_.fault_plan != nullptr) cluster_->world().begin_fault_epoch(e);
  cluster_->run([&](Comm& comm) {
    // Epoch-boundary kill check (KillSpec::after_sends == 0 fires here,
    // before any work of the epoch).
    if (config_.fault_plan != nullptr) comm.world().poll_fault(comm.rank());
    RankState& st = *states_[static_cast<std::size_t>(comm.rank())];
    // Cross-layer pipelined strategies reset their epoch-wide stage
    // cursor here, so every epoch tags the same stage sequence.
    st.strategy->begin_epoch();
    double* cpu = &rank_cpu_seconds_[static_cast<std::size_t>(comm.rank())];
    Comm& reduce_comm = st.strategy->reduce_comm();
    GcnModel& model = st.model;
    const GcnConfig& gcn = config_.gcn;

    // Forward. Input dropout masks are a pure function of
    // (seed, epoch, ORIGINAL row id), so they agree with serial training
    // and across replicas of the same block row.
    Matrix h = st.h0_local;
    if (gcn.dropout > 0.0f) {
      ThreadCpuTimer t_drop;
      dropout_rows_deterministic(
          h, gcn.dropout,
          gcn.seed ^ (0x9e37ull * (static_cast<std::uint64_t>(e) + 1)),
          st.ids_local);
      *cpu += t_drop.seconds();
    }
    for (int l = 0; l < model.n_layers(); ++l) {
      Matrix m = st.strategy->propagate_forward(h, cpu);
      ThreadCpuTimer t;
      h = model.layer(l).forward(std::move(m));
      *cpu += t.seconds();
    }

    // Local loss statistics and gradient from one softmax. The gradient
    // needs only the local logits and the global train count, so it does
    // not wait for the statistics' all-reduce.
    LossAndGrad loss = softmax_xent(h, st.labels_local, st.mask_local, total_train_);
    // Global loss statistics (tiny all-reduce; lower-order term).
    std::vector<double> triple{loss.stats.loss_sum,
                               static_cast<double>(loss.stats.correct),
                               static_cast<double>(loss.stats.count)};
    allreduce_sum<double>(reduce_comm, triple, "allreduce");
    if (comm.rank() == 0) {
      metrics = {triple[0] / std::max(1.0, triple[2]),
                 triple[2] > 0 ? triple[1] / triple[2] : 0.0};
    }

    // Backward.
    Matrix d_h = std::move(loss.grad);
    std::vector<Matrix> d_weights(static_cast<std::size_t>(model.n_layers()));
    for (int l = model.n_layers() - 1; l >= 0; --l) {
      ThreadCpuTimer t;
      auto back = model.layer(l).backward(d_h);
      *cpu += t.seconds();
      // dW = M^T dZ summed over the disjoint block rows.
      std::vector<real_t> flat{back.d_weights.data(),
                               back.d_weights.data() + back.d_weights.size()};
      allreduce_sum<real_t>(reduce_comm, flat, "allreduce");
      d_weights[static_cast<std::size_t>(l)] = Matrix(
          back.d_weights.n_rows(), back.d_weights.n_cols(), std::move(flat));
      if (l > 0) d_h = st.strategy->propagate_backward(back.d_m, cpu);
    }
    ThreadCpuTimer t;
    for (int l = 0; l < model.n_layers(); ++l) {
      model.layer(l).apply_gradient(d_weights[static_cast<std::size_t>(l)],
                                    gcn.learning_rate, gcn.weight_decay);
    }
    *cpu += t.seconds();
  });
  epochs_.push_back(metrics);
  ++epoch_;
  return metrics;
}

const GcnModel& DistributedTrainer::model() const {
  return states_.front()->model;
}

void DistributedTrainer::save(std::ostream& out) {
  // The weights are replicated by construction (same init seed, identical
  // all-reduced gradients); verify before writing one copy, so a snapshot
  // can never launder a replication bug into a "successful" restore.
  const GcnModel& reference = states_.front()->model;
  for (const auto& st : states_) {
    for (int l = 0; l < reference.n_layers(); ++l) {
      SAGNN_CHECK(st->model.layer(l).weights() == reference.layer(l).weights());
    }
  }
  ckpt::Serializer s(out);
  ckpt::write_prologue(s, config_, *dataset_);
  ckpt::write_progress(s, epoch_, epochs_);
  s.begin_section("model");
  ckpt::write_model(s, reference);
  s.end_section();
  s.begin_section("traffic");
  ckpt::write_traffic(s, cluster_->traffic());
  s.end_section();
  s.begin_section("rank_cpu");
  s.write_vector(rank_cpu_seconds_,
                 [](ckpt::Serializer& x, double v) { x.write_f64(v); });
  s.end_section();
  // Epochs NOT covered by the recorder (nonzero iff this run itself began
  // as an elastic restart) — a later same-geometry resume must keep
  // dividing traffic by the epochs it actually covers.
  s.begin_section("traffic_base");
  s.write_i32(traffic_epoch_base_);
  s.end_section();
  s.finish();
}

void DistributedTrainer::restore(ckpt::Deserializer& d,
                                 const TrainConfig& saved) {
  epoch_ = ckpt::read_progress(d, epochs_);

  // Load the replicated weights into every rank's model. The constructor
  // already partitioned the (possibly new) geometry and ran setup, so this
  // is pure state injection — no cluster round needed.
  d.enter_section("model");
  ckpt::read_model_into(d, states_.front()->model);
  d.leave_section();
  for (std::size_t r = 1; r < states_.size(); ++r) {
    states_[r]->model = states_.front()->model;
  }

  d.enter_section("traffic");
  TrafficRecorder saved_traffic = ckpt::read_traffic(d);
  d.leave_section();
  d.enter_section("rank_cpu");
  auto saved_cpu = d.read_vector<double>(
      [](ckpt::Deserializer& x) { return x.read_f64(); });
  d.leave_section();
  if (saved_traffic.p() != saved.p) {
    throw ckpt::CheckpointFormatError(
        "section 'traffic': recorded for p=" +
        std::to_string(saved_traffic.p()) +
        " but the checkpoint config says p=" + std::to_string(saved.p));
  }
  if (saved_cpu.size() != static_cast<std::size_t>(saved_traffic.p())) {
    throw ckpt::CheckpointFormatError(
        "section 'rank_cpu': " + std::to_string(saved_cpu.size()) +
        " entries for a " + std::to_string(saved_traffic.p()) +
        "-rank snapshot");
  }
  d.enter_section("traffic_base");
  const int saved_traffic_base = d.read_i32();
  d.leave_section();
  if (saved_traffic_base < 0 || saved_traffic_base > epoch_) {
    throw ckpt::CheckpointFormatError(
        "section 'traffic_base': base " + std::to_string(saved_traffic_base) +
        " outside [0, " + std::to_string(epoch_) + "]");
  }

  // "Same geometry" means the full communication-relevant configuration,
  // not just the rank count: a changed c, partitioner (different
  // permutation and halos), or pipeline chunking (different stage tags)
  // makes the snapshot's history incomparable even at equal p.
  const bool same_comm_config =
      saved.p == config_.p && saved.c == config_.c &&
      saved.partitioner == config_.partitioner &&
      saved.partitioner_options == config_.partitioner_options &&
      saved.pipeline_chunks == config_.pipeline_chunks;
  if (same_comm_config) {
    // Adopt the snapshot's full communication history (which includes the
    // one-time index exchange this constructor just re-recorded
    // identically), so per-epoch averages continue exactly as in an
    // uninterrupted run. The snapshot's own base carries over: it is
    // nonzero when that run had itself elastically restarted.
    cluster_->traffic() = saved_traffic;
    rank_cpu_seconds_ = std::move(saved_cpu);
    traffic_epoch_base_ = saved_traffic_base;
  } else {
    // Elastic restart: the old geometry's (src, dst) counters are
    // meaningless under the new layout. Keep the fresh recorder (it
    // already holds the new index exchange) and restart per-epoch
    // accounting here.
    traffic_epoch_base_ = epoch_;
  }
  finalized_epochs_ = -1;
}

const std::vector<EpochMetrics>& DistributedTrainer::train() {
  while (epoch_ < config_.gcn.epochs) {
    try {
      run_epoch();
    } catch (const RankKilledError& kill) {
      if (config_.fault_recovery != FaultRecovery::kCheckpointRestart) throw;
      recover_from_kill(kill);
      continue;
    }
    maybe_auto_checkpoint(epoch_);
  }
  finalize();
  return epochs_;
}

void DistributedTrainer::recover_from_kill(const RankKilledError& kill) {
  WallTimer timer;
  ++recovery_.kills;
  // The aborted world's recorder dies with the cluster; bank its fault
  // counters first (the snapshot we restore holds none — they are
  // runtime-only).
  faults_before_recovery_ += cluster_->traffic().fault_counters();
  const int epochs_done_before = epoch_;

  if (kill.permanent()) {
    SAGNN_REQUIRE(config_.p > 1,
                  "permanent kill of the last remaining rank is unsurvivable");
    config_.p = config_.p - 1;
    ++recovery_.elastic_restarts;
  }

  const std::string& path = auto_checkpoint_path();
  std::ifstream snapshot;
  if (!path.empty()) snapshot.open(path, std::ios::binary);

  // Everything the kill poisoned — the aborted world, its mailboxes, and
  // rank state possibly mid-gradient — is rebuilt from scratch for the
  // (possibly reduced) geometry...
  initialize();

  if (snapshot.is_open() && snapshot.good()) {
    // ...then the last complete snapshot is injected, exactly the
    // TrainerBuilder::resume() flow. The auto-checkpoint's tmp+rename
    // atomicity guarantees this file is never a torn write.
    ckpt::Deserializer d(snapshot);
    d.enter_section("config");
    const TrainConfig saved = ckpt::read_train_config(d);
    d.leave_section();
    d.enter_section("dataset");
    ckpt::check_dataset_fingerprint(d, *dataset_);
    d.leave_section();
    restore(d, saved);
    d.finish();
    ++recovery_.restores;
  } else {
    // Killed before the first auto-checkpoint (or none armed): cold
    // restart — replay the whole run from epoch 0. Deterministic kernels
    // and one-shot kills make the replayed trajectory identical.
    epoch_ = 0;
    epochs_.clear();
    traffic_epoch_base_ = 0;
    finalized_epochs_ = -1;
    ++recovery_.cold_restarts;
  }
  recovery_.replayed_epochs += epochs_done_before - epoch_;
  recovery_.recovery_seconds += timer.seconds();
}

const TrainResult& DistributedTrainer::result() {
  finalize();
  return result_;
}

void DistributedTrainer::finalize() {
  if (finalized_epochs_ == epoch_) return;
  finalized_epochs_ = epoch_;
  // Every per-epoch average below divides by the COMPLETED epoch count
  // (== result_.epochs.size()), so a run stopped early via run_epoch()
  // stepping reports consistently. After an elastic restore the recorder
  // only holds post-restart traffic, so averages divide by the epochs it
  // actually covers (epoch_ - traffic_epoch_base_).
  result_.epochs = epochs_;

  const TrafficRecorder traffic = cluster_->traffic();  // snapshot
  const int traffic_epochs = std::max(1, epoch_ - traffic_epoch_base_);
  const double inv_epochs = 1.0 / traffic_epochs;

  // Per-epoch traffic: everything except setup and barriers, averaged.
  // Stage-tagged phases ("alltoall#k") aggregate under their base name;
  // the deepest stage count is the pipeline depth the run used.
  result_.phase_volumes.clear();
  result_.pipeline_stages = 1;
  for (const auto& phase : traffic.phase_names()) {
    const std::string base = TrafficRecorder::base_name(phase);
    if (base == "sync" || base == "index_exchange") continue;
    if (result_.phase_volumes.count(base)) continue;  // base seen already
    const PhaseTraffic tr = traffic.phase_total(base);
    result_.phase_volumes[base] = {
        static_cast<double>(tr.total_bytes()) * inv_epochs / 1.0e6,
        static_cast<double>(tr.total_msgs()) * inv_epochs};
    result_.pipeline_stages =
        std::max(result_.pipeline_stages, traffic.stage_count(base));
  }

  const StrategyContext ctx = context();
  result_.modeled_epoch =
      job_strategy_->epoch_cost(config_.cost_model, traffic, rank_cpu_seconds_,
                                ctx, traffic_epochs);

  const auto smoothed = job_strategy_->smooth_rank_cpu(ctx, rank_cpu_seconds_);
  double max_cpu = 0;
  for (double s : smoothed) max_cpu = std::max(max_cpu, s * inv_epochs);
  result_.max_rank_cpu_seconds_per_epoch = max_cpu;

  // Fault/recovery surfacing: counters accumulate across clusters torn
  // down by kill recovery plus the live recorder.
  result_.faults = faults_before_recovery_;
  result_.faults += traffic.fault_counters();
  result_.recovery = recovery_;
  result_.recovery.last_save_seconds = last_auto_save_seconds();
  result_.recovery.snapshot_bytes = last_auto_snapshot_bytes();
}

}  // namespace sagnn
