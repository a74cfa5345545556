#include "gnn/trainer.hpp"

#include <cstdio>
#include <fstream>
#include <istream>

#include "ckpt/state_io.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "gnn/distributed_trainer.hpp"
#include "gnn/sampled_trainer.hpp"
#include "gnn/serial_trainer.hpp"
#include "gnn/strategy.hpp"
#include "partition/partitioner_registry.hpp"

namespace sagnn {

void Trainer::arm_auto_checkpoint(std::string path, int every_epochs) {
  SAGNN_REQUIRE(every_epochs >= 0, "auto_checkpoint_every must be >= 0");
  SAGNN_REQUIRE(every_epochs == 0 || !path.empty(),
                "periodic auto-checkpointing needs a path "
                "(TrainerBuilder::auto_checkpoint)");
  auto_checkpoint_path_ = std::move(path);
  auto_checkpoint_every_ = every_epochs;
}

void Trainer::maybe_auto_checkpoint(int epochs_completed) {
  if (auto_checkpoint_every_ <= 0 || epochs_completed == 0 ||
      epochs_completed % auto_checkpoint_every_ != 0) {
    return;
  }
  // Write a sibling tmp file, flush-and-close with the stream state
  // checked, then rename over the target: a PROCESS crash, short write,
  // or close-time flush failure can never replace the previous good
  // snapshot with a torn one. (Durability against power loss would
  // additionally need fsync of the file and its directory, which
  // iostreams cannot express — out of scope for the preemption studies
  // this serves, whose failure mode is a killed process.)
  const std::string& path = auto_checkpoint_path_;
  const std::string tmp = path + ".tmp";
  WallTimer save_timer;
  std::ofstream out(tmp, std::ios::binary);
  SAGNN_REQUIRE(out.good(), "cannot open " + tmp + " for auto-checkpoint");
  save(out);
  out.flush();
  const auto bytes = out.tellp();
  out.close();
  SAGNN_REQUIRE(!out.fail(), "short write while auto-checkpointing to " + tmp);
  SAGNN_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
                "cannot move auto-checkpoint into place at " + path);
  last_auto_save_seconds_ = save_timer.seconds();
  last_auto_snapshot_bytes_ =
      bytes > 0 ? static_cast<std::uint64_t>(bytes) : 0;
}

TrainerBuilder& TrainerBuilder::strategy(std::string name) {
  // Fail fast: catch the typo where it was written, not at build() — the
  // registry lookup there would raise the same error, only later.
  strategy_registry().require(name, {"serial", "sampled"});
  config_.strategy = std::move(name);
  set_.strategy = true;
  return *this;
}

TrainerBuilder& TrainerBuilder::partitioner(std::string name,
                                            PartitionerOptions opts) {
  partitioner_registry().require(name);
  config_.partitioner = std::move(name);
  config_.partitioner_options = opts;
  set_.partitioner = true;
  return *this;
}

TrainerBuilder& TrainerBuilder::autotune(PlannerOptions opts) {
  // Builder knobs pin search dimensions. A pinned strategy restricts the
  // registry walk to that one name — but only distributed strategies have
  // a cost surface to rank.
  if (set_.strategy) {
    SAGNN_REQUIRE(config_.strategy != "serial" && config_.strategy != "sampled",
                  "autotune() plans distributed training; '" +
                      config_.strategy + "' is a built-in single-rank mode");
    opts.strategies = {config_.strategy};
  }
  if (set_.partitioner) {
    opts.partitioners = {config_.partitioner};
    opts.census.partitioners = {config_.partitioner};
    opts.census.partitioner_options = config_.partitioner_options;
  }
  if (set_.ranks) {
    opts.pinned_p = config_.p;
    // ranks(p, 0) pins only the rank count, like resume().
    if (config_.c >= 1) opts.pinned_c = config_.c;
  }
  if (set_.pipeline_chunks) opts.pinned_chunks = config_.pipeline_chunks;
  if (set_.cost_model) opts.cost_model = config_.cost_model;
  if (!config_.gcn.dims.empty()) opts.dims = config_.gcn.dims;

  plan_ = plan_strategies(take_census(*dataset_, opts.census), opts);
  const PlanCandidate& best = plan_.best();
  // Adopt the winner WITHOUT flipping the set_ flags: autotune() is a
  // default-provider like instantiate()'s dims derivation, not an explicit
  // override (resume() semantics stay byte-for-byte).
  config_.strategy = best.strategy;
  config_.partitioner = best.partitioner;
  config_.p = best.p;
  config_.c = best.c;
  config_.pipeline_chunks = best.chunks;
  return *this;
}

std::unique_ptr<Trainer> TrainerBuilder::instantiate(TrainConfig cfg) const {
  const Dataset& ds = *dataset_;
  if (cfg.threads >= 1) set_parallel_threads(cfg.threads);
  if (cfg.gcn.dims.empty()) {
    // The paper's default architecture: 3 layers, 16 hidden units.
    cfg.gcn.dims = {ds.n_features(), 16, 16, ds.n_classes};
  }
  std::unique_ptr<Trainer> trainer;
  if (cfg.strategy == "serial") {
    trainer = std::make_unique<SerialTrainer>(ds, cfg.gcn, cfg.kernels);
  } else if (cfg.strategy == "sampled") {
    trainer =
        std::make_unique<SampledTrainer>(ds, cfg.gcn, cfg.sampling, cfg.kernels);
  } else {
    // Any other name resolves against the distribution-strategy registry;
    // unknown names raise std::invalid_argument listing the registered ones.
    trainer = std::make_unique<DistributedTrainer>(ds, cfg);
  }
  trainer->arm_auto_checkpoint(cfg.auto_checkpoint_path,
                               cfg.auto_checkpoint_every);
  return trainer;
}

std::unique_ptr<Trainer> TrainerBuilder::build() const {
  return instantiate(config_);
}

std::unique_ptr<Trainer> TrainerBuilder::resume(std::istream& in) const {
  ckpt::Deserializer d(in);
  d.enter_section("config");
  TrainConfig cfg = ckpt::read_train_config(d);
  d.leave_section();
  d.enter_section("dataset");
  ckpt::check_dataset_fingerprint(d, *dataset_);
  d.leave_section();
  const TrainConfig saved = cfg;  // pre-override snapshot for restore()

  // The checkpoint's configuration is authoritative; only knobs the caller
  // explicitly set on this builder override it (elastic restart et al.).
  // An alias names the same algorithm as its canonical name.
  const StrategyRegistry& strategies = strategy_registry();
  if (set_.strategy &&
      strategies.canonical(config_.strategy) != strategies.canonical(cfg.strategy)) {
    throw ckpt::CheckpointMismatchError(
        "checkpoint was trained with strategy '" + cfg.strategy +
        "', resume requests '" + config_.strategy +
        "' — changing the algorithm mid-run is not a resume");
  }
  if (set_.ranks) {
    cfg.p = config_.p;
    // ranks(p', 0) overrides only the rank count and keeps the
    // checkpoint's replication factor.
    if (config_.c >= 1) cfg.c = config_.c;
  }
  if (set_.partitioner) {
    cfg.partitioner = config_.partitioner;
    cfg.partitioner_options = config_.partitioner_options;
  }
  if (set_.threads) cfg.threads = config_.threads;
  if (set_.pipeline_chunks) cfg.pipeline_chunks = config_.pipeline_chunks;
  // Kernel format is a runtime knob that never enters the snapshot
  // (bitwise-neutral); the resuming builder re-arms it explicitly.
  if (set_.kernels) cfg.kernels = config_.kernels;
  if (set_.epochs) cfg.gcn.epochs = config_.gcn.epochs;
  if (set_.cost_model) cfg.cost_model = config_.cost_model;
  // Auto-checkpointing is a runtime knob that never enters the snapshot;
  // the resuming builder must re-arm it explicitly.
  if (set_.auto_checkpoint) {
    cfg.auto_checkpoint_path = config_.auto_checkpoint_path;
    cfg.auto_checkpoint_every = config_.auto_checkpoint_every;
  }
  // Fault injection is runtime-only the same way.
  if (set_.fault) {
    cfg.fault_plan = config_.fault_plan;
    cfg.fault_recovery = config_.fault_recovery;
  }

  std::unique_ptr<Trainer> trainer = instantiate(cfg);
  trainer->restore(d, saved);
  d.finish();
  return trainer;
}

}  // namespace sagnn
