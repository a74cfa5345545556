#pragma once
// The distribution-strategy seam of distributed training.
//
// A DistributionStrategy encapsulates everything that differs between the
// paper's communication schemes (1D/1.5D x oblivious/sparsity-aware):
// the process geometry, the per-rank communicators and distributed-matrix
// state, the collective schedule of one aggregation Â·X in forward and
// backward direction, and the algorithm-specific part of the modeled
// epoch cost. The DistributedTrainer is written once against this
// interface. Every registered name is a configuration of Strategy15d
// (src/gnn/strategies/strategy_15d.hpp): the 1D schemes run its 1.5D grid
// at c = 1. Strategies self-register with strategy_registry() under
// CLI-friendly names, so new schemes plug in without touching the trainer
// or any driver.
//
// Lifecycle: a strategy object is created per rank (plus one job-level
// instance for geometry/cost queries). setup() binds it to a rank inside
// the cluster; the propagate calls and reduce_comm() are only valid after
// setup().

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/registry.hpp"
#include "dense/matrix.hpp"
#include "simcomm/collectives.hpp"
#include "simcomm/cost_model.hpp"
#include "sparse/blocks.hpp"
#include "sparse/sell.hpp"

namespace sagnn {

/// Immutable job-level description shared by all ranks: the (already
/// partitioned and symmetrically permuted) adjacency and its block rows.
struct StrategyContext {
  int p = 1;  ///< simulated GPU count
  int c = 1;  ///< replication factor (the 1D strategies run c = 1)
  const CsrMatrix* adjacency = nullptr;
  std::span<const BlockRange> ranges;
  /// Column-chunk count for pipelined strategies ("1d-overlap",
  /// "1.5d-overlap"); bulk-synchronous strategies ignore it.
  int pipeline_chunks = 4;
  /// Local-kernel selection forwarded to the distributed SpMM layers
  /// (sparse/sell.hpp); bitwise-neutral.
  KernelConfig kernels{};
};

struct GraphCensus;  // src/plan/census.hpp

/// One candidate configuration to be priced by predict_cost(): the census
/// plus every knob the planner (src/plan/planner.hpp) searches over.
struct PredictInput {
  const GraphCensus* census = nullptr;
  int p = 1;       ///< simulated GPU count
  int c = 1;       ///< replication factor
  int chunks = 1;  ///< pipeline chunks K (pipelined strategies)
  std::string partitioner = "block";  ///< partitioner registry name
  CostModel model;                    ///< volume_scale already calibrated
  std::vector<vid_t> dims;            ///< GCN layer widths {d_0 .. d_L}
  /// Host multiply-add throughput for the NOMINAL compute term (no
  /// measurement enters a prediction — that is what keeps a ranked plan
  /// deterministic across machines and thread counts). bench_planner pins
  /// the truth runs' compute to the same closed form, so regret compares
  /// schedules, not host noise.
  double host_madds_per_second = 2.5e8;
};

/// A predicted epoch cost: the closed-form volume/message models of
/// docs/strategies.md priced through the alpha-beta CostModel.
struct PredictedCost {
  bool valid = false;  ///< false: invalid geometry / strategy cannot predict
  EpochCost cost;      ///< buckets + latency decomposition, no measurement
  int depth = 1;       ///< modeled pipeline depth for total_pipelined()
  std::string note;    ///< why invalid (diagnostics)

  /// The planner's ranking score.
  double seconds() const { return cost.total_pipelined(depth); }
};

/// Prices the collective patterns of the strategies into EpochCost buckets
/// under a CostModel — the shared vocabulary of the predict_cost()
/// overrides. Byte arguments are RAW; volume_scale is applied here (to
/// bytes, never to message counts), mirroring epoch_cost(). The alpha/beta
/// mix distinguishes ring exchanges (the bottleneck rank sits on a node
/// boundary, so its neighbor link is inter-node as soon as the group spans
/// nodes) from spread exchanges (a rank talks to every group member, so
/// intra-node peers dilute the latency).
class CostEstimator {
 public:
  explicit CostEstimator(const CostModel& model) : m_(model) {}

  /// Average per-message alpha/beta for a rank exchanging with all
  /// `group - 1` peers spaced `stride` apart in global rank order.
  double alpha_spread(int group, int stride) const;
  double beta_spread(int group, int stride) const;
  /// Alpha/beta of a ring step when the ring's members are spaced `stride`
  /// apart: inter-node iff the ring spans a node boundary.
  double alpha_ring(int group, int stride) const;
  double beta_ring(int group, int stride) const;

  /// Pairwise alltoallv: `msgs` messages and `bytes` payload serialized at
  /// the bottleneck rank of a `group`-member communicator.
  void alltoall(EpochCost& c, double bytes, double msgs, int group,
                int stride) const;
  /// Binomial-tree broadcast phase, receive side of the bottleneck rank.
  void bcast(EpochCost& c, double bytes, double msgs, int group,
             int stride) const;
  /// Ring all-reduce of `payload_bytes` over `ring` members: 2(r-1)
  /// messages and ~2 payload bytes per rank.
  void allreduce(EpochCost& c, double payload_bytes, int ring,
                 int stride) const;

  /// Nominal compute seconds for `madds` multiply-adds: host throughput
  /// scaled by the model's host->device factor and volume_scale (compute
  /// is linear in n*f exactly like bytes — see CostModel::volume_scale).
  double compute_seconds(double madds, double host_madds_per_second) const;

 private:
  const CostModel& m_;
};

/// The per-propagate feature widths of one epoch for GCN layer dims
/// {d_0 .. d_L}: forward propagates at d_0 .. d_{L-1}, backward at
/// d_{L-1} .. d_1 (2L - 1 propagates; {f, 16, 16, 16, 16} for the default
/// architecture).
std::vector<vid_t> propagate_widths(const std::vector<vid_t>& dims);

/// The layer dims a prediction uses: in.dims when set, else the trainer's
/// default architecture {f, 16, 16, classes} derived from the census.
std::vector<vid_t> effective_dims(const PredictInput& in);

/// Fills the strategy-INDEPENDENT part of a prediction into `cost`: the
/// nominal compute term (tile SpMM at nnz/p per rank times the
/// partitioner's compute-imbalance factor at `n_blocks`, plus the dense
/// layer GEMMs at `dense_rows` rows per rank) and the per-layer
/// weight-gradient + loss ring all-reduces over the reduce scope
/// (`reduce_ranks` members spaced `reduce_stride` apart). Returns the
/// propagate widths for the strategy-specific communication terms.
std::vector<vid_t> predict_base(EpochCost& cost, const PredictInput& in,
                                int n_blocks, double dense_rows,
                                int reduce_ranks, int reduce_stride);

class DistributionStrategy {
 public:
  virtual ~DistributionStrategy() = default;

  /// Canonical registry name, e.g. "1.5d-sparse".
  virtual std::string name() const = 0;

  /// Number of block rows the partitioner must produce for (p, c).
  /// Throws Error on invalid geometry (c^2 ∤ P, ...).
  virtual int n_blocks(int p, int c) const = 0;

  /// Per-rank setup: split subcommunicators, build the local distributed
  /// matrix state, run the one-time index exchange (sparsity-aware modes;
  /// recorded under phase "index_exchange"). Collective over `comm`.
  virtual void setup(Comm& comm, const StrategyContext& ctx) = 0;

  /// Called by the trainer at the top of every epoch, before the first
  /// propagate. Cross-layer pipelined strategies ("1.5d-overlap") reset
  /// their epoch-wide stage counter here so the stage-tagged traffic of
  /// layer l+1 lands in the pipeline slots directly after layer l's — the
  /// same tags every epoch, which keeps per-stage accumulation and
  /// checkpointed traffic histories comparable across epochs.
  /// Bulk-synchronous strategies ignore it.
  virtual void begin_epoch() {}

  /// One aggregation Â·X of the forward pass, input and output in this
  /// rank's H residency. Local compute seconds accumulate into
  /// *cpu_seconds when non-null.
  virtual Matrix propagate_forward(const Matrix& x_local, double* cpu_seconds) = 0;

  /// The backward-pass aggregation Â·G (Â is symmetric, so the schedule may
  /// coincide with forward; kept separate so asymmetric or pipelined
  /// schedules can diverge).
  virtual Matrix propagate_backward(const Matrix& g_local, double* cpu_seconds) = 0;

  /// Communicator whose members own pairwise-distinct block rows — the
  /// scope for global reductions of losses and weight gradients.
  virtual Comm& reduce_comm() = 0;

  /// This rank's block-row range (valid after setup()).
  virtual const BlockRange& my_range() const = 0;

  /// Relative compute weight of every rank (share of total nnz-work). Used
  /// to redistribute measured CPU seconds, which are noisy under thread
  /// oversubscription (see epoch_cost()).
  virtual std::vector<double> rank_work(const StrategyContext& ctx) const = 0;

  /// Algorithm-aware modeled cost of ONE epoch: smooths the measured CPU
  /// seconds over rank_work(), applies the alpha-beta model to the recorded
  /// traffic, averages over `epochs`, and removes the one-time index
  /// exchange from the per-epoch breakdown.
  EpochCost epoch_cost(const CostModel& model, const TrafficRecorder& traffic,
                       std::span<const double> rank_cpu_seconds,
                       const StrategyContext& ctx, int epochs) const;

  /// The compute-smoothing half of epoch_cost(), exposed so callers can
  /// also report per-rank bottlenecks.
  std::vector<double> smooth_rank_cpu(const StrategyContext& ctx,
                                      std::span<const double> measured) const;

  /// Closed-form predicted cost of ONE epoch for a candidate configuration,
  /// from census statistics alone — no setup(), no cluster, no training
  /// run. Must return valid = false (never throw) on invalid geometry,
  /// which the planner reports as a skipped candidate.
  virtual PredictedCost predict_cost(const PredictInput& in) const = 0;
};

using StrategyRegistry = NamedRegistry<DistributionStrategy>;

/// The process-wide distribution-strategy registry.
StrategyRegistry& strategy_registry();

/// Static-initialization helper: declare one per strategy .cpp.
struct StrategyRegistration {
  StrategyRegistration(const std::string& canonical,
                       std::vector<std::string> aliases,
                       StrategyRegistry::Factory factory) {
    strategy_registry().add(canonical, std::move(aliases), std::move(factory));
  }
};

}  // namespace sagnn
