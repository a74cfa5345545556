#include "dist/spmm_15d.hpp"

#include "common/timer.hpp"
#include "sparse/spmm.hpp"

namespace sagnn {

GridLayout GridLayout::make(int p, int c) {
  SAGNN_REQUIRE(p >= 1, "need at least one rank");
  SAGNN_REQUIRE(c >= 1, "replication factor must be positive");
  SAGNN_REQUIRE(p % (c * c) == 0, "1.5D requires c^2 | P");
  return {p, p / c, c};
}

DistSpmm15d::DistSpmm15d(Comm& comm, const CsrMatrix& a,
                         std::span<const BlockRange> ranges, int c, SpmmMode mode,
                         const KernelConfig& kernels)
    : layout_(GridLayout::make(comm.size(), c)),
      grid_row_(layout_.grid_row(comm.rank())),
      grid_col_(layout_.grid_col(comm.rank())),
      mode_(mode),
      local_(a, ranges, grid_row_, kernels),
      col_comm_(comm.split([this](int r) { return layout_.grid_col(r); })),
      row_comm_(comm.split([this](int r) { return layout_.grid_row(r); })) {
  SAGNN_REQUIRE(static_cast<int>(ranges.size()) == layout_.rows,
                "1.5D needs one block row per grid row");
  if (mode_ != SpmmMode::kSparsityAware) return;

  // Index exchange within the grid column: request the needed rows of every
  // ASSIGNED remote block from its replica in our column.
  std::vector<std::vector<vid_t>> wants(static_cast<std::size_t>(layout_.rows));
  for (int j = 0; j < layout_.rows; ++j) {
    if (j == grid_row_ || !assigned(j)) continue;
    wants[static_cast<std::size_t>(j)] = local_.needed_rows(j);
  }
  requests_ = alltoallv<vid_t>(col_comm_, wants, "index_exchange");
  requests_[static_cast<std::size_t>(grid_row_)].clear();
}

Matrix DistSpmm15d::multiply(const Matrix& h_local, double* cpu_seconds) {
  SAGNN_REQUIRE(h_local.n_rows() == local_.local_rows(),
                "H block must match this rank's row range");
  if (mode_ == SpmmMode::kSparsityAware) {
    // The bulk-synchronous sparsity-aware multiply IS the single-chunk
    // pipelined schedule (untagged phases, no extra column copies) — one
    // implementation, so the exchange/consume protocol cannot drift.
    return multiply_pipelined(h_local, 1, nullptr, cpu_seconds);
  }

  const vid_t f = h_local.n_cols();
  Matrix z(local_.local_rows(), f);
  // Oblivious: broadcast whole blocks within the grid column; each block
  // is broadcast only inside the columns assigned to it, so the per-rank
  // broadcast volume shrinks ~c-fold versus 1D.
  for (int j = 0; j < layout_.rows; ++j) {
    if (!assigned(j)) continue;
    const vid_t rows = local_.ranges()[static_cast<std::size_t>(j)].size();
    std::vector<real_t> buf;
    if (j == grid_row_) {
      buf.assign(h_local.data(), h_local.data() + h_local.size());
    } else {
      buf.resize(static_cast<std::size_t>(rows) * f);
    }
    bcast<real_t>(col_comm_, j, buf, "bcast");
    ThreadCpuTimer timer;
    const Matrix h_j(rows, f, std::move(buf));
    local_.block_accumulate(j, h_j, z);
    if (cpu_seconds != nullptr) *cpu_seconds += timer.seconds();
  }

  // Combine the replicas' partial sums; afterwards every rank of the grid
  // row holds the identical full Z block.
  if (layout_.s > 1) {
    allreduce_sum<real_t>(row_comm_, {z.data(), z.size()}, "allreduce");
  }
  return z;
}

Matrix DistSpmm15d::multiply_pipelined(const Matrix& h_local, int chunks,
                                       int* stage_counter, double* cpu) {
  SAGNN_REQUIRE(mode_ == SpmmMode::kSparsityAware,
                "pipelined multiply needs the sparsity-aware index exchange");
  SAGNN_REQUIRE(h_local.n_rows() == local_.local_rows(),
                "H block must match this rank's row range");
  const vid_t f = h_local.n_cols();
  const int k_chunks = chunk_count(chunks, f);
  const bool tagged = stage_counter != nullptr;
  const int stage_base = tagged ? *stage_counter : 0;
  const bool chunked = k_chunks > 1;
  const auto col_begin = [&](int k) {
    return static_cast<vid_t>(static_cast<std::int64_t>(f) * k / k_chunks);
  };

  // Pack one column chunk of the requested rows and POST its exchange
  // within the grid column (isends deposit immediately, the irecvs stay
  // pending until the chunk boundary's wait()). Under a cross-layer
  // schedule every chunk gets its epoch-wide stage id and a disjoint tag
  // window, so stages neither blur in the cost accounting nor cross-match
  // while in flight.
  const auto exchange = [&](int k) {
    const vid_t c0 = col_begin(k);
    const vid_t fc = col_begin(k + 1) - c0;
    ThreadCpuTimer pack_timer;
    std::vector<std::vector<real_t>> send(static_cast<std::size_t>(layout_.rows));
    for (int i = 0; i < layout_.rows; ++i) {
      if (i == grid_row_) continue;
      const auto& rows = requests_[static_cast<std::size_t>(i)];
      auto& buf = send[static_cast<std::size_t>(i)];
      buf.reserve(rows.size() * static_cast<std::size_t>(fc));
      for (vid_t row : rows) {
        buf.insert(buf.end(), h_local.row(row) + c0, h_local.row(row) + c0 + fc);
      }
    }
    if (cpu != nullptr) *cpu += pack_timer.seconds();
    const int stage = stage_base + k;
    return ialltoallv<real_t>(
        col_comm_, send,
        tagged ? TrafficRecorder::stage_phase("alltoall", stage) : "alltoall",
        tagged ? coll_detail::alltoall_stage_tag(stage)
               : coll_detail::kAlltoallTag);
  };

  // Own block: gather the full-width rows once, slice per chunk below
  // (only needed when our own block row is assigned to this replica).
  Matrix own_packed;
  if (assigned(grid_row_) &&
      local_.compacted_block(grid_row_).matrix.nnz() > 0) {
    ThreadCpuTimer gather_timer;
    own_packed = h_local.gather_rows(local_.compacted_block(grid_row_).cols);
    if (cpu != nullptr) *cpu += gather_timer.seconds();
  }

  // Double-buffered (depth-2) software pipeline: chunk k+1's exchange is
  // posted before chunk k is even waited for, so its irecvs are pending —
  // and the peers' eager isends in flight — through both the wait and the
  // local SpMM of chunk k. wait() at the chunk boundary records the
  // measured hidden/blocked split of that window.
  Matrix z(local_.local_rows(), f);
  auto in_flight = exchange(0);
  for (int k = 0; k < k_chunks; ++k) {
    PendingAlltoall<real_t> next;
    if (k + 1 < k_chunks) next = exchange(k + 1);
    auto received = in_flight.wait();
    in_flight = std::move(next);
    const vid_t c0 = col_begin(k);
    const vid_t fc = col_begin(k + 1) - c0;
    ThreadCpuTimer timer;
    // Accumulate into a chunk-wide scratch (pasted back below) when
    // chunked, straight into z when not.
    Matrix z_chunk = chunked ? Matrix(local_.local_rows(), fc) : Matrix();
    Matrix& z_out = chunked ? z_chunk : z;
    for (int j = 0; j < layout_.rows; ++j) {
      if (!assigned(j)) continue;
      const CompactedBlock& block = local_.compacted_block(j);
      if (block.matrix.nnz() == 0) continue;
      Matrix packed_store;
      const Matrix* packed = &packed_store;
      if (j == grid_row_) {
        if (chunked) {
          packed_store = own_packed.slice_cols(c0, c0 + fc);
        } else {
          packed = &own_packed;
        }
      } else {
        // The Matrix ctor validates the flat buffer's size against
        // (rows, cols).
        packed_store =
            Matrix(static_cast<vid_t>(block.cols.size()), fc,
                   std::move(received[static_cast<std::size_t>(j)]));
      }
      local_.compacted_accumulate(j, *packed, z_out);
    }
    if (chunked) z.paste_cols(c0, z_chunk);
    if (cpu != nullptr) *cpu += timer.seconds();
  }

  // Combine the replicas' partial sums over the FULL width in one
  // collective — element-for-element the same ring schedule as multiply(),
  // which is what keeps the math bitwise identical to "1.5d-sparse". Under
  // a cross-layer schedule it occupies its own pipeline stage.
  if (layout_.s > 1) {
    allreduce_sum<real_t>(
        row_comm_, {z.data(), z.size()},
        tagged ? TrafficRecorder::stage_phase("allreduce", stage_base + k_chunks)
               : "allreduce");
  }
  if (tagged) *stage_counter = stage_base + k_chunks + (layout_.s > 1 ? 1 : 0);
  return z;
}

}  // namespace sagnn
