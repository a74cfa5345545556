#pragma once
// Communication mode shared by all distributed SpMM algorithms (paper §4).

namespace sagnn {

enum class SpmmMode {
  kOblivious,      ///< move whole H blocks regardless of sparsity (CAGNET)
  kSparsityAware,  ///< move only the H rows the local blocks actually read
};

}  // namespace sagnn
