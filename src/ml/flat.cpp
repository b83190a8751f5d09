#include "ml/flat.hpp"

#include <utility>

namespace lts::ml {

void FlatEnsemble::clear() {
  nodes_.clear();
  value_.clear();
  tree_base_.clear();
  depths_.clear();
  init_ = 0.0;
  divisor_ = 1.0;
}

void FlatEnsemble::predict(const double* x, std::size_t rows,
                           std::size_t cols, double* out) const {
  walk_block<true>(x, rows, cols, out);
}

void FlatEnsemble::accumulate(const double* x, std::size_t rows,
                              std::size_t cols, double* inout) const {
  walk_block<false>(x, rows, cols, inout);
}

template <bool kSeed>
void FlatEnsemble::walk_block(const double* x, std::size_t rows,
                              std::size_t cols, double* out) const {
  // A lane is one (tree, row) walk; a block of bn rows walks a group of
  // kLanes / bn trees at once so that small blocks still keep ~kLanes node
  // loads in flight (see flat.hpp). Per row the leaf values are added
  // after the group's walk, tree by tree in tree order, so the sum order —
  // and therefore every bit of the result — matches the pointer walk.
  std::uint32_t cur[kLanes];         // global node index per lane
  std::uint32_t base[kLanes];        // the lane's tree offset into nodes_
  const double* xrow[kLanes];        // the lane's row, hoisted out of the walk
  std::uint32_t lanes[2][kLanes];    // active-lane lists, swapped per step
  const FlatNode* const nodes = nodes_.data();
  const std::size_t n_trees = tree_base_.size();
  for (std::size_t r0 = 0; r0 < rows; r0 += kLanes) {
    const std::size_t bn = std::min(kLanes, rows - r0);
    const std::size_t group = kLanes / bn;
    // Lane k * bn + i walks tree k of the group over row i.
    for (std::size_t lane = 0; lane < group * bn; ++lane) {
      xrow[lane] = x + (r0 + lane % bn) * cols;
    }
    if constexpr (kSeed) {
      for (std::size_t i = 0; i < bn; ++i) out[r0 + i] = init_;
    }
    for (std::size_t t0 = 0; t0 < n_trees; t0 += group) {
      const std::size_t ng = std::min(group, n_trees - t0);
      std::int32_t depth = 0;
      std::uint32_t* active = lanes[0];
      std::uint32_t* parked = lanes[1];
      for (std::size_t k = 0; k < ng; ++k) {
        const auto root = static_cast<std::uint32_t>(tree_base_[t0 + k]);
        depth = std::max(depth, depths_[t0 + k]);
        for (std::size_t i = 0; i < bn; ++i) {
          const std::size_t lane = k * bn + i;
          cur[lane] = root;
          base[lane] = root;
          active[lane] = static_cast<std::uint32_t>(lane);
        }
      }
      // A lane whose walk has reached its leaf would only re-select that
      // leaf on every remaining step (self-loop), so each step rebuilds
      // the active list and drops parked lanes — in unbalanced trees the
      // mean leaf depth sits well below the max, and once a lane parks,
      // no later step can move it again (leaves self-loop), so dropping
      // is exact, not heuristic. A lane of a shallower tree in the group
      // parks early the same way. cur[] keeps the final leaf of every
      // lane for the value gather below.
      std::size_t na = ng * bn;
      for (std::int32_t step = 0; step < depth && na != 0; ++step) {
        std::size_t na2 = 0;
        for (std::size_t j = 0; j < na; ++j) {
          const std::uint32_t lane = active[j];
          const std::uint32_t at = cur[lane];
          const FlatNode& n = nodes[at];
          const std::uint64_t m = n.meta;
          const double xv = xrow[lane][m & 0xffff];
          const auto left = static_cast<std::uint32_t>((m >> 16) & 0xffff);
          const auto right = static_cast<std::uint32_t>(m >> 32);
          // Mask-select instead of `?:`: the ternary tempts the compiler
          // into a data-dependent branch, and a 50/50 split direction
          // makes every step a likely mispredict. The comparison itself
          // is unchanged (NaN fails <=, so NaN still goes right), only
          // the selection is arithmetic. Self-looping leaves keep the
          // walk in bounds. The lane survives into the next step's list
          // with the same branchless discipline: an unconditional store
          // plus a conditional advance of the list length.
          const std::uint32_t go =
              0U - static_cast<std::uint32_t>(xv <= n.threshold);
          const std::uint32_t next =
              base[lane] + (((left ^ right) & go) ^ right);
          cur[lane] = next;
          parked[na2] = lane;
          na2 += (next != at);
        }
        std::swap(active, parked);
        na = na2;
      }
      for (std::size_t i = 0; i < bn; ++i) {
        double sum = out[r0 + i];
        for (std::size_t k = 0; k < ng; ++k) sum += value_[cur[k * bn + i]];
        out[r0 + i] = sum;
      }
    }
    // Division by the default 1.0 is exact, so the non-forest cases pay no
    // precision (or equivalence) cost for the unconditional divide.
    if constexpr (kSeed) {
      for (std::size_t i = 0; i < bn; ++i) out[r0 + i] /= divisor_;
    }
  }
}

}  // namespace lts::ml
