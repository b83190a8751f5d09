// FlatEnsemble: a flattened, contiguous packing of a tree ensemble for
// cache-friendly batched inference (the serving hot path).
//
// The training representations (DecisionTreeRegressor's TreeNode vector,
// GradientBoostedTrees' per-tree GbtNode vectors) chase pointers node by
// node, which is fine for one row but wastes the cache when the scheduler
// scores every (pod, node) candidate of a whole queue. FlatEnsemble packs
// every tree of the ensemble into one contiguous array of 16-byte nodes —
// the split threshold plus tree-LOCAL int16 feature/child indices, so a
// whole tree (up to 32k nodes) stays small enough to sit in L1 while a
// block of rows walks it — and traverses a block of rows through a group
// of trees at a time with a branchless inner loop:
//
//   - a lane is one (tree, row) walk; a block of bn rows walks
//     kLanes / bn trees together, so even a one-decision block (six
//     candidate rows) keeps ~kLanes independent node loads in flight — a
//     deep forest outgrows the cache, and overlapping the walks' misses is
//     what makes a small block cheap; blocks of more than kLanes / 2 rows
//     walk one tree at a time;
//   - leaves are rewritten to self-loops (left == right == self) with probe
//     feature 0 and threshold +inf, so iterating each tree up to `depth`
//     times lands every row on its leaf with only in-bounds loads and no
//     per-step is_leaf branch; a block whose rows have all parked exits the
//     depth loop early (detected with one XOR-OR per lane, no extra loads);
//   - leaf values live in a parallel array read once per (tree, row) after
//     the walk, keeping the per-step working set at 16 bytes per node;
//   - per row the tree values accumulate in tree order starting from
//     `init` (after each group's walk, tree by tree), then divide by
//     `divisor`, reproducing the exact floating-point accumulation of the
//     pointer walk: the forest's (t0 + t1 + ...)/n and the GBT's
//     ((base + t0) + t1) + ... are summed in the same order, so
//     predictions are bit-identical, not just close.
//
// Ensembles rebuild their FlatEnsemble eagerly at the end of fit/refit/
// from_json; it is derived state and is never serialized. A tree too large
// for int16 local indexing (> 32767 nodes, impossible under the default
// depth caps) makes try_add_tree return false; ensembles then clear the
// flat form and predict_batch falls back to the scalar pointer walk.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace lts::ml {

class FlatEnsemble {
 public:
  /// One packed tree node: 16 bytes, 16-byte aligned, one cache line holds
  /// four. The three 16-bit fields — feature, then the tree-LOCAL left and
  /// right child indices (node 0 is the root, so locals fit 15 bits for
  /// trees up to 32767 nodes) — share one 64-bit word, so the walk reads a
  /// whole node in two loads (threshold + meta) instead of four; on a
  /// two-load-port core the per-step cost is load-bound and this matters.
  struct alignas(16) FlatNode {
    double threshold = 0.0;
    std::uint64_t meta = 0;  // feature | left << 16 | right << 32

    static std::uint64_t pack(std::uint64_t feature, std::uint64_t left,
                              std::uint64_t right) {
      return feature | (left << 16) | (right << 32);
    }
  };

  /// Largest tree representable with int16 local child indices.
  static constexpr std::size_t kMaxTreeNodes = 32767;

  /// Walks in flight per kernel pass: a block of up to kLanes rows walks
  /// kLanes / rows trees at once. Chosen by measurement on the 800-tree
  /// default forest (a 6-row decision); 64 and 256 were no faster.
  static constexpr std::size_t kLanes = 128;

  void clear();

  /// Appends one tree, or returns false (ensemble unchanged) if the tree
  /// exceeds kMaxTreeNodes — the caller should clear() and serve through
  /// its scalar path instead. `Node` must expose feature/threshold/left/
  /// right/value and is_leaf(); node 0 is the root and children follow
  /// their parent in the array (the preorder layout build() and from_json
  /// produce), which is what makes the single-pass depth computation valid.
  template <typename Node>
  bool try_add_tree(std::span<const Node> nodes) {
    if (nodes.size() > kMaxTreeNodes) return false;
    tree_base_.push_back(static_cast<std::int32_t>(nodes_.size()));
    std::vector<std::int32_t> depth_of(nodes.size(), 0);
    std::int32_t max_depth = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Node& n = nodes[i];
      FlatNode flat;
      if (n.is_leaf()) {
        // Self-looping leaf: extra fixed-depth iterations re-select the
        // leaf via an in-bounds load of feature 0 (x <= +inf goes left;
        // a NaN feature goes right; both point back here).
        flat.threshold = std::numeric_limits<double>::infinity();
        flat.meta = FlatNode::pack(0, i, i);
      } else {
        flat.threshold = n.threshold;
        flat.meta = FlatNode::pack(static_cast<std::uint64_t>(n.feature),
                                   static_cast<std::uint64_t>(n.left),
                                   static_cast<std::uint64_t>(n.right));
        const auto l = static_cast<std::size_t>(n.left);
        const auto r = static_cast<std::size_t>(n.right);
        depth_of[l] = depth_of[i] + 1;
        depth_of[r] = depth_of[i] + 1;
        max_depth = std::max(max_depth, depth_of[l]);
      }
      nodes_.push_back(flat);
      value_.push_back(n.value);
    }
    depths_.push_back(max_depth);
    return true;
  }

  /// out[r] = (init + sum of tree leaf values, in tree order) / divisor.
  void set_init(double init) { init_ = init; }
  void set_divisor(double divisor) { divisor_ = divisor; }

  std::size_t num_trees() const { return tree_base_.size(); }
  std::size_t num_nodes() const { return nodes_.size(); }
  bool empty() const { return tree_base_.empty(); }

  /// Batched prediction over a row-major feature block: `rows` vectors of
  /// `cols` doubles each, contiguous at `x`; one prediction per row written
  /// to `out`. No feature is loaded when every tree is a single leaf, so
  /// cols may be 0 only in that degenerate case.
  void predict(const double* x, std::size_t rows, std::size_t cols,
               double* out) const;

  /// Batched accumulate: inout[r] += leaf value of every tree, in tree
  /// order — predict() without the init seed and the divisor, for callers
  /// folding this ensemble into a running total (the GBT's per-round
  /// prediction update). The per-row addition order is exactly
  /// `inout[r] += tree0; inout[r] += tree1; ...`, so the result is
  /// bit-identical to the scalar walk it replaces.
  void accumulate(const double* x, std::size_t rows, std::size_t cols,
                  double* inout) const;

 private:
  /// Shared batched walker behind predict/accumulate: seeds each row's
  /// output from init_ and divides by divisor_ only when kSeed.
  template <bool kSeed>
  void walk_block(const double* x, std::size_t rows, std::size_t cols,
                  double* out) const;

  std::vector<FlatNode> nodes_;       // all trees, concatenated
  std::vector<double> value_;         // leaf payloads, parallel to nodes_
  std::vector<std::int32_t> tree_base_;  // per-tree offset into nodes_
  std::vector<std::int32_t> depths_;  // per-tree max root-to-leaf depth
  double init_ = 0.0;
  double divisor_ = 1.0;
};

}  // namespace lts::ml
