// R8 fixture: the flattened-forest kernel is a hot path. Linted under any
// virtual path (the rule keys on function names, not directories). Never
// built.
#include <cstdint>
#include <vector>

namespace lts::fixture {

// Fires twice: a per-call lane array from the heap, and an un-reserved
// active-lane list grown inside the walk.
template <bool kSeed>
void FlatEnsemble::walk_block(const double* x, std::size_t rows,
                              double* out) const {
  auto* cur = new std::uint32_t[rows];
  std::vector<std::uint32_t> active;
  for (std::size_t lane = 0; lane < rows; ++lane) {
    active.push_back(static_cast<std::uint32_t>(lane));
  }
  for (std::size_t i = 0; i < rows; ++i) out[i] += x[cur[active[i]]];
  delete[] cur;
}

// Clean: identical body, but the name is not on the hot-path list.
template <bool kSeed>
void FlatEnsemble::walk_slow(const double* x, std::size_t rows,
                             double* out) const {
  auto* cur = new std::uint32_t[rows];
  std::vector<std::uint32_t> active;
  for (std::size_t lane = 0; lane < rows; ++lane) {
    active.push_back(static_cast<std::uint32_t>(lane));
  }
  for (std::size_t i = 0; i < rows; ++i) out[i] += x[cur[active[i]]];
  delete[] cur;
}

}  // namespace lts::fixture
