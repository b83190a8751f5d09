#include "telemetry/series.hpp"

#include <algorithm>

namespace lts::telemetry {

Series::Series(std::size_t capacity) : capacity_(capacity) {
  LTS_REQUIRE(capacity > 0, "Series: capacity must be positive");
}

bool Series::append(SimTime t, double v) {
  if (!buffer_.empty()) {
    const Sample& newest = latest();
    if (t < newest.t) return false;  // late sample, dropped
    if (v < newest.v) decreases_.push_back(Decrease{newest.t, t});
  }
  if (buffer_.size() < capacity_) {
    // Still filling, so head_ is 0. Growth doubles but never past
    // capacity_.
    if (buffer_.size() == buffer_.capacity()) {
      buffer_.reserve(std::min(capacity_, std::max<std::size_t>(
                                              16, 2 * buffer_.size())));
    }
    buffer_.push_back(Sample{t, v});
  } else {
    buffer_[head_] = Sample{t, v};
    head_ = (head_ + 1) % capacity_;
    // Drop decrease records whose older endpoint has aged out of the ring.
    const SimTime oldest = at(0).t;
    std::size_t keep_from = 0;
    while (keep_from < decreases_.size() &&
           decreases_[keep_from].t_prev < oldest) {
      ++keep_from;
    }
    if (keep_from > 0) {
      decreases_.erase(decreases_.begin(),
                       decreases_.begin() + static_cast<long>(keep_from));
    }
  }
  return true;
}

const Sample& Series::at(std::size_t i) const {
  LTS_REQUIRE(i < buffer_.size(), "Series: index out of range");
  return buffer_[(head_ + i) % capacity_];
}

const Sample& Series::latest() const {
  LTS_REQUIRE(!buffer_.empty(), "Series: empty");
  return at(buffer_.size() - 1);
}

std::vector<Sample> Series::range(SimTime t_from, SimTime t_to) const {
  std::vector<Sample> out;
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    const Sample& s = at(i);
    if (s.t >= t_from && s.t <= t_to) out.push_back(s);
  }
  return out;
}

std::size_t Series::num_decreases_between(SimTime t_from, SimTime t_to) const {
  std::size_t n = 0;
  // decreases_ is ordered by t_prev; the list is empty for well-behaved
  // counters, so the straight scan beats setting up a binary search.
  for (const Decrease& d : decreases_) {
    if (d.t_prev > t_to) break;
    if (d.t_prev >= t_from && d.t_curr <= t_to) ++n;
  }
  return n;
}

}  // namespace lts::telemetry
