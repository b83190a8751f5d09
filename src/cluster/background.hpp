// Background load generator.
//
// Reproduces the paper's contention pod (§5.2): "a pod that repeatedly
// downloads a 10MB file over HTTP using curl", placed randomly on selected
// nodes during job execution. Each generator is a client pod on one node
// fetching from an HTTP server pod on another node: every fetch is a real
// simulated flow (server -> client) plus CPU demand on both ends, so it
// shows up in NIC counters, RTT inflation, and load average — the exact
// signals the scheduling model trains on.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "net/flow.hpp"
#include "simcore/engine.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace lts::cluster {

struct BackgroundLoadOptions {
  Bytes fetch_bytes = 10.0 * 1024 * 1024;  // the paper's 10 MB file
  double client_cpu_demand = 0.5;          // curl + kernel while fetching
  double server_cpu_demand = 0.3;          // HTTP server while serving
  SimTime mean_pause = 0.15;               // think time between fetches
  int parallel_fetches = 1;                // concurrent curl loops in the pod
  /// Resident memory the pod pair holds while running (downloads buffered
  /// in page cache); makes contention visible to the memory telemetry.
  Bytes client_memory = 1.2 * 1024 * 1024 * 1024;
  Bytes server_memory = 0.6 * 1024 * 1024 * 1024;
};

/// One background pod pair (client + server). Runs until stop().
class BackgroundLoad {
 public:
  BackgroundLoad(Cluster& cluster, std::size_t client_node,
                 std::size_t server_node, BackgroundLoadOptions options,
                 Rng rng);
  /// A copy of `other`, mid-fetch state and Rng included, on `cluster` (a
  /// copy of other's cluster).
  BackgroundLoad(const BackgroundLoad& other, Cluster& cluster);
  ~BackgroundLoad();

  BackgroundLoad& operator=(const BackgroundLoad&) = delete;

  void start();
  /// Schedules start() `delay` seconds from now.
  void start_in(SimTime delay);
  void stop();
  bool running() const { return running_; }

  std::size_t client_node() const { return client_; }
  std::size_t server_node() const { return server_; }
  std::uint64_t fetches_completed() const { return fetches_; }

 private:
  struct Loop {
    net::FlowId flow = net::kInvalidFlow;
    CpuTaskId client_cpu = kInvalidCpuTask;
    CpuTaskId server_cpu = kInvalidCpuTask;
    sim::EventId pause_event = sim::kInvalidEvent;
  };

  /// What an event addressed to this load does (Event::payload); the
  /// target is the loop index.
  enum : std::uint64_t { kStart, kBeginFetch, kEndFetch };

  /// Member-wise copy; the public copy constructor rebinds it.
  BackgroundLoad(const BackgroundLoad&) = default;

  void on_event(std::uint32_t loop_idx, std::uint64_t action);
  void begin_fetch(std::size_t loop_idx);
  void end_fetch(std::size_t loop_idx);
  sim::Event event(std::size_t loop_idx, std::uint64_t action) const {
    return sim::Event{kind_, static_cast<std::uint32_t>(loop_idx), action};
  }

  Cluster* cluster_;
  sim::Kind kind_;
  std::size_t client_;
  std::size_t server_;
  BackgroundLoadOptions options_;
  Rng rng_;
  bool running_ = false;
  std::uint64_t fetches_ = 0;
  std::vector<Loop> loops_;
};

}  // namespace lts::cluster
