#include "cluster/background.hpp"

namespace lts::cluster {

BackgroundLoad::BackgroundLoad(Cluster& cluster, std::size_t client_node,
                               std::size_t server_node,
                               BackgroundLoadOptions options, Rng rng)
    : cluster_(&cluster),
      kind_(cluster.engine().add_handler<&BackgroundLoad::on_event>(this)),
      client_(client_node),
      server_(server_node),
      options_(options),
      rng_(rng) {
  LTS_REQUIRE(client_node != server_node,
              "BackgroundLoad: client and server must differ");
  LTS_REQUIRE(client_node < cluster.num_nodes() &&
                  server_node < cluster.num_nodes(),
              "BackgroundLoad: node index out of range");
  LTS_REQUIRE(options_.parallel_fetches >= 1,
              "BackgroundLoad: need at least one loop");
  loops_.resize(static_cast<std::size_t>(options_.parallel_fetches));
}

BackgroundLoad::BackgroundLoad(const BackgroundLoad& other, Cluster& cluster)
    : BackgroundLoad(other) {
  cluster_ = &cluster;
  cluster.engine().rebind_handler<&BackgroundLoad::on_event>(kind_, this);
}

BackgroundLoad::~BackgroundLoad() { stop(); }

void BackgroundLoad::start_in(SimTime delay) {
  cluster_->engine().schedule_in(delay, event(0, kStart));
}

void BackgroundLoad::on_event(std::uint32_t loop_idx, std::uint64_t action) {
  switch (action) {
    case kStart: start(); break;
    case kBeginFetch: begin_fetch(loop_idx); break;
    default: end_fetch(loop_idx); break;
  }
}

void BackgroundLoad::start() {
  if (running_) return;
  running_ = true;
  cluster_->node(client_).allocate_memory(options_.client_memory);
  cluster_->node(server_).allocate_memory(options_.server_memory);
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    // Desynchronize the loops so fetches do not start in lockstep.
    const SimTime stagger = rng_.uniform(0.0, options_.mean_pause);
    loops_[i].pause_event =
        cluster_->engine().schedule_in(stagger, event(i, kBeginFetch));
  }
}

void BackgroundLoad::stop() {
  if (!running_) return;
  running_ = false;
  cluster_->node(client_).release_memory(options_.client_memory);
  cluster_->node(server_).release_memory(options_.server_memory);
  for (auto& loop : loops_) {
    if (loop.pause_event != sim::kInvalidEvent) {
      cluster_->engine().cancel(loop.pause_event);
      loop.pause_event = sim::kInvalidEvent;
    }
    if (loop.flow != net::kInvalidFlow) {
      cluster_->flows().cancel(loop.flow);
      loop.flow = net::kInvalidFlow;
    }
    if (loop.client_cpu != kInvalidCpuTask) {
      cluster_->node(client_).cpu().cancel(loop.client_cpu);
      loop.client_cpu = kInvalidCpuTask;
    }
    if (loop.server_cpu != kInvalidCpuTask) {
      cluster_->node(server_).cpu().cancel(loop.server_cpu);
      loop.server_cpu = kInvalidCpuTask;
    }
  }
}

void BackgroundLoad::begin_fetch(std::size_t loop_idx) {
  if (!running_) return;
  Loop& loop = loops_[loop_idx];
  loop.pause_event = sim::kInvalidEvent;
  loop.client_cpu =
      cluster_->node(client_).cpu().add_persistent(options_.client_cpu_demand);
  loop.server_cpu =
      cluster_->node(server_).cpu().add_persistent(options_.server_cpu_demand);
  loop.flow = cluster_->flows().start(
      cluster_->node(server_).vertex(), cluster_->node(client_).vertex(),
      options_.fetch_bytes, event(loop_idx, kEndFetch));
}

void BackgroundLoad::end_fetch(std::size_t loop_idx) {
  Loop& loop = loops_[loop_idx];
  loop.flow = net::kInvalidFlow;
  cluster_->node(client_).cpu().cancel(loop.client_cpu);
  cluster_->node(server_).cpu().cancel(loop.server_cpu);
  loop.client_cpu = kInvalidCpuTask;
  loop.server_cpu = kInvalidCpuTask;
  ++fetches_;
  if (!running_) return;
  const SimTime pause = rng_.exponential(options_.mean_pause);
  loop.pause_event =
      cluster_->engine().schedule_in(pause, event(loop_idx, kBeginFetch));
}

}  // namespace lts::cluster
