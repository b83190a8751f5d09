#include "cluster/node.hpp"

#include <algorithm>

namespace lts::cluster {

Node::Node(sim::Engine& engine, std::string name, std::string site,
           net::VertexId vertex, double cores, Bytes memory)
    : name_(std::move(name)),
      site_(std::move(site)),
      vertex_(vertex),
      cpu_(engine, cores),
      memory_capacity_(memory) {
  LTS_REQUIRE(memory > 0.0, "Node: memory must be positive");
}

Node::Node(const Node& other, sim::Engine& engine)
    : name_(other.name_),
      site_(other.site_),
      vertex_(other.vertex_),
      cpu_(other.cpu_, engine),
      memory_capacity_(other.memory_capacity_),
      memory_used_(other.memory_used_) {}

void Node::allocate_memory(Bytes bytes) {
  LTS_REQUIRE(bytes >= 0.0, "Node: negative allocation");
  memory_used_ += bytes;
}

void Node::release_memory(Bytes bytes) {
  LTS_REQUIRE(bytes >= 0.0, "Node: negative release");
  memory_used_ = std::max(0.0, memory_used_ - bytes);
}

}  // namespace lts::cluster
