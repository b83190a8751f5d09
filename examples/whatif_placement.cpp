// What-if placement explorer.
//
// For a handful of randomized cluster states, prints each node's live
// telemetry (what the scheduler sees) next to the counterfactual job
// duration with the driver pinned there (what actually happens). This is
// the clearest way to see the signal the supervised models learn: loaded /
// distant nodes run the same job slower.
//
// Usage: whatif_placement [seed] [app] [records]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "exp/envgen.hpp"
#include "exp/scenario.hpp"
#include "util/table.hpp"
#include "util/string_util.hpp"

int main(int argc, char** argv) {
  using namespace lts;
  const std::uint64_t base_seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 101;
  spark::JobConfig job;
  job.app = argc > 2 ? spark::app_type_from_string(argv[2])
                     : spark::AppType::kSort;
  job.input_records = argc > 3 ? std::atoll(argv[3]) : 1000000;
  job.executors = 4;

  for (int trial = 0; trial < 3; ++trial) {
    const std::uint64_t seed = base_seed + 17ULL * trial;
    std::printf("=== seed %llu, %s of %lld records ===\n",
                static_cast<unsigned long long>(seed),
                spark::to_string(job.app),
                static_cast<long long>(job.input_records));

    // One environment to describe the state...
    exp::SimEnv probe(seed);
    probe.warmup();
    std::printf("background pods: %zu\n", probe.num_background_pods());
    for (std::size_t b = 0; b < probe.num_background_pods(); ++b) {
      const auto& bg = probe.background_pod(b);
      std::printf("  bg-%zu: client=%s server=%s\n", b,
                  probe.node_names()[bg.client_node()].c_str(),
                  probe.node_names()[bg.server_node()].c_str());
    }
    const auto snap = probe.snapshot();

    // ...and one copy of it per counterfactual run.
    AsciiTable table({"node", "site", "rtt_mean(ms)", "tx(MB/s)", "rx(MB/s)",
                      "cpu_load", "mem_free(GiB)", "duration(s)"});
    for (std::size_t n = 0; n < probe.node_names().size(); ++n) {
      exp::SimEnv env(probe);
      const auto result = env.run_job(job, n, seed ^ 0xf00dULL);
      const auto& t = snap.nodes[n];
      table.add_row({
          t.node,
          env.cluster().node(n).site(),
          strformat("%.1f", t.rtt_mean * 1e3),
          strformat("%.1f", t.tx_rate / 1e6),
          strformat("%.1f", t.rx_rate / 1e6),
          strformat("%.2f", t.cpu_load),
          strformat("%.2f", t.mem_available / (1024.0 * 1024 * 1024)),
          strformat("%.2f", result.duration()),
      });
    }
    std::printf("%s\n", table.render().c_str());
  }
  return 0;
}
