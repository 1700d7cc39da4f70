// boot-mv60: cold verification from config text to verdict on a 60-router
// multi-vendor WAN. Config parsing and cold BGP/IS-IS convergence do most
// of the work; fork, store, splice and explore do none, so changes to
// those layers should leave this workload flat.
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mfv;

namespace {

constexpr int kRouters = 60;
constexpr size_t kMinOps = 100;  // p90 needs 100 samples

/// The topology's structure is fixed; the seed draws the two external
/// peers' route feeds (same sizes, different prefixes and attributes).
emu::Topology boot_topology(uint64_t seed) {
  workload::WanOptions options;
  options.routers = kRouters;
  options.vjun_fraction = 0.5;
  options.ibgp_mesh = true;
  options.border_count = 2;
  options.routes_per_peer = 200;
  emu::Topology topology = workload::wan_topology(options);
  for (size_t i = 0; i < topology.external_peers.size(); ++i) {
    emu::ExternalPeerSpec& peer = topology.external_peers[i];
    peer.routes = workload::synth_route_feed(options.routes_per_peer, peer.as_number,
                                             peer.address, seed * 1000003 + i);
  }
  return topology;
}

}  // namespace

void run_boot(Run& run) {
  emu::Topology topology;
  BootOutcome warm;
  const SetupTime setup = repeated_setup(
      [&] {
        topology = boot_topology(run.config.seed);
        warm = boot_pipeline(topology, nullptr, nullptr, /*keep_emulation=*/false);
      },
      reference_ms);
  std::string why;
  run.gate.attempt();
  run.gate.check(boot_ok(warm, kRouters, &why), "warm-up boot: " + why);

  // Serial closed loop; each op is followed by the reference it is
  // normalized by. The traced run traces every other op; the untraced
  // ones give the tracing overhead.
  std::vector<double> raw, latencies, references, untraced, traced;
  std::vector<BootOutcome> traced_boots;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; ms_since(start) < run.config.seconds * 1000.0 || i < kMinOps; ++i) {
    const bool trace_op = run.config.trace && i % 2 == 1;
    BootOutcome boot = boot_pipeline(topology, trace_op ? run.tracer.get() : nullptr,
                                     trace_op ? run.registry.get() : nullptr, false);
    references.push_back(reference_ms());
    raw.push_back(boot.total_ms);
    latencies.push_back(normalized(boot.total_ms, references.back()));
    (trace_op ? traced : untraced).push_back(boot.total_ms);
    run.gate.attempt();
    if (run.gate.check(boot_ok(boot, kRouters, &why), "boot: " + why))
      run.gate.check(same_matrix(boot.pairwise, warm.pairwise),
                     "boot: pairwise matrix differs from the warm-up's");
    if (trace_op) {
      boot.pairwise = {};
      traced_boots.push_back(std::move(boot));
    }
  }

  if (!run.config.trace) {
    double busy_ms = 0;
    for (double ms : latencies) busy_ms += ms;
    run.set("setup_s", setup.s, "s");
    run.set("peak_rss_mb", peak_rss_mb(), "MB");
    run.set("latency_p50_ms", median(latencies), "ms");
    run.set("throughput_per_s", 1000.0 * static_cast<double>(latencies.size()) / busy_ms,
            "1/s");
    if (auto p90 = percentile(latencies, 90)) run.set_extra("latency_p90_ms", *p90, "ms");
    run.set_extra("raw_setup_s", setup.raw_s, "s");
    run.set_extra("raw_latency_p50_ms", median(raw), "ms");
    run.set_extra("reference_ms", median(references), "ms");
    run.set_extra("ops", static_cast<double>(latencies.size()), "count");
    return;
  }

  std::vector<BootOutcome*> boots;
  for (BootOutcome& boot : traced_boots) boots.push_back(&boot);
  finish_layers(run, boots, {});
  run.set("trace.overhead_pct", 100.0 * (median(traced) / median(untraced) - 1.0), "%");
}

}  // namespace perfbench
