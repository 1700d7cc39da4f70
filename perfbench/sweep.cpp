// sweep-k2-wan200: the k=2 what-if sweep over the first 14 links of a
// 200-router IS-IS WAN (91 scenarios) on nproc runner workers. Fork and
// reconvergence are about half of each scenario and cold verify most of
// the rest, so this is where incremental SPF, copy-on-write forks and a
// flat dataplane show.
#include <set>

#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mfv;

namespace {

constexpr int kRouters = 200;
constexpr uint64_t kTopologySeed = 11;
constexpr size_t kCutLinks = 14;
/// Timed sweeps per run, at least: one sweep is ~10 s of a host whose
/// speed drifts over tens of seconds.
constexpr size_t kMinSweeps = 2;
/// Scenarios re-run by cold boot in the fork ≡ cold boot check.
constexpr size_t kColdSamples = 2;
/// Scenarios decomposed into stages in the traced run.
constexpr size_t kStageSamples = 3;

emu::Topology sweep_topology() {
  workload::WanOptions options;
  options.routers = kRouters;
  options.seed = kTopologySeed;
  return workload::wan_topology(options);
}

std::vector<scenario::Scenario> sweep_scenarios(const emu::Topology& topology) {
  emu::Topology cuts = topology;
  if (cuts.links.size() > kCutLinks) cuts.links.resize(kCutLinks);
  return scenario::k_link_cuts(cuts, 2);
}

/// `count` distinct scenario indices drawn by `seed`.
std::vector<size_t> sample(size_t population, size_t count, uint64_t seed) {
  util::Pcg32 rng(seed);
  std::set<size_t> picked;
  while (picked.size() < std::min(count, population))
    picked.insert(rng.next_below(static_cast<uint32_t>(population)));
  return {picked.begin(), picked.end()};
}

/// Cold boot of the topology, the scenario's perturbations, reconvergence
/// and the pairwise verdict: the path the fork must be identical to.
verify::PairwiseResult cold_scenario(const emu::Topology& topology,
                                     const scenario::Scenario& scenario) {
  emu::Emulation emulation;
  if (!emulation.add_topology(topology).ok()) return {};
  emulation.start_all();
  emulation.run_to_convergence();
  for (const scenario::Perturbation& perturbation : scenario.perturbations)
    scenario::ScenarioRunner::apply(emulation, perturbation);
  emulation.run_to_convergence();
  verify::QueryOptions options = scenario::ScenarioRunnerOptions{}.verify;
  options.scope = pairwise_options().scope;
  return verify::pairwise_reachability(
      verify::ForwardingGraph(gnmi::Snapshot::capture(emulation, scenario.name)), options);
}

}  // namespace

void run_sweep(Run& run) {
  emu::Topology topology;
  std::vector<scenario::Scenario> scenarios;
  std::unique_ptr<BootOutcome> base;
  std::unique_ptr<scenario::ScenarioRunner> runner;
  scenario::ScenarioRunnerOptions options;
  options.threads = run.config.nproc;
  options.keep_snapshots = false;
  options.verify.scope = pairwise_options().scope;
  options.verify.metrics = run.registry.get();
  std::vector<scenario::ScenarioResult> warm;

  // Set-up and each timed sweep keep every CPU busy, so each is normalized
  // by the mean of two references taken on every CPU, about 0.3 s each,
  // right before and right after it.
  auto reference = [&run] { return reference_parallel_ms(run.config.nproc, 30); };
  const SetupTime setup = repeated_setup([&] {
    runner.reset();
    base.reset();
    topology = sweep_topology();
    scenarios = sweep_scenarios(topology);
    base = std::make_unique<BootOutcome>(boot_pipeline(
        topology, run.tracer.get(), run.registry.get(), /*keep_emulation=*/true));
    runner = std::make_unique<scenario::ScenarioRunner>(*base->emulation, options);
    auto results = runner->run(scenarios);
    warm = results.ok() ? std::move(*results) : std::vector<scenario::ScenarioResult>{};
  }, reference);
  std::string why;
  run.gate.attempt();
  run.gate.check(boot_ok(*base, kRouters, &why), "base boot: " + why);

  // Every scenario applies and converges, and its broken-pair count is the
  // same in every sweep of the run.
  auto check_sweep = [&](const std::vector<scenario::ScenarioResult>& results) {
    run.gate.attempt(scenarios.size());
    if (!run.gate.check(results.size() == scenarios.size(), "sweep returned no results"))
      return;
    for (size_t i = 0; i < results.size(); ++i)
      run.gate.check(results[i].applied && results[i].converged &&
                         results[i].broken_pairs == warm[i].broken_pairs,
                     "scenario '" + results[i].name + "' failed or changed its verdict");
  };
  run.gate.attempt();
  run.gate.check(warm.size() == scenarios.size(), "warm-up sweep failed");
  for (size_t i = 0; i < warm.size(); ++i)
    run.gate.check(warm[i].applied && warm[i].converged,
                   "warm-up scenario '" + warm[i].name + "' failed");

  std::vector<double> raw, sweep_ms;
  size_t swept = 0;
  double reference_before = reference();
  const Clock::time_point start = Clock::now();
  while (raw.size() < kMinSweeps || ms_since(start) < run.config.seconds * 1000.0) {
    Tracer::Scope op(run.tracer.get(), "scenario.sweep");
    auto results = runner->run(scenarios);
    raw.push_back(op.close());
    const double reference_after = reference();
    sweep_ms.push_back(normalized(raw.back(), (reference_before + reference_after) / 2));
    reference_before = reference_after;
    swept += scenarios.size();
    check_sweep(results.ok() ? *results : std::vector<scenario::ScenarioResult>{});
  }
  double busy_ms = 0;
  for (double ms : sweep_ms) busy_ms += ms;
  const double throughput = 1000.0 * static_cast<double>(swept) / busy_ms;
  const double rss = peak_rss_mb();

  // fork ≡ cold boot on a seeded sample.
  for (size_t index : sample(scenarios.size(), kColdSamples, run.config.seed)) {
    run.gate.attempt();
    auto forked = runner->run({scenarios[index]});
    run.gate.check(forked.ok() && same_matrix(forked->front().pairwise,
                                              cold_scenario(topology, scenarios[index])),
                   "scenario '" + scenarios[index].name + "' differs from its cold boot");
  }

  if (!run.config.trace) {
    run.set("setup_s", setup.s, "s");
    run.set("peak_rss_mb", rss, "MB");
    run.set("latency_p50_ms", median(sweep_ms), "ms");
    run.set("throughput_per_s", throughput, "1/s");
    run.set_extra("raw_setup_s", setup.raw_s, "s");
    run.set_extra("raw_latency_p50_ms", median(raw), "ms");
    run.set_extra("reference_ms", reference_before, "ms");
    run.set_extra("sweeps", static_cast<double>(sweep_ms.size()), "count");
    run.set_extra("breaking_scenarios",
                  static_cast<double>(std::count_if(warm.begin(), warm.end(),
                                                    [](auto& r) { return r.broken_pairs > 0; })),
                  "count");
    return;
  }

  // Traced run: decompose sampled scenarios into stages and time the same
  // scenarios through a serial runner.
  scenario::ScenarioRunnerOptions serial_options = options;
  serial_options.threads = 1;
  scenario::ScenarioRunner serial_runner(*base->emulation, serial_options);
  std::vector<StageOutcome> stages;
  for (size_t index : sample(scenarios.size(), kStageSamples, run.config.seed + 1))
    stages.push_back(trace_scenario_stages(*base->emulation, serial_runner,
                                           scenarios[index], run.tracer.get(),
                                           run.registry.get()));
  // An untraced sweep, by a runner without the metrics registry, against
  // the traced ones gives the tracing overhead.
  scenario::ScenarioRunnerOptions untraced_options = options;
  untraced_options.verify.metrics = nullptr;
  scenario::ScenarioRunner untraced_runner(*base->emulation, untraced_options);
  const Clock::time_point untraced_start = Clock::now();
  {
    auto results = untraced_runner.run(scenarios);
    check_sweep(results.ok() ? *results : std::vector<scenario::ScenarioResult>{});
  }
  const double untraced_ms = ms_since(untraced_start);

  finish_layers(run, {base.get()}, stages);
  double raw_ms = 0;
  for (double ms : raw) raw_ms += ms;
  run.set("scenario.parallel_efficiency",
          1000.0 * static_cast<double>(swept) / raw_ms * run.metrics["scenario.serial_ms"].value /
              (1000.0 * run.config.nproc),
          "ratio");
  run.set("trace.overhead_pct", 100.0 * (median(raw) / untraced_ms - 1.0), "%");
}

}  // namespace perfbench
