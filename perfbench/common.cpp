#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include <cstdio>

#include "gnmi/gnmi.hpp"
#include "util/cow.hpp"
#include "verify/forwarding_graph.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mfv;

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"latency_p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"config.parse_ms", "ms"},
    {"emu.boot_converge_ms", "ms"},
    {"emu.boot_events", "count"},
    {"emu.boot_messages", "count"},
    {"emu.boot_us_per_event", "us"},
    {"emu.fork_ms", "ms"},
    {"emu.fork_cow_clones", "count"},
    {"emu.reconverge_ms", "ms"},
    {"emu.reconverge_events", "count"},
    {"emu.reconverge_us_per_event", "us"},
    {"emu.teardown_ms", "ms"},
    {"gnmi.capture_ms", "ms"},
    {"gnmi.entries", "count"},
    {"verify.graph_ms", "ms"},
    {"verify.pairwise_ms", "ms"},
    {"verify.trace_cache_hits", "count"},
    {"verify.trace_cache_misses", "count"},
    {"verify.trace_cache_hit_ratio", "ratio"},
    {"verify.incremental.spliced_cells", "count"},
    {"verify.incremental.retraced_cells", "count"},
    {"verify.incremental.splice_ratio", "ratio"},
    {"verify.incremental.fallbacks", "count"},
    {"scenario.serial_ms", "ms"},
    {"scenario.stage_sum_ms", "ms"},
    {"scenario.unattributed_ms", "ms"},
    {"scenario.parallel_efficiency", "ratio"},
    {"service.protocol_ms", "ms"},
    {"service.query_verify_ms", "ms"},
    {"service.fork_build_ms", "ms"},
    {"service.fork_query_ms", "ms"},
    {"broker.queue_wait_p50_ms", "ms"},
    {"broker.queue_wait_p99_ms", "ms"},
    {"broker.rejected", "count"},
    {"broker.expired", "count"},
    {"store.lookup_wait_p99_ms", "ms"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.evictions", "count"},
    {"store.charged_mb", "MB"},
    {"store.rss_per_charged", "ratio"},
    {"explore.runs", "count"},
    {"explore.unique_states", "count"},
    {"explore.dedup_hits", "count"},
    {"explore.por_skipped", "count"},
    {"explore.choice_points", "count"},
    {"explore.events", "count"},
    {"explore.ms_per_run", "ms"},
    {"explore.replay_ms", "ms"},
    {"explore.canonicalize_ms", "ms"},
    {"self.config_pct", "%"},
    {"self.emu_pct", "%"},
    {"self.gnmi_pct", "%"},
    {"self.verify_pct", "%"},
    {"self.scenario_pct", "%"},
    {"self.service_pct", "%"},
    {"self.explore_pct", "%"},
    {"self.bench_pct", "%"},
    {"trace.overhead_pct", "%"},
};

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss carries over the launching
  // process's peak across exec, VmHWM belongs to this program image alone.
  double peak_kb = 0;
  if (std::FILE* file = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), file) != nullptr)
      if (std::sscanf(line, "VmHWM: %lf kB", &peak_kb) == 1) break;
    std::fclose(file);
  }
  return peak_kb / 1024.0;
}

double current_rss_mb() {
  long pages = 0, resident = 0;
  if (std::FILE* file = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(file, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(file);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

verify::QueryOptions pairwise_options(obs::MetricsRegistry* metrics) {
  verify::QueryOptions options;
  options.scope = net::Ipv4Prefix::parse("10.1.0.0/16");
  options.metrics = metrics;
  return options;
}

double reference_ms() {
  static std::atomic<uint64_t> sink{0};
  const Clock::time_point start = Clock::now();
  std::map<std::string, uint64_t> table;
  uint64_t h = 1469598103934665603ull;
  auto next_key = [&h](int i) {
    h = (h ^ static_cast<uint64_t>(i)) * 1099511628211ull;
    return "node" + std::to_string(h % 100003) + "/eth" + std::to_string(i % 48);
  };
  for (int i = 0; i < 5000; ++i) table.emplace(next_key(i), h);
  uint64_t sum = 0;
  for (int round = 0; round < 5; ++round)
    for (int i = 0; i < 5000; ++i) {
      auto it = table.find(next_key(i));
      if (it != table.end()) sum += it->second;
    }
  std::vector<std::string> keys;
  for (const auto& [key, value] : table) keys.push_back(key + "#");
  std::sort(keys.begin(), keys.end(), std::greater<>());
  sink.fetch_add(sum + keys.size(), std::memory_order_relaxed);
  return ms_since(start);
}

double reference_parallel_ms(unsigned threads, int rounds) {
  std::vector<double> samples(static_cast<size_t>(threads) * static_cast<size_t>(rounds));
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t)
    workers.emplace_back([&samples, t, rounds] {
      for (int r = 0; r < rounds; ++r)
        samples[static_cast<size_t>(t) * static_cast<size_t>(rounds) + r] = reference_ms();
    });
  for (std::thread& worker : workers) worker.join();
  // Work spread over every CPU runs at their mean speed, so the reference
  // is the harmonic mean of the per-run times.
  double speed = 0;
  for (double ms : samples) speed += 1.0 / ms;
  return static_cast<double>(samples.size()) / speed;
}

SetupTime repeated_setup(const std::function<void()>& setup,
                         const std::function<double()>& reference) {
  std::vector<double> samples, raw;
  double spent = 0;
  while (raw.size() < 3 && (raw.empty() || spent < 5.0)) {
    const double before = reference ? reference() : 0;
    Clock::time_point start = Clock::now();
    setup();
    const double ms = ms_since(start);
    spent += ms / 1000.0;
    raw.push_back(ms / 1000.0);
    samples.push_back((reference ? normalized(ms, (before + reference()) / 2) : ms) / 1000.0);
  }
  return {median(samples), median(raw)};
}

BootOutcome boot_pipeline(const emu::Topology& topology, Tracer* tracer,
                          obs::MetricsRegistry* registry, bool keep_emulation) {
  BootOutcome out;
  Tracer::Scope root(tracer, "bench.boot");
  auto emulation = std::make_unique<emu::Emulation>();
  {
    Tracer::Scope span(tracer, "config.parse");
    out.added = emulation->add_topology(topology).ok();
    out.parse_ms = span.close();
  }
  for (const auto& [node, diagnostics] : emulation->parse_diagnostics())
    out.diagnostics += diagnostics.items.size();
  {
    Tracer::Scope span(tracer, "emu.boot_converge");
    emulation->start_all();
    out.converged = emulation->run_to_convergence();
    out.converge_ms = span.close();
  }
  out.events = emulation->kernel().executed();
  out.messages = emulation->messages_delivered();
  gnmi::Snapshot snapshot;
  {
    Tracer::Scope span(tracer, "gnmi.capture");
    snapshot = gnmi::Snapshot::capture(*emulation, "boot");
    out.capture_ms = span.close();
  }
  out.entries = snapshot.total_entries();
  std::optional<verify::ForwardingGraph> graph;
  {
    Tracer::Scope span(tracer, "verify.graph");
    graph.emplace(snapshot);
    out.graph_ms = span.close();
  }
  {
    Tracer::Scope span(tracer, "verify.pairwise");
    out.pairwise = verify::pairwise_reachability(*graph, pairwise_options(registry));
    out.pairwise_ms = span.close();
  }
  if (keep_emulation) out.emulation = std::move(emulation);
  out.total_ms = root.close();
  return out;
}

bool boot_ok(const BootOutcome& boot, size_t routers, std::string* why) {
  std::string reason;
  if (!boot.added) reason = "add_topology failed";
  else if (!boot.converged) reason = "did not converge";
  else if (boot.diagnostics != 0)
    reason = std::to_string(boot.diagnostics) + " parse diagnostics";
  else if (!boot.pairwise.full_mesh() ||
           boot.pairwise.total_pairs != routers * (routers - 1))
    reason = "pairwise " + std::to_string(boot.pairwise.reachable_pairs) + "/" +
             std::to_string(boot.pairwise.total_pairs) + " is not the full mesh";
  if (why != nullptr) *why = reason;
  return reason.empty();
}

bool same_matrix(const verify::PairwiseResult& a, const verify::PairwiseResult& b) {
  if (a.cells.size() != b.cells.size() || a.reachable_pairs != b.reachable_pairs ||
      a.total_pairs != b.total_pairs)
    return false;
  for (size_t i = 0; i < a.cells.size(); ++i)
    if (a.cells[i].source != b.cells[i].source ||
        a.cells[i].destination != b.cells[i].destination ||
        a.cells[i].reachable != b.cells[i].reachable)
      return false;
  return true;
}

StageOutcome trace_scenario_stages(const emu::Emulation& base,
                                   const scenario::ScenarioRunner& serial_runner,
                                   const scenario::Scenario& scenario, Tracer* tracer,
                                   obs::MetricsRegistry* registry) {
  StageOutcome out;
  verify::PairwiseResult staged;
  {
    Tracer::Scope root(tracer, "bench.scenario_stages");
    // Copy-on-write clones happen as the fork diverges, so count them
    // from the fork to the teardown.
    const uint64_t clones_before = util::cow_clone_count().load();
    std::unique_ptr<emu::Emulation> fork;
    {
      Tracer::Scope span(tracer, "emu.fork");
      fork = base.fork();
      out.fork_ms = span.close();
    }
    if (fork == nullptr) return out;
    {
      Tracer::Scope span(tracer, "scenario.apply");
      for (const scenario::Perturbation& perturbation : scenario.perturbations)
        scenario::ScenarioRunner::apply(*fork, perturbation);
      out.apply_ms = span.close();
    }
    const uint64_t events_before = fork->kernel().executed();
    {
      Tracer::Scope span(tracer, "emu.reconverge");
      fork->run_to_convergence();
      out.converge_ms = span.close();
    }
    out.events = fork->kernel().executed() - events_before;
    gnmi::Snapshot snapshot;
    {
      Tracer::Scope span(tracer, "gnmi.capture");
      snapshot = gnmi::Snapshot::capture(*fork, scenario.name);
      out.capture_ms = span.close();
    }
    std::optional<verify::ForwardingGraph> graph;
    {
      Tracer::Scope span(tracer, "verify.graph");
      graph.emplace(snapshot);
      out.graph_ms = span.close();
    }
    {
      // The runner's per-scenario verify options, plus the loopback scope.
      verify::QueryOptions options = scenario::ScenarioRunnerOptions{}.verify;
      options.scope = pairwise_options().scope;
      options.metrics = registry;
      Tracer::Scope span(tracer, "verify.pairwise");
      staged = verify::pairwise_reachability(*graph, options);
      out.pairwise_ms = span.close();
    }
    {
      Tracer::Scope span(tracer, "emu.teardown");
      graph.reset();
      snapshot = gnmi::Snapshot{};
      fork.reset();
      out.teardown_ms = span.close();
    }
    out.cow_clones = util::cow_clone_count().load() - clones_before;
  }
  Tracer::Scope serial(tracer, "scenario.serial_run");
  auto results = serial_runner.run({scenario});
  out.serial_ms = serial.close();
  out.agree = results.ok() && results->size() == 1 &&
              same_matrix(staged, results->front().pairwise);
  return out;
}

namespace {

template <typename F>
double median_of(const std::vector<const BootOutcome*>& boots, F field) {
  std::vector<double> values;
  for (const BootOutcome* boot : boots) values.push_back(field(*boot));
  return median(values);
}

template <typename F>
double median_of(const std::vector<StageOutcome>& stages, F field) {
  std::vector<double> values;
  for (const StageOutcome& stage : stages) values.push_back(field(stage));
  return median(values);
}

}  // namespace

void finish_layers(Run& run, const std::vector<BootOutcome*>& boot_ptrs,
                   const std::vector<StageOutcome>& stages) {
  std::vector<const BootOutcome*> boots(boot_ptrs.begin(), boot_ptrs.end());
  if (!boots.empty()) {
    run.set("config.parse_ms", median_of(boots, [](auto& b) { return b.parse_ms; }), "ms");
    double converge = median_of(boots, [](auto& b) { return b.converge_ms; });
    double events = median_of(boots, [](auto& b) { return double(b.events); });
    run.set("emu.boot_converge_ms", converge, "ms");
    run.set("emu.boot_events", events, "count");
    run.set("emu.boot_messages",
            median_of(boots, [](auto& b) { return double(b.messages); }), "count");
    run.set("emu.boot_us_per_event", events > 0 ? converge * 1000.0 / events : 0, "us");
    run.set("gnmi.capture_ms", median_of(boots, [](auto& b) { return b.capture_ms; }),
            "ms");
    run.set("gnmi.entries", median_of(boots, [](auto& b) { return double(b.entries); }),
            "count");
    run.set("verify.graph_ms", median_of(boots, [](auto& b) { return b.graph_ms; }), "ms");
    run.set("verify.pairwise_ms",
            median_of(boots, [](auto& b) { return b.pairwise_ms; }), "ms");
  }
  if (!stages.empty()) {
    double reconverge = median_of(stages, [](auto& s) { return s.converge_ms; });
    double events = median_of(stages, [](auto& s) { return double(s.events); });
    double serial = median_of(stages, [](auto& s) { return s.serial_ms; });
    double stage_sum = median_of(stages, [](auto& s) { return s.stage_sum_ms(); });
    run.set("emu.fork_ms", median_of(stages, [](auto& s) { return s.fork_ms; }), "ms");
    run.set("emu.fork_cow_clones",
            median_of(stages, [](auto& s) { return double(s.cow_clones); }), "count");
    run.set("emu.reconverge_ms", reconverge, "ms");
    run.set("emu.reconverge_events", events, "count");
    run.set("emu.reconverge_us_per_event", events > 0 ? reconverge * 1000.0 / events : 0,
            "us");
    run.set("emu.teardown_ms", median_of(stages, [](auto& s) { return s.teardown_ms; }),
            "ms");
    run.set("scenario.serial_ms", serial, "ms");
    run.set("scenario.stage_sum_ms", stage_sum, "ms");
    run.set("scenario.unattributed_ms", serial - stage_sum, "ms");
    for (const StageOutcome& stage : stages)
      run.gate.check(stage.agree, "staged scenario disagrees with the serial runner");
  }
  if (run.registry != nullptr) {
    util::Json counters = run.registry->to_json()["counters"];
    auto counter = [&counters](const char* name) -> double {
      const util::Json* value = counters.find(name);
      return value == nullptr ? 0.0 : value->as_double();
    };
    // A workload that reads the counters elsewhere (the daemon) has set them.
    if (run.metrics.count("verify.trace_cache_hits") == 0) {
      double hits = counter("trace_cache_hits"), misses = counter("trace_cache_misses");
      run.set("verify.trace_cache_hits", hits, "count");
      run.set("verify.trace_cache_misses", misses, "count");
      run.set("verify.trace_cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
    }
  }
  if (run.tracer != nullptr) {
    // Each layer's share of all traced time (the roots' total duration).
    std::vector<Span> spans = run.tracer->spans();
    double traced_ms = 0;
    for (const Span& span : spans)
      if (span.parent == 0) traced_ms += span.end_ms - span.start_ms;
    std::map<std::string, double> per_layer;
    for (const auto& [name, self] : self_time_ms(spans))
      per_layer[name.substr(0, name.find('.'))] += self;
    for (const auto& [layer, self] : per_layer)
      if (traced_ms > 0) run.set("self." + layer + "_pct", 100.0 * self / traced_ms, "%");
  }
  for (const MetricSpec& spec : kPerLayerMetrics)
    if (run.metrics.count(spec.name) == 0) run.set(spec.name, 0.0, spec.unit);
}

// ---------------------------------------------------------------------------
// Tracer support

util::Json Tracer::to_json() const {
  util::Json out = util::Json::array();
  for (const Span& span : spans()) {
    util::Json j = util::Json::object();
    j["id"] = span.id;
    j["parent"] = span.parent;
    j["op"] = span.op;
    j["name"] = span.name;
    j["start_ms"] = span.start_ms;
    j["end_ms"] = span.end_ms;
    out.push_back(std::move(j));
  }
  return out;
}

std::map<std::string, double> self_time_ms(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& span : spans)
    if (span.parent != 0) children[span.parent].push_back({span.start_ms, span.end_ms});
  std::map<std::string, double> self;
  for (const Span& span : spans) {
    double covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double cursor = span.start_ms;
      for (auto [start, end] : intervals) {
        start = std::max(start, cursor);
        end = std::min(end, span.end_ms);
        if (end > start) {
          covered += end - start;
          cursor = end;
        }
      }
    }
    self[span.name] += (span.end_ms - span.start_ms) - covered;
  }
  return self;
}

}  // namespace perfbench
