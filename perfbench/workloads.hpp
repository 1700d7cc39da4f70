// The four workloads and the helpers they share: run configuration, the
// per-run record (gate, metrics, tracer), the cold-boot pipeline, the
// scenario stage decomposition and the per-layer metric catalogue.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "emu/emulation.hpp"
#include "emu/topology.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "summary.hpp"
#include "verify/queries.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the socket and the span dump (inside the checkout).
  std::string out_dir = ".";
  unsigned nproc = 1;
};

/// Everything one run produces. End-to-end metrics go to `metrics` in the
/// untraced run; per-layer metrics go there in the traced run. `extra`
/// holds workload-specific figures that are printed but not gated.
struct Run {
  explicit Run(RunConfig config)
      : config(std::move(config)),
        tracer(this->config.trace ? std::make_unique<Tracer>() : nullptr),
        registry(this->config.trace ? std::make_unique<mfv::obs::MetricsRegistry>()
                                    : nullptr) {}

  RunConfig config;
  Gate gate;
  Metrics metrics;
  Metrics extra;
  /// Null in the end-to-end run: it traces nothing.
  std::unique_ptr<Tracer> tracer;
  /// Metrics registry attached to library calls in the traced run only.
  std::unique_ptr<mfv::obs::MetricsRegistry> registry;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void set_extra(const std::string& name, double value, const std::string& unit) {
    extra[name] = Metric{value, unit};
  }
};

void run_boot(Run& run);
void run_sweep(Run& run);
void run_daemon(Run& run);
void run_explore(Run& run);

// ---------------------------------------------------------------------------
// Shared helpers (common.cpp)

/// This program image's high-water resident set and current RSS, in MB.
double peak_rss_mb();
double current_rss_mb();

/// Pairwise options every workload uses: library defaults plus the
/// loopback scope. `metrics` is set only in the traced run.
mfv::verify::QueryOptions pairwise_options(mfv::obs::MetricsRegistry* metrics = nullptr);

/// Host-speed normalization of serial work. The host's vCPUs change speed
/// by tens of percent over tens of seconds, invisibly to the guest (CPU
/// time equals wall time), so each serial op is followed by a fixed
/// reference computation on the same thread and reported as
/// `ms * kReferenceNominalMs / reference_ms`: milliseconds at the speed
/// where the reference takes kReferenceNominalMs. Raw times go on the
/// extra line.
inline constexpr double kReferenceNominalMs = 10.0;
inline double normalized(double ms, double reference) {
  return ms * kReferenceNominalMs / reference;
}

/// One run of the reference computation (string-keyed map inserts, finds
/// and a sort; about 10 ms) on the calling thread, in ms.
double reference_ms();

/// Harmonic mean of `rounds` reference runs on each of `threads`
/// concurrent threads: the reference for work that keeps every CPU busy.
double reference_parallel_ms(unsigned threads, int rounds);

/// Set-up time in seconds: host-normalized when a reference was given,
/// and as measured.
struct SetupTime {
  double s = 0;
  double raw_s = 0;
};

/// Runs `setup` (which rebuilds the workload state from scratch, warm-up
/// op included) up to three times, stopping early once five seconds of
/// set-up have been spent, and returns the medians. With a `reference`,
/// each repetition is normalized by the mean of the reference measured
/// right before and right after it.
SetupTime repeated_setup(const std::function<void()>& setup,
                         const std::function<double()>& reference = nullptr);

/// One cold verification, config text to verdict.
struct BootOutcome {
  bool added = false;
  bool converged = false;
  size_t diagnostics = 0;
  uint64_t events = 0;
  uint64_t messages = 0;
  size_t entries = 0;
  mfv::verify::PairwiseResult pairwise;
  double parse_ms = 0, converge_ms = 0, capture_ms = 0, graph_ms = 0, pairwise_ms = 0;
  double total_ms = 0;
  /// The converged emulation, when the caller asked to keep it.
  std::unique_ptr<mfv::emu::Emulation> emulation;
};

/// add_topology → start_all → run_to_convergence → capture → graph →
/// pairwise, one span per layer call under a root "boot" span.
BootOutcome boot_pipeline(const mfv::emu::Topology& topology, Tracer* tracer,
                          mfv::obs::MetricsRegistry* registry, bool keep_emulation);

/// True when the boot converged cleanly and verified the full mesh.
bool boot_ok(const BootOutcome& boot, size_t routers, std::string* why);

/// One scenario driven through the public calls in the runner's order,
/// each stage timed: fork → apply → converge → capture → graph →
/// pairwise → teardown, plus the same scenario through a serial runner.
struct StageOutcome {
  double fork_ms = 0, apply_ms = 0, converge_ms = 0, capture_ms = 0, graph_ms = 0,
         pairwise_ms = 0, teardown_ms = 0;
  uint64_t cow_clones = 0;
  uint64_t events = 0;
  double serial_ms = 0;
  double stage_sum_ms() const {
    return fork_ms + apply_ms + converge_ms + capture_ms + graph_ms + pairwise_ms +
           teardown_ms;
  }
  /// Pairwise matrices of the staged path and the serial runner agree.
  bool agree = false;
};

StageOutcome trace_scenario_stages(const mfv::emu::Emulation& base,
                                   const mfv::scenario::ScenarioRunner& serial_runner,
                                   const mfv::scenario::Scenario& scenario, Tracer* tracer,
                                   mfv::obs::MetricsRegistry* registry);

/// Sets the boot / scenario-stage / self-time / trace-cache per-layer
/// metrics from what the traced run collected. Every per-layer metric in
/// kPerLayerMetrics not set by the workload is reported as 0 (the layer
/// did no work in this workload).
void finish_layers(Run& run, const std::vector<BootOutcome*>& boots,
                   const std::vector<StageOutcome>& stages);

struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// True iff two pairwise results have identical cells.
bool same_matrix(const mfv::verify::PairwiseResult& a,
                 const mfv::verify::PairwiseResult& b);

}  // namespace perfbench
