// explore-wan4: exhaustive exploration of the boot races of a 4-router
// WAN with three BGP border peers and an iBGP mesh, from an un-started
// network with default ExploreOptions. Controlled kernel runs and
// canonical dedup do nearly all the work; verify is almost idle, so a
// change to canonicalization or partial-order reduction shows here only.
#include "explore/explore.hpp"
#include "util/hash.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mfv;

namespace {

constexpr size_t kMinOps = 100;  // p90 needs 100 samples

emu::Topology explore_topology() {
  workload::WanOptions options;
  options.routers = 4;
  options.seed = 7;
  options.border_count = 3;
  options.routes_per_peer = 4;
  options.ibgp_mesh = true;
  return workload::wan_topology(options);
}

/// What the gate compares between explorations: sorted state hashes and
/// the property verdicts.
std::string fingerprint(const explore::ExploreResult& result) {
  std::string out = result.complete ? "complete" : "incomplete";
  for (const explore::StateSummary& state : result.states) out += " " + state.hash;
  for (const explore::PropertyReport& report : result.properties)
    out += " " + report.property + "=" + (report.holds_on_all ? "holds" : "fails") + "/" +
           std::to_string(report.failing_states);
  return out;
}

}  // namespace

void run_explore(Run& run) {
  Tracer* tracer = run.tracer.get();
  emu::Topology topology;
  std::unique_ptr<emu::Emulation> base;
  util::Result<explore::ExploreResult> warm = util::internal_error("not run");
  const SetupTime setup = repeated_setup(
      [&] {
        topology = explore_topology();
        base = std::make_unique<emu::Emulation>();
        run.gate.check(base->add_topology(topology).ok(), "add_topology failed");
        warm = explore::explore({base.get(), /*start=*/true, {}});
      },
      reference_ms);
  run.gate.attempt();
  run.gate.check(warm.ok() && warm->complete && !warm->states.empty(),
                 "warm-up exploration failed or is incomplete");
  const std::string expected = warm.ok() ? fingerprint(*warm) : "";

  // Serial closed loop; each op is followed by the reference it is
  // normalized by. The traced run traces every other op; the untraced
  // ones give the tracing overhead.
  std::vector<double> raw, latencies, references, traced, untraced;
  explore::ExploreResult last;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; ms_since(start) < run.config.seconds * 1000.0 || i < kMinOps; ++i) {
    const bool trace_op = tracer != nullptr && i % 2 == 1;
    Tracer::Scope op(trace_op ? tracer : nullptr, "explore.explore");
    auto result = explore::explore({base.get(), /*start=*/true, {}});
    const double ms = op.close();
    references.push_back(reference_ms());
    raw.push_back(ms);
    latencies.push_back(normalized(ms, references.back()));
    (trace_op ? traced : untraced).push_back(ms);
    run.gate.attempt();
    if (run.gate.check(result.ok(), "exploration failed")) {
      run.gate.check(fingerprint(*result) == expected,
                     "exploration states or verdicts differ from the warm-up");
      last = std::move(*result);
    }
  }
  const double rss = peak_rss_mb();

  // Every state's schedule replays to its hash.
  std::vector<double> replay_ms;
  if (warm.ok())
    for (const explore::StateSummary& state : warm->states) {
      run.gate.attempt();
      Tracer::Scope op(tracer, "explore.replay");
      auto replayed = explore::replay_schedule({base.get(), /*start=*/true, {}}, state.schedule);
      replay_ms.push_back(op.close());
      run.gate.check(replayed.ok() && util::hex64(replayed->hash) == state.hash,
                     "state " + state.hash + " does not replay to its hash");
    }

  if (!run.config.trace) {
    double busy_ms = 0;
    for (double ms : latencies) busy_ms += ms;
    run.set("setup_s", setup.s, "s");
    run.set("peak_rss_mb", rss, "MB");
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

  run.set("explore.runs", static_cast<double>(last.runs), "count");
  run.set("explore.unique_states", static_cast<double>(last.unique_states), "count");
  run.set("explore.dedup_hits", static_cast<double>(last.dedup_hits), "count");
  run.set("explore.por_skipped", static_cast<double>(last.por_skipped_branches), "count");
  run.set("explore.choice_points", static_cast<double>(last.choice_points), "count");
  run.set("explore.events", static_cast<double>(last.events_total), "count");
  run.set("explore.ms_per_run",
          last.runs > 0 ? median(raw) / static_cast<double>(last.runs) : 0, "ms");
  run.set("explore.replay_ms", median(replay_ms), "ms");
  run.set("verify.incremental.spliced_cells", static_cast<double>(last.spliced_cells), "count");
  run.set("verify.incremental.retraced_cells", static_cast<double>(last.retraced_cells),
          "count");
  const double cells = static_cast<double>(last.spliced_cells + last.retraced_cells);
  run.set("verify.incremental.splice_ratio",
          cells > 0 ? static_cast<double>(last.spliced_cells) / cells : 0, "ratio");

  // Canonicalization of one converged branch, and the boot layers of the
  // same network.
  BootOutcome boot = boot_pipeline(topology, tracer, run.registry.get(), true);
  std::vector<double> canonicalize_ms;
  for (int i = 0; i < 20; ++i) {
    Tracer::Scope op(tracer, "explore.canonicalize");
    explore::CanonicalState state = explore::canonicalize(*boot.emulation);
    canonicalize_ms.push_back(op.close());
    run.gate.check(state.hash != 0, "canonical state has no hash");
  }
  run.set("explore.canonicalize_ms", median(canonicalize_ms), "ms");
  finish_layers(run, {&boot}, {});
  run.set("trace.overhead_pct", 100.0 * (median(traced) / median(untraced) - 1.0), "%");
}

}  // namespace perfbench
