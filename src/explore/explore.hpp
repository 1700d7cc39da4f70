// Exhaustive nondeterminism exploration: verify every converged dataplane
// the network can reach, not just the one a single run happened to
// produce (DESIGN.md §13; ROADMAP item 5).
//
// A2 showed that BGP's arrival-order tiebreak makes the converged state a
// function of message delivery order, and sampling jittered seeds only
// probes that space. This engine enumerates it: every branch is a fresh
// fork of an idle base emulation re-executed under a prescribed delivery
// schedule (stateless search — pending kernel closures cannot be cloned,
// so branching replays from the root instead of snapshotting mid-run).
// At each choice point — two or more co-pending BGP-update deliveries
// into the same router from distinct sessions — the kernel's controlled
// run asks which arrives first; a schedule is the sequence of those
// choices. New schedules are generated Chess-style: run with a prefix,
// take choice 0 beyond it, record every choice point's fanout, and
// enqueue prefix+alternative for positions past the prefix only, which
// enumerates the schedule tree exactly once.
//
// Partial-order reduction: deliveries into *different* routers commute
// (each touches only receiver-local state; any downstream race they
// trigger is itself branched when it appears), and same-session
// deliveries are FIFO (TCP ordering — the emulation's channel_busy_until_
// serialization), so neither spawns branches. Converged states are
// canonicalized and deduped (canonical.hpp), so schedules that commute to
// the same dataplane collapse; properties are evaluated once per unique
// state. Verdicts are holds-on-all / fails-on-some with a witness
// schedule that replays deterministically (replay_schedule).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "emu/emulation.hpp"
#include "explore/canonical.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace mfv::explore {

struct ExploreOptions {
  /// Caps: exceeding any marks the result incomplete (complete = false)
  /// instead of running forever — the schedule tree can be exponential.
  uint64_t max_runs = 4096;
  uint64_t max_states = 1024;
  /// Choice points branched per run; deeper ones take the default order.
  uint32_t max_choice_points = 64;
  /// Event budget per branch execution.
  uint64_t max_events_per_run = 10000000ull;
  /// Branch workers (each runs whole schedules): 0 = hardware
  /// concurrency, 1 = serial. The explored tree and the deduped state
  /// set are identical for every worker count when the run completes.
  unsigned threads = 1;
  /// Threads per property sweep (per unique state).
  unsigned verify_threads = 1;
  /// Evaluate properties (loop_free / blackhole_free / forwarding_stable)
  /// per unique state. Off = states and counters only.
  bool verify_properties = true;
  /// Keep each unique state's canonical bytes in the result (replay
  /// byte-identity tests); off by default to bound result size.
  bool keep_state_bytes = false;
  /// Destination scope for property evaluation (e.g. the contested
  /// prefix); nullopt = full IPv4 space.
  std::optional<net::Ipv4Prefix> scope;
  /// Optional metrics sink (explore_* counters + depth histograms).
  obs::MetricsRegistry* metrics = nullptr;
};

/// What each branch replays: fork `base`, optionally boot it, apply the
/// perturbations, then run the controlled schedule to quiescence.
struct ExploreInput {
  /// Idle-kernel emulation to fork per branch: either a constructed but
  /// un-started topology (set `start`) or a converged base (perturbation
  /// exploration). Must outlive the call.
  const emu::Emulation* base = nullptr;
  /// Boot exploration: call start_all() on every branch.
  bool start = false;
  std::vector<scenario::Perturbation> perturbations;
};

/// A fails-on-some witness: the delivery schedule that reaches the
/// violating state. `choices[k]` is the candidate index taken at the
/// k-th choice point; replaying the schedule through replay_schedule()
/// reproduces the state byte-identically.
struct Witness {
  std::vector<uint32_t> choices;
  /// Human-readable description of each chosen delivery
  /// ("from=A2 to=L dest=100.64.0.3 t=3000us alt=1/2").
  std::vector<std::string> deliveries;
  /// hex64 canonical hash of the state the schedule reaches.
  std::string state_hash;

  util::Json to_json() const;
  static util::Result<Witness> from_json(const util::Json& json);
};

struct PropertyReport {
  std::string property;  // "loop_free" | "blackhole_free" | "forwarding_stable"
  bool holds_on_all = true;
  uint64_t failing_states = 0;
  /// First violation, human-readable (empty when the property holds).
  std::string detail;
  std::optional<Witness> witness;

  util::Json to_json() const;
};

struct StateSummary {
  std::string hash;  // hex64
  /// Schedules that converged to this state.
  uint64_t occurrences = 0;
  /// Schedule of the first run that reached it (a valid witness).
  std::vector<uint32_t> schedule;
  /// Canonical bytes (only when ExploreOptions::keep_state_bytes).
  std::string bytes;
};

struct ExploreResult {
  /// Branch executions (schedules run).
  uint64_t runs = 0;
  uint64_t unique_states = 0;
  uint64_t dedup_hits = 0;
  uint64_t hash_collisions = 0;
  /// Choice points hit across all runs, and their total fanout mass.
  uint64_t choice_points = 0;
  uint64_t candidate_total = 0;
  /// Co-pending deliveries the POR declined to branch on (cumulative
  /// over frontier steps — each is a branch a naive interleaver would
  /// have spawned).
  uint64_t por_skipped_branches = 0;
  /// Lower bound on the naive interleaving count: every executed
  /// schedule plus every branch POR pruned.
  uint64_t naive_interleavings = 0;
  /// Runs whose choice depth exceeded max_choice_points (they completed
  /// under the default order; the tree beyond them was not enumerated).
  uint64_t truncated_runs = 0;
  /// True when the whole schedule tree was enumerated within the caps.
  /// Soundness statements (sampled ⊆ exhaustive) require this.
  bool complete = true;
  /// Virtual-time convergence of the default schedule, events executed.
  uint64_t events_total = 0;
  /// Always 0, kept only because the perfbench explore workload reads them.
  uint64_t spliced_cells = 0;
  uint64_t retraced_cells = 0;

  /// Sorted by hash for determinism across worker counts.
  std::vector<StateSummary> states;
  std::vector<PropertyReport> properties;

  /// Membership test for the soundness oracle: does `state` canonicalize
  /// into the deduped set? Byte-exact when state bytes were kept,
  /// hash-only otherwise.
  bool contains(const CanonicalState& state) const;

  util::Json to_json() const;
};

/// Explores every reachable converged state of `input` within the caps.
/// Fails when the base is null or its kernel is not idle.
util::Result<ExploreResult> explore(const ExploreInput& input,
                                    const ExploreOptions& options = {});

/// Re-executes one schedule deterministically and returns the canonical
/// state it converges to. The same choices always reproduce the same
/// bytes — witnesses replay byte-identically.
util::Result<CanonicalState> replay_schedule(const ExploreInput& input,
                                             const std::vector<uint32_t>& choices,
                                             const ExploreOptions& options = {});

}  // namespace mfv::explore
