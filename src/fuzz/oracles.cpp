#include "fuzz/oracles.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "config/dialect.hpp"
#include "explore/explore.hpp"
#include "util/hash.hpp"
#include "service/protocol.hpp"
#include "service/snapshot_store.hpp"
#include "verify/forwarding_graph.hpp"
#include "verify/queries.hpp"
#include "verify/trace_cache.hpp"

namespace mfv::fuzz {

namespace {

/// Generous truncation budgets: the legacy walker's max_paths/max_hops
/// truncation is a *documented* divergence from the exhaustive memoized
/// engine, so the oracle lifts the caps far above anything the generated
/// cases can produce and compares only genuine semantics.
verify::TraceOptions oracle_trace_options() {
  verify::TraceOptions options;
  options.max_hops = 64;
  options.max_paths = 4096;
  return options;
}

Verdict pass(uint32_t oracle, std::string detail = "") {
  return Verdict{oracle, true, std::move(detail)};
}

Verdict fail(uint32_t oracle, std::string detail) {
  if (detail.size() > 2000) detail.resize(2000);
  return Verdict{oracle, false, std::move(detail)};
}

util::Result<gnmi::Snapshot> converge_snapshot(const emu::Topology& topology) {
  emu::Emulation emulation;
  util::Status status = emulation.add_topology(topology);
  if (!status.ok()) return status;
  emulation.start_all();
  if (!emulation.run_to_convergence())
    return util::internal_error("topology did not converge within the event budget");
  return gnmi::Snapshot::capture(emulation, "snap");
}

std::vector<std::string> render_rows(const verify::ReachabilityResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const verify::ReachabilityRow& row : result.rows)
    rows.push_back(row.source + "|" + row.destination.to_string() + "|" +
                   row.dispositions.to_string());
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string first_diff(const std::vector<std::string>& a,
                       const std::vector<std::string>& b) {
  size_t limit = std::min(a.size(), b.size());
  for (size_t i = 0; i < limit; ++i)
    if (a[i] != b[i]) return "serial='" + a[i] + "' threaded='" + b[i] + "'";
  if (a.size() != b.size())
    return "row counts differ: serial=" + std::to_string(a.size()) +
           " threaded=" + std::to_string(b.size());
  return "";
}

// -- oracle 1: serial legacy walker vs threaded memoized engine -------------

Verdict check_engines(const FuzzCase& c) {
  gnmi::Snapshot snapshot;
  if (c.mode == Mode::kSynthetic) {
    snapshot = c.snapshot;
  } else {
    util::Result<gnmi::Snapshot> converged = converge_snapshot(c.topology);
    if (!converged.ok())
      return pass(kOracleEngines, "skipped: " + converged.status().message());
    snapshot = std::move(converged.value());
  }
  verify::ForwardingGraph graph(snapshot);

  verify::QueryOptions serial;
  serial.threads = 1;
  serial.engine = verify::EngineMode::kLegacy;
  serial.trace = oracle_trace_options();

  verify::QueryOptions threaded;
  threaded.threads = 4;
  threaded.engine = verify::EngineMode::kCached;
  threaded.trace = oracle_trace_options();

  std::vector<std::string> serial_rows = render_rows(verify::reachability(graph, serial));
  std::vector<std::string> threaded_rows =
      render_rows(verify::reachability(graph, threaded));
  if (std::string diff = first_diff(serial_rows, threaded_rows); !diff.empty())
    return fail(kOracleEngines, "reachability diverged: " + diff);

  std::vector<std::string> serial_loops = render_rows(verify::detect_loops(graph, serial));
  std::vector<std::string> threaded_loops =
      render_rows(verify::detect_loops(graph, threaded));
  if (std::string diff = first_diff(serial_loops, threaded_loops); !diff.empty())
    return fail(kOracleEngines, "detect_loops diverged: " + diff);

  return pass(kOracleEngines);
}

// -- oracle 2: fork + re-converge vs cold boot ------------------------------

Verdict check_fork(const FuzzCase& c) {
  emu::Emulation cold;
  if (!cold.add_topology(c.topology).ok())
    return pass(kOracleFork, "skipped: topology rejected");
  cold.start_all();
  if (!cold.run_to_convergence()) return pass(kOracleFork, "skipped: unconverged");

  emu::Emulation base;
  if (!base.add_topology(c.topology).ok())
    return pass(kOracleFork, "skipped: topology rejected");
  base.start_all();
  if (!base.run_to_convergence()) return pass(kOracleFork, "skipped: unconverged");

  // Two boots of the same bytes must agree before any perturbation — the
  // determinism precondition everything else builds on.
  std::string cold_json = gnmi::Snapshot::capture(cold, "snap").to_json().dump();
  std::string base_json = gnmi::Snapshot::capture(base, "snap").to_json().dump();
  if (cold_json != base_json)
    return fail(kOracleFork, "two cold boots of the same topology diverged");

  std::unique_ptr<emu::Emulation> fork = base.fork();
  if (fork == nullptr) return fail(kOracleFork, "converged base refused to fork");

  for (const scenario::Perturbation& perturbation : c.perturbations) {
    bool cold_applied = scenario::ScenarioRunner::apply(cold, perturbation);
    bool fork_applied = scenario::ScenarioRunner::apply(*fork, perturbation);
    if (cold_applied != fork_applied)
      return fail(kOracleFork, "perturbation applied to one pipeline only: " +
                                   scenario::perturbation_to_string(perturbation));
  }
  if (!cold.run_to_convergence() || !fork->run_to_convergence())
    return pass(kOracleFork, "skipped: perturbed network did not re-converge");

  std::string cold_after = gnmi::Snapshot::capture(cold, "snap").to_json().dump();
  std::string fork_after = gnmi::Snapshot::capture(*fork, "snap").to_json().dump();
  if (cold_after != fork_after)
    return fail(kOracleFork, "forked dataplane diverged from cold boot after " +
                                 std::to_string(c.perturbations.size()) +
                                 " perturbation(s)");

  // The fork must not write through into the base it copied.
  if (gnmi::Snapshot::capture(base, "snap").to_json().dump() != base_json)
    return fail(kOracleFork, "perturbing the fork mutated the base emulation");

  return pass(kOracleFork);
}

// -- oracle 3: snapshot-store hit vs independent rebuild --------------------

util::Result<std::unique_ptr<service::StoredSnapshot>> build_base_entry(
    const emu::Topology& topology) {
  auto entry = std::make_unique<service::StoredSnapshot>();
  auto emulation = std::make_unique<emu::Emulation>();
  util::Status status = emulation->add_topology(topology);
  if (!status.ok()) return status;
  emulation->start_all();
  if (!emulation->run_to_convergence())
    return util::internal_error("did not converge");
  entry->snapshot = gnmi::Snapshot::capture(*emulation, "snap");
  entry->emulation = std::move(emulation);
  entry->graph = std::make_unique<verify::ForwardingGraph>(entry->snapshot);
  entry->cache = std::make_unique<verify::TraceCache>(*entry->graph);
  return entry;
}

Verdict check_store(const FuzzCase& c) {
  service::SnapshotStore store;
  service::SnapshotKey key = service::key_for_topology(c.topology);
  auto builder = [&c]() { return build_base_entry(c.topology); };

  util::Result<service::SnapshotStore::Lease> first = store.get_or_build(service::kDefaultTenant, key, builder);
  if (!first.ok()) return pass(kOracleStore, "skipped: " + first.status().message());
  util::Result<service::SnapshotStore::Lease> second = store.get_or_build(service::kDefaultTenant, key, builder);
  if (!second.ok()) return fail(kOracleStore, "hit path failed after successful build");
  if (!second->hit) return fail(kOracleStore, "second lookup of one key was a miss");

  util::Result<std::unique_ptr<service::StoredSnapshot>> rebuilt = builder();
  if (!rebuilt.ok()) return fail(kOracleStore, "independent rebuild failed after hit");
  if (second->entry->snapshot.to_json().dump() !=
      (*rebuilt)->snapshot.to_json().dump())
    return fail(kOracleStore, "cached base snapshot differs from a rebuild");

  if (c.perturbations.empty()) return pass(kOracleStore);

  // Forked key: cache the fork, hit it, compare against a cold boot that
  // applies the same perturbations.
  service::SnapshotKey fork_key = service::key_for_fork(key, c.perturbations);
  auto fork_builder = [&]() -> util::Result<std::unique_ptr<service::StoredSnapshot>> {
    std::unique_ptr<emu::Emulation> fork = first->entry->emulation->fork();
    if (fork == nullptr) return util::internal_error("base refused to fork");
    for (const scenario::Perturbation& perturbation : c.perturbations)
      if (!scenario::ScenarioRunner::apply(*fork, perturbation))
        return util::not_found("perturbation target missing");
    if (!fork->run_to_convergence()) return util::internal_error("did not re-converge");
    auto entry = std::make_unique<service::StoredSnapshot>();
    entry->snapshot = gnmi::Snapshot::capture(*fork, "snap");
    entry->emulation = std::move(fork);
    entry->graph = std::make_unique<verify::ForwardingGraph>(entry->snapshot);
    entry->cache = std::make_unique<verify::TraceCache>(*entry->graph);
    return entry;
  };
  util::Result<service::SnapshotStore::Lease> forked =
      store.get_or_build(service::kDefaultTenant, fork_key, fork_builder);
  if (!forked.ok()) return pass(kOracleStore, "skipped: " + forked.status().message());
  util::Result<service::SnapshotStore::Lease> forked_hit =
      store.get_or_build(service::kDefaultTenant, fork_key, fork_builder);
  if (!forked_hit.ok() || !forked_hit->hit)
    return fail(kOracleStore, "second lookup of fork key was not a hit");

  emu::Emulation cold;
  if (!cold.add_topology(c.topology).ok())
    return pass(kOracleStore, "skipped: topology rejected");
  cold.start_all();
  if (!cold.run_to_convergence()) return pass(kOracleStore, "skipped: unconverged");
  for (const scenario::Perturbation& perturbation : c.perturbations)
    if (!scenario::ScenarioRunner::apply(cold, perturbation))
      return pass(kOracleStore, "skipped: perturbation target missing on cold boot");
  if (!cold.run_to_convergence())
    return pass(kOracleStore, "skipped: cold boot did not re-converge");
  if (forked_hit->entry->snapshot.to_json().dump() !=
      gnmi::Snapshot::capture(cold, "snap").to_json().dump())
    return fail(kOracleStore,
                "cached forked snapshot differs from a cold-booted equivalent");

  return pass(kOracleStore);
}

// -- oracle 4: dialect round-trips + literal canonicalization ---------------

/// Rewrites a config into the other dialect's interface namespace, fixing
/// every cross-reference that names an interface.
config::DeviceConfig to_vendor(const config::DeviceConfig& in, config::Vendor target) {
  auto rename = [target](const net::InterfaceName& name) -> net::InterfaceName {
    if (target == config::Vendor::kVjun) {
      if (name.rfind("Ethernet", 0) == 0) return "et-0/0/" + name.substr(8) + ".0";
      if (name.rfind("Loopback", 0) == 0) return "lo0.0";
    } else {
      if (name.rfind("et-", 0) == 0) {
        size_t slash = name.rfind('/');
        size_t dot = name.rfind('.');
        if (slash != std::string::npos && dot != std::string::npos && dot > slash)
          return "Ethernet" + name.substr(slash + 1, dot - slash - 1);
      }
      if (name.rfind("lo", 0) == 0) return "Loopback0";
    }
    return name;
  };
  config::DeviceConfig out = in;
  out.vendor = target;
  // Management features are raw native-dialect lines; they have no
  // cross-dialect rendering, so the rewrite drops them (same-dialect
  // round-trips still cover them).
  out.management_features.clear();
  out.interfaces.clear();
  for (const auto& [name, iface] : in.interfaces) {
    config::InterfaceConfig copy = iface;
    copy.name = rename(name);
    out.interfaces[copy.name] = copy;
  }
  for (net::InterfaceName& passive : out.ospf.passive_interfaces)
    passive = rename(passive);
  for (config::StaticRoute& route : out.static_routes)
    if (route.exit_interface) route.exit_interface = rename(*route.exit_interface);
  for (config::BgpNeighborConfig& neighbor : out.bgp.neighbors)
    if (neighbor.update_source) neighbor.update_source = rename(*neighbor.update_source);
  return out;
}

/// write∘parse must be a fixpoint: text the writer emits parses cleanly
/// and re-emits byte-identically.
std::string check_fixpoint(const config::DeviceConfig& config, const std::string& who) {
  std::string text1 = config::write_config(config);
  config::ParseResult parsed = config::parse_config(text1, config.vendor);
  if (parsed.diagnostics.error_count() > 0)
    return who + ": writer emitted text its own parser rejects (" +
           std::to_string(parsed.diagnostics.error_count()) + " errors)";
  std::string text2 = config::write_config(parsed.config);
  if (text1 != text2) return who + ": write/parse/write is not a fixpoint";
  return "";
}

/// Any dotted-quad (or prefix) literal the parser ACCEPTS must render
/// back to the exact accepted text; accepted-but-normalized literals mean
/// the verifier silently checks a different network than the operator
/// wrote ("10.0.0.01" as 10.0.0.1, "/032" as /32).
std::string check_canonical(const std::string& token) {
  size_t slash = token.find('/');
  if (slash == std::string::npos) {
    if (auto address = net::Ipv4Address::parse(token);
        address && address->to_string() != token)
      return "address '" + token + "' accepted but renders as '" +
             address->to_string() + "'";
    return "";
  }
  if (auto iface = net::InterfaceAddress::parse(token);
      iface && iface->to_string() != token)
    return "interface address '" + token + "' accepted but renders as '" +
           iface->to_string() + "'";
  if (auto prefix = net::Ipv4Prefix::parse(token)) {
    // Host bits are normalized away by design, so compare the parts that
    // must survive: the mask text and the address literal itself.
    std::string mask_text(token.substr(slash + 1));
    if (mask_text != std::to_string(prefix->length()))
      return "prefix '" + token + "' accepted with non-canonical mask text";
    std::string addr_text(token.substr(0, slash));
    auto address = net::Ipv4Address::parse(addr_text);
    if (!address || address->to_string() != addr_text)
      return "prefix '" + token + "' accepted with non-canonical address text";
  }
  return "";
}

std::string scan_literals(const std::string& text) {
  std::istringstream stream(text);
  std::string token;
  while (stream >> token)
    if (std::string problem = check_canonical(token); !problem.empty()) return problem;
  return "";
}

Verdict check_dialect(const FuzzCase& c) {
  for (const std::string& literal : c.literals)
    if (std::string problem = check_canonical(literal); !problem.empty())
      return fail(kOracleDialect, problem);

  for (const emu::NodeSpec& node : c.topology.nodes) {
    if (std::string problem = scan_literals(node.config_text); !problem.empty())
      return fail(kOracleDialect, node.name + ": " + problem);

    config::ParseResult parsed = config::parse_config(node.config_text, node.vendor);
    if (std::string problem = check_fixpoint(parsed.config, node.name + "/native");
        !problem.empty())
      return fail(kOracleDialect, problem);

    config::Vendor other = node.vendor == config::Vendor::kCeos
                               ? config::Vendor::kVjun
                               : config::Vendor::kCeos;
    if (std::string problem =
            check_fixpoint(to_vendor(parsed.config, other), node.name + "/cross");
        !problem.empty())
      return fail(kOracleDialect, problem);
  }

  for (const scenario::Perturbation& perturbation : c.perturbations)
    if (const auto* replace = std::get_if<scenario::ConfigReplace>(&perturbation))
      if (std::string problem = scan_literals(replace->config_text); !problem.empty())
        return fail(kOracleDialect, replace->node + "/replace: " + problem);

  return pass(kOracleDialect);
}

// -- oracle 5: sharded kernel vs serial kernel ------------------------------

/// Boots the case's topology, applies its perturbation sequence, and
/// re-converges after each one, all under `options`. Returns the snapshot
/// JSON plus the counters the sharded kernel promises to preserve, or
/// empty on skip (rejection / non-convergence).
std::string run_case_observables(const FuzzCase& c, emu::EmulationOptions options) {
  emu::Emulation emulation(options);
  if (!emulation.add_topology(c.topology).ok()) return "";
  emulation.start_all();
  if (!emulation.run_to_convergence()) return "";
  for (const scenario::Perturbation& perturbation : c.perturbations) {
    scenario::ScenarioRunner::apply(emulation, perturbation);
    if (!emulation.run_to_convergence()) return "";
  }
  return gnmi::Snapshot::capture(emulation, "snap").to_json().dump() +
         "|delivered=" + std::to_string(emulation.messages_delivered()) +
         "|dropped=" + std::to_string(emulation.messages_dropped()) +
         "|executed=" + std::to_string(emulation.kernel().executed()) +
         "|now=" + std::to_string(emulation.kernel().now().count_micros());
}

Verdict check_sharded(const FuzzCase& c) {
  std::string serial = run_case_observables(c, {});
  if (serial.empty()) return pass(kOracleSharded, "skipped: serial run did not settle");
  for (uint32_t shards : {2u, 4u}) {
    emu::EmulationOptions options;
    options.shards = shards;
    std::string sharded = run_case_observables(c, options);
    if (sharded != serial)
      return fail(kOracleSharded,
                  std::to_string(shards) + "-shard run diverged from serial after " +
                      std::to_string(c.perturbations.size()) + " perturbation(s)");
  }
  return pass(kOracleSharded);
}

// -- oracle 6: exploration soundness (sampled ⊆ exhaustive) -----------------

Verdict check_explore(const FuzzCase& c) {
  // Exploration is exponential in co-pending deliveries; gate it to small
  // topologies and tight caps, and treat every truncation as a skip —
  // membership is only a theorem for complete enumerations.
  if (c.topology.nodes.size() > 6)
    return pass(kOracleExplore, "skipped: topology too large to enumerate");

  emu::Emulation base;
  if (!base.add_topology(c.topology).ok())
    return pass(kOracleExplore, "skipped: topology rejected");

  explore::ExploreInput input;
  input.base = &base;
  input.start = true;
  explore::ExploreOptions options;
  options.max_runs = 128;
  options.max_states = 64;
  options.max_choice_points = 12;
  options.verify_properties = false;
  options.keep_state_bytes = true;  // byte-exact membership below
  util::Result<explore::ExploreResult> result = explore::explore(input, options);
  if (!result.ok())
    return pass(kOracleExplore, "skipped: " + result.status().message());
  if (!result->complete)
    return pass(kOracleExplore, "skipped: exploration truncated by caps");

  // Jitter below the addressed-message latency can only flip deliveries
  // that are co-pending — exactly the pairs the exploration branches on —
  // so every jitter-sampled converged state must be in the explored set.
  for (uint64_t sample_seed = 1; sample_seed <= 4; ++sample_seed) {
    emu::EmulationOptions sample_options;
    sample_options.seed = sample_seed;
    sample_options.message_jitter_micros = 500;
    emu::Emulation sampled(sample_options);
    if (!sampled.add_topology(c.topology).ok())
      return pass(kOracleExplore, "skipped: topology rejected");
    sampled.start_all();
    if (!sampled.run_to_convergence())
      return pass(kOracleExplore, "skipped: jittered boot did not converge");
    explore::CanonicalState state = explore::canonicalize(sampled);
    if (!result->contains(state))
      return fail(kOracleExplore,
                  "jitter seed " + std::to_string(sample_seed) +
                      " converged to a state outside the exhaustive set (hash " +
                      util::hex64(state.hash) + "; explored " +
                      std::to_string(result->unique_states) + " states over " +
                      std::to_string(result->runs) + " runs)");
  }
  return pass(kOracleExplore);
}

// -- oracle 7: delta FIB install vs full compile ----------------------------

/// First router whose installed tables disagree with a full compile of its
/// RIBs: in forwarding always, in bytes where the RIB is clean (a table
/// kept because it forwarded the same may lag in metric or origin until
/// the next install). Empty when all agree.
std::string fib_divergence(const emu::Emulation& emulation) {
  auto check = [](const rib::Rib& rib, const aft::Aft& installed, const aft::Aft& full) {
    if (!installed.forwarding_equal(full)) return "forwards unlike a full compile";
    bool clean = !rib.fully_dirty() && rib.dirty().empty();
    if (clean && installed.to_json().dump() != full.to_json().dump())
      return "clean RIB, installed bytes differ from a full compile";
    return "";
  };
  for (const net::NodeName& name : emulation.node_names()) {
    const vrouter::VirtualRouter& router = *emulation.router(name);
    if (std::string why = check(router.routing_table(), router.fib(), router.compiled_fib());
        !why.empty())
      return name + ": " + why;
    for (const auto& [vrf, vrf_rib] : router.vrf_routing_tables()) {
      auto installed = router.vrf_fibs().find(vrf);
      if (installed == router.vrf_fibs().end()) return name + " vrf " + vrf + ": not installed";
      if (std::string why = check(vrf_rib, installed->second, rib::compile_fib(vrf_rib));
          !why.empty())
        return name + " vrf " + vrf + ": " + why;
    }
  }
  return "";
}

Verdict check_fib(const FuzzCase& c) {
  emu::Emulation emulation;
  if (!emulation.add_topology(c.topology).ok())
    return pass(kOracleFib, "skipped: topology rejected");
  emulation.start_all();
  if (!emulation.run_to_convergence()) return pass(kOracleFib, "skipped: unconverged");
  if (std::string why = fib_divergence(emulation); !why.empty())
    return fail(kOracleFib, "after boot: " + why);
  for (size_t i = 0; i < c.perturbations.size(); ++i) {
    scenario::ScenarioRunner::apply(emulation, c.perturbations[i]);
    if (!emulation.run_to_convergence())
      return pass(kOracleFib, "skipped: perturbed network did not re-converge");
    if (std::string why = fib_divergence(emulation); !why.empty())
      return fail(kOracleFib, "after perturbation " + std::to_string(i + 1) + ": " + why);
  }
  return pass(kOracleFib);
}

}  // namespace

std::vector<Verdict> run_oracles(const FuzzCase& c, uint32_t mask) {
  uint32_t applicable = mask & c.oracles();
  std::vector<Verdict> verdicts;
  if (applicable & kOracleEngines) verdicts.push_back(check_engines(c));
  if (applicable & kOracleFork) verdicts.push_back(check_fork(c));
  if (applicable & kOracleStore) verdicts.push_back(check_store(c));
  if (applicable & kOracleDialect) verdicts.push_back(check_dialect(c));
  if (applicable & kOracleSharded) verdicts.push_back(check_sharded(c));
  if (applicable & kOracleExplore) verdicts.push_back(check_explore(c));
  if (applicable & kOracleFib) verdicts.push_back(check_fib(c));
  return verdicts;
}

std::optional<Verdict> first_failure(const FuzzCase& c, uint32_t mask) {
  for (Verdict& verdict : run_oracles(c, mask))
    if (!verdict.ok) return std::move(verdict);
  return std::nullopt;
}

}  // namespace mfv::fuzz
