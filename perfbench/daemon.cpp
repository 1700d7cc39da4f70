// daemon-mix-wan200: the multi-tenant daemon over a Unix socket. Two
// tenants each hold a base snapshot of the same 200-router WAN. Three
// `ops` connections issue closed-loop interactive pairwise queries on
// their base (store hits); one `whatif` connection forks a distinct
// single-link cut and queries the fork, which splices against its base.
// Store reads run beside store writes, which is where a store insert
// that holds the global lock shows up as query tail latency.
#include <unistd.h>

#include <atomic>
#include <thread>

#include "service/client.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mfv;

namespace {

constexpr int kRouters = 200;
constexpr uint64_t kTopologySeed = 11;
constexpr int kOpsConnections = 3;
constexpr size_t kMinQueries = 1000;  // p99 needs 1000 samples
/// What-ifs per run, exactly: each keeps a forked emulation in the store,
/// so a fixed count keeps peak memory comparable across runs.
constexpr size_t kWhatifs = 24;
const char* const kScope = "10.1.0.0/16";

emu::Topology daemon_topology() {
  workload::WanOptions options;
  options.routers = kRouters;
  options.seed = kTopologySeed;
  return workload::wan_topology(options);
}

struct Call {
  util::Result<service::Response> response = util::internal_error("not sent");
  double rtt_ms = 0;
  /// Timing field of an ok response, in ms (0 when absent).
  double timing_ms(const char* field) const {
    if (!response.ok() || !response->ok()) return 0;
    const util::Json* timing = response->result.find("timing");
    const util::Json* value = timing == nullptr ? nullptr : timing->find(field);
    return value == nullptr ? 0 : value->as_double() / 1000.0;
  }
  bool ok() const { return response.ok() && response->ok(); }
};

/// One client connection with its own request ids.
class Connection {
 public:
  util::Status connect(const std::string& path) { return client_.connect_unix(path); }

  Call call(const std::string& tenant, const std::string& verb, util::Json params,
            service::Priority priority = service::Priority::kBatch) {
    service::Request request;
    request.id = ++next_id_;
    request.tenant = tenant;
    request.verb = verb;
    request.priority = priority;
    request.params = std::move(params);
    Call call;
    Clock::time_point start = Clock::now();
    call.response = client_.call(request);
    call.rtt_ms = ms_since(start);
    return call;
  }

 private:
  service::Client client_;
  uint64_t next_id_ = 0;
};

// Tolerant readers for response fields: a missing or mistyped field reads
// as 0 / "" / false and fails the check that uses it.
double num(const util::Json& json, const char* key) {
  const util::Json* value = json.is_object() ? json.find(key) : nullptr;
  return value != nullptr &&
                 (value->type() == util::Json::Type::kInt ||
                  value->type() == util::Json::Type::kDouble)
             ? value->as_double()
             : 0.0;
}
std::string str(const util::Json& json, const char* key) {
  const util::Json* value = json.is_object() ? json.find(key) : nullptr;
  return value != nullptr && value->type() == util::Json::Type::kString ? value->as_string()
                                                                        : "";
}
bool flag(const util::Json& json, const char* key) {
  const util::Json* value = json.is_object() ? json.find(key) : nullptr;
  return value != nullptr && value->type() == util::Json::Type::kBool && value->as_bool();
}
const util::Json& field(const util::Json& json, const char* key) {
  static const util::Json kNull;
  const util::Json* value = json.is_object() ? json.find(key) : nullptr;
  return value == nullptr ? kNull : *value;
}

util::Json pairwise_params(const std::string& snapshot) {
  util::Json params = util::Json::object();
  params["snapshot"] = snapshot;
  params["kind"] = "pairwise";
  params["scope"] = kScope;
  return params;
}

/// The daemon, its socket and the four client connections.
struct Harness {
  explicit Harness(const RunConfig& config, obs::MetricsRegistry* registry)
      : service([registry] {
          service::ServiceOptions options;
          options.metrics = registry;
          return options;
        }()),
        server(service, {config.out_dir + "/perfbench-" + std::to_string(getpid()) + ".sock",
                         0, {}}) {}
  ~Harness() { server.stop(); }

  service::VerificationService service;
  service::Server server;
  Connection ops[kOpsConnections];
  Connection whatif;
  std::string ops_base, whatif_base;
};

/// Uploads the topology into `tenant` and builds its base snapshot.
std::string make_base(Connection& connection, const std::string& tenant,
                      const util::Json& topology, Gate& gate) {
  util::Json upload = util::Json::object();
  upload["topology"] = topology;
  Call uploaded = connection.call(tenant, "upload_configs", upload);
  gate.attempt();
  if (!gate.check(uploaded.ok(), tenant + ": upload_configs failed")) return "";
  util::Json params = util::Json::object();
  params["submission"] = str(uploaded.response->result, "submission");
  Call built = connection.call(tenant, "snapshot", params);
  gate.attempt();
  if (!gate.check(built.ok(), tenant + ": snapshot failed")) return "";
  return str(built.response->result, "snapshot");
}

struct QuerySample {
  double rtt_ms = 0, total_ms = 0, verify_ms = 0, queue_wait_ms = 0;
  bool traced = false;
};

struct WhatifSample {
  size_t cut = 0;
  double fork_rtt_ms = 0, fork_build_ms = 0, query_rtt_ms = 0;
  util::Json answer;
  util::Json incremental;
};

bool full_mesh_answer(const Call& call) {
  if (!call.ok()) return false;
  const util::Json& answer = field(call.response->result, "answer");
  return flag(answer, "full_mesh") && num(answer, "total_pairs") == kRouters * (kRouters - 1);
}

/// A what-if: fork the cut, then the first pairwise query on the fork.
WhatifSample whatif(Harness& harness, const emu::LinkSpec& link, size_t cut, Tracer* tracer,
                    Gate& gate) {
  WhatifSample sample;
  sample.cut = cut;
  Tracer::Scope op(tracer, "bench.whatif");
  util::Json perturbations = util::Json::array();
  perturbations.push_back(scenario::perturbation_to_json(scenario::LinkCut{link.a, link.b}));
  util::Json params = util::Json::object();
  params["base"] = harness.whatif_base;
  params["perturbations"] = std::move(perturbations);
  gate.attempt();
  Call fork;
  {
    Tracer::Scope span(tracer, "service.fork_scenario");
    fork = harness.whatif.call("whatif", "fork_scenario", std::move(params));
  }
  sample.fork_rtt_ms = fork.rtt_ms;
  sample.fork_build_ms = fork.timing_ms("converge_us");
  if (!gate.check(fork.ok(), "fork_scenario failed")) return sample;
  Call query;
  {
    Tracer::Scope span(tracer, "service.query");
    query = harness.whatif.call("whatif", "query",
                                pairwise_params(str(fork.response->result, "snapshot")));
  }
  sample.query_rtt_ms = query.rtt_ms;
  if (!gate.check(query.ok(), "query on a fork failed")) return sample;
  sample.answer = field(query.response->result, "answer");
  if (const util::Json* incremental = query.response->result.find("incremental"))
    sample.incremental = *incremental;
  return sample;
}

util::Json stats(Harness& harness) {
  Call call = harness.ops[0].call("ops", "stats", util::Json::object());
  return call.ok() ? call.response->result : util::Json::object();
}

}  // namespace

void run_daemon(Run& run) {
  Tracer* tracer = run.tracer.get();
  emu::Topology topology;
  std::vector<size_t> cuts;
  std::unique_ptr<Harness> harness;

  // Set-up is mostly the daemon building the two base snapshots, one
  // after the other: serial work, normalized by the serial reference.
  const SetupTime setup = repeated_setup([&] {
    harness.reset();
    topology = daemon_topology();
    util::Json topology_json = topology.to_json();
    // Distinct single-link cuts in a seeded order; the first is the warm-up's.
    cuts.resize(topology.links.size());
    for (size_t i = 0; i < cuts.size(); ++i) cuts[i] = i;
    util::Pcg32 rng(run.config.seed);
    for (size_t i = cuts.size(); i > 1; --i)
      std::swap(cuts[i - 1], cuts[rng.next_below(static_cast<uint32_t>(i))]);

    harness = std::make_unique<Harness>(run.config, run.registry.get());
    util::Status started = harness->server.start();
    run.gate.check(started.ok(), "server start: " + started.to_string());
    for (Connection& connection : harness->ops)
      run.gate.check(connection.connect(harness->server.unix_path()).ok(), "connect");
    run.gate.check(harness->whatif.connect(harness->server.unix_path()).ok(), "connect");
    harness->ops_base = make_base(harness->ops[0], "ops", topology_json, run.gate);
    harness->whatif_base = make_base(harness->whatif, "whatif", topology_json, run.gate);
    for (Connection& connection : harness->ops)
      connection.call("ops", "query", pairwise_params(harness->ops_base),
                      service::Priority::kInteractive);
    whatif(*harness, topology.links[cuts[0]], cuts[0], nullptr, run.gate);
  }, reference_ms);

  util::Json before = stats(*harness);
  const double rss_before = current_rss_mb();
  std::atomic<bool> stop{false};
  std::atomic<size_t> query_count{0};
  std::vector<std::vector<QuerySample>> queries(kOpsConnections);
  std::vector<WhatifSample> whatifs;
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kOpsConnections; ++c)
      clients.emplace_back([&, c] {
        for (size_t i = 0; !stop.load(); ++i) {
          // The traced run traces every other query: the untraced ones
          // give the tracing overhead.
          const bool traced = tracer != nullptr && i % 2 == 1;
          Call call;
          {
            Tracer::Scope span(traced ? tracer : nullptr, "service.query");
            call = harness->ops[c].call("ops", "query", pairwise_params(harness->ops_base),
                                        service::Priority::kInteractive);
          }
          run.gate.attempt();
          run.gate.check(full_mesh_answer(call), "ops query failed or lost the full mesh");
          queries[c].push_back({call.rtt_ms, call.timing_ms("total_us"),
                                call.timing_ms("verify_us"),
                                call.timing_ms("queue_wait_us"), traced});
          query_count.fetch_add(1);
        }
      });
    // The what-ifs start no closer together than an even spacing over the
    // window; the queries go on until the last what-if has returned, the
    // window has passed and kMinQueries are done.
    const double window_ms = run.config.seconds * 1000.0;
    for (size_t k = 1; k <= kWhatifs && k < cuts.size(); ++k) {
      const auto offset = std::chrono::duration<double, std::milli>(
          window_ms * static_cast<double>(k - 1) / kWhatifs);
      std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(offset));
      whatifs.push_back(whatif(*harness, topology.links[cuts[k]], cuts[k], tracer, run.gate));
    }
    while (ms_since(start) < window_ms || query_count.load() < kMinQueries)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true);
    for (std::thread& client : clients) client.join();
  }
  const double measured_s = ms_since(start) / 1000.0;
  const double rss = peak_rss_mb();
  const double rss_after = current_rss_mb();
  util::Json after = stats(*harness);
  util::Json counters;
  if (run.registry != nullptr) counters = run.registry->to_json()["counters"];
  harness.reset();

  run.gate.attempt();
  run.gate.check(whatifs.size() == kWhatifs, "the run did not make every what-if");
  const int64_t rejected = static_cast<int64_t>(num(field(after, "broker"), "rejected"));
  const int64_t expired = static_cast<int64_t>(num(field(after, "broker"), "expired"));
  for (int64_t i = 0; i < rejected + expired; ++i)
    run.gate.check(false, "broker rejected or expired a request");

  // Each what-if answer must equal the in-process runner's for its cut.
  BootOutcome base = boot_pipeline(topology, tracer, run.registry.get(), true);
  std::string why;
  run.gate.attempt();
  run.gate.check(boot_ok(base, kRouters, &why), "in-process base: " + why);
  scenario::ScenarioRunnerOptions options;
  options.threads = run.config.nproc;
  options.keep_snapshots = false;
  options.verify.scope = pairwise_options().scope;
  std::vector<scenario::Scenario> singles = scenario::single_link_cuts(topology);
  std::vector<scenario::Scenario> asked;
  for (const WhatifSample& sample : whatifs) asked.push_back(singles[sample.cut]);
  {
    scenario::ScenarioRunner runner(*base.emulation, options);
    auto expected = runner.run(asked);
    for (size_t i = 0; i < whatifs.size(); ++i) {
      const util::Json& answer = whatifs[i].answer;
      bool same = expected.ok() && answer.is_object();
      if (same) {
        const verify::PairwiseResult& want = (*expected)[i].pairwise;
        same = num(answer, "reachable_pairs") == static_cast<double>(want.reachable_pairs) &&
               num(answer, "total_pairs") == static_cast<double>(want.total_pairs) &&
               field(answer, "unreachable").is_array();
        const util::JsonArray unreachable =
            same ? field(answer, "unreachable").as_array() : util::JsonArray{};
        size_t next = 0;
        for (const verify::PairwiseCell& cell : want.cells) {
          if (cell.reachable) continue;
          same = same && next < unreachable.size() &&
                 str(unreachable[next], "source") == cell.source &&
                 str(unreachable[next], "destination") == cell.destination;
          ++next;
        }
        same = same && next == unreachable.size();
      }
      run.gate.check(same, "what-if '" + asked[i].name + "' differs from the runner");
    }
  }

  std::vector<double> rtt, whatif_ms;
  for (const auto& samples : queries)
    for (const QuerySample& q : samples) rtt.push_back(q.rtt_ms);
  for (const WhatifSample& w : whatifs) whatif_ms.push_back(w.fork_rtt_ms + w.query_rtt_ms);

  if (!run.config.trace) {
    run.set("setup_s", setup.s, "s");
    run.set_extra("raw_setup_s", setup.raw_s, "s");
    run.set("peak_rss_mb", rss, "MB");
    run.set("latency_p50_ms", median(rtt), "ms");
    run.set("throughput_per_s", static_cast<double>(rtt.size()) / measured_s, "1/s");
    if (auto p99 = percentile(rtt, 99)) run.set_extra("latency_p99_ms", *p99, "ms");
    run.set_extra("whatif_p50_ms", median(whatif_ms), "ms");
    run.set_extra("queries", static_cast<double>(rtt.size()), "count");
    run.set_extra("whatifs", static_cast<double>(whatifs.size()), "count");
    return;
  }

  std::vector<double> protocol, verify_ms, queue_wait, lookup_wait, traced, untraced;
  for (const auto& samples : queries)
    for (const QuerySample& q : samples) {
      protocol.push_back(q.rtt_ms - q.total_ms);
      verify_ms.push_back(q.verify_ms);
      queue_wait.push_back(q.queue_wait_ms);
      lookup_wait.push_back(q.total_ms - q.verify_ms);
      (q.traced ? traced : untraced).push_back(q.rtt_ms);
    }
  std::vector<double> fork_build, fork_query;
  double spliced = 0, retraced = 0, fallbacks = 0;
  for (const WhatifSample& w : whatifs) {
    fork_build.push_back(w.fork_build_ms);
    fork_query.push_back(w.query_rtt_ms);
    if (!w.incremental.is_object()) continue;
    spliced += num(w.incremental, "spliced");
    retraced += num(w.incremental, "retraced");
    fallbacks += flag(w.incremental, "fell_back") ? 1 : 0;
  }
  run.set("service.protocol_ms", median(protocol), "ms");
  run.set("service.query_verify_ms", median(verify_ms), "ms");
  run.set("service.fork_build_ms", median(fork_build), "ms");
  run.set("service.fork_query_ms", median(fork_query), "ms");
  run.set("broker.queue_wait_p50_ms", median(queue_wait), "ms");
  run.set("broker.queue_wait_p99_ms", percentile(queue_wait, 99).value_or(0), "ms");
  run.set("store.lookup_wait_p99_ms", percentile(lookup_wait, 99).value_or(0), "ms");
  run.set("broker.rejected", static_cast<double>(rejected), "count");
  run.set("broker.expired", static_cast<double>(expired), "count");
  const util::Json& store = field(after, "store");
  run.set("store.hits", num(store, "hits"), "count");
  run.set("store.misses", num(store, "misses"), "count");
  run.set("store.evictions", num(store, "evictions"), "count");
  const double charged_mb = num(store, "bytes") / (1024.0 * 1024.0);
  const double charged_growth =
      charged_mb - num(field(before, "store"), "bytes") / (1024.0 * 1024.0);
  run.set("store.charged_mb", charged_mb, "MB");
  run.set("store.rss_per_charged",
          charged_growth > 0 ? (rss_after - rss_before) / charged_growth : 0, "ratio");
  run.set("verify.incremental.spliced_cells", spliced, "count");
  run.set("verify.incremental.retraced_cells", retraced, "count");
  run.set("verify.incremental.splice_ratio",
          spliced + retraced > 0 ? spliced / (spliced + retraced) : 0, "ratio");
  run.set("verify.incremental.fallbacks", fallbacks, "count");
  // Trace-cache counters of the daemon alone, read before the in-process
  // checks added their own.
  const double hits = num(counters, "trace_cache_hits");
  const double misses = num(counters, "trace_cache_misses");
  run.set("verify.trace_cache_hits", hits, "count");
  run.set("verify.trace_cache_misses", misses, "count");
  run.set("verify.trace_cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
          "ratio");

  scenario::ScenarioRunnerOptions serial_options = options;
  serial_options.threads = 1;
  scenario::ScenarioRunner serial_runner(*base.emulation, serial_options);
  std::vector<StageOutcome> stages;
  for (size_t i = 0; i < 3 && i < asked.size(); ++i)
    stages.push_back(trace_scenario_stages(*base.emulation, serial_runner, asked[i], tracer,
                                           run.registry.get()));
  finish_layers(run, {&base}, stages);
  run.set("trace.overhead_pct", 100.0 * (median(traced) / median(untraced) - 1.0), "%");
}

}  // namespace perfbench
