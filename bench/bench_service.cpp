// Load generator for mfv::service over a real unix-domain socket: the
// full daemon path (framing, broker, snapshot store) measured end-to-end
// from the client side.
//
// Phases:
//   * cold       — snapshot builds of distinct topologies (each converges
//                  a fresh emulation; the store cannot help);
//   * store-hit  — repeated snapshot requests for an already-stored key
//                  (content addressing dedupes to a lease grab);
//   * fork-hit   — repeated identical fork_scenario requests (the first
//                  re-converges, the rest hit the store);
//   * closed-loop — K clients issuing pairwise queries back-to-back;
//   * open-loop   — paced arrivals at a fixed rate on one pipelined
//                  connection; latency includes queueing delay.
//   * tenant-*    — two tenants on one daemon: tenant A parks a large
//                  pipelined backlog, tenant B keeps issuing sequential
//                  queries. DRR admission keeps B's p95 near its unloaded
//                  baseline instead of behind A's whole backlog.
//   * ring        — two daemons behind a ClusterClient; answers must be
//                  byte-identical to a single instance serving the same
//                  requests.
//
// Reports QPS and p50/p95/p99 per phase (SERVICE_TIMING lines) and writes
// the same numbers to BENCH_service.json (override with --json PATH).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "scenario/scenario.hpp"
#include "service/client.hpp"
#include "service/cluster_client.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "workload/generator.hpp"

namespace {

using namespace mfv;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

emu::Topology bench_topology(uint64_t seed) {
  workload::WanOptions options;
  // Distinct router counts guarantee distinct content hashes, so the cold
  // phase never silently turns into store hits.
  options.routers = 4 + static_cast<int>(seed);
  options.seed = seed;
  return workload::wan_topology(options);
}

struct Harness {
  explicit Harness(const char* tag = "",
                   const service::ServiceOptions* overrides = nullptr) {
    service::ServiceOptions options;
    if (overrides != nullptr) options = *overrides;
    options.broker.queue_capacity = 4096;  // the load phases outrun one worker
    service = std::make_unique<service::VerificationService>(options);
    service::ServerOptions server_options;
    server_options.unix_path =
        "/tmp/mfv_bench_" + std::to_string(getpid()) + tag + ".sock";
    server = std::make_unique<service::Server>(*service, server_options);
    if (!server->start().ok()) std::abort();
  }
  ~Harness() { server->stop(); }

  service::Client connect() const {
    service::Client client;
    if (!client.connect_unix(server->unix_path()).ok()) std::abort();
    return client;
  }

  std::unique_ptr<service::VerificationService> service;
  std::unique_ptr<service::Server> server;
};

service::Request make_request(uint64_t id, const std::string& verb) {
  service::Request request;
  request.id = id;
  request.verb = verb;
  request.params = util::Json::object();
  return request;
}

/// upload_configs + snapshot for one topology; returns the snapshot key.
std::string upload_and_snapshot(service::Client& client, const emu::Topology& topology,
                                double* build_ms = nullptr) {
  service::Request upload = make_request(1, "upload_configs");
  upload.params["topology"] = topology.to_json();
  auto uploaded = client.call(upload);
  if (!uploaded.ok() || !uploaded->ok()) std::abort();
  const std::string submission = uploaded->result.find("submission")->as_string();

  service::Request snapshot = make_request(2, "snapshot");
  snapshot.params["submission"] = submission;
  Clock::time_point start = Clock::now();
  auto built = client.call(snapshot);
  if (!built.ok() || !built->ok()) std::abort();
  if (build_ms != nullptr) *build_ms = ms_since(start);
  return submission;
}

service::Request fork_request(const std::string& base, const emu::Topology& topology) {
  service::Request request = make_request(3, "fork_scenario");
  request.params["base"] = base;
  util::Json perturbations = util::Json::array();
  perturbations.push_back(scenario::perturbation_to_json(
      scenario::LinkCut{topology.links[0].a, topology.links[0].b}));
  request.params["perturbations"] = perturbations;
  return request;
}

service::Request query_request(uint64_t id, const std::string& snapshot) {
  service::Request request = make_request(id, "query");
  request.params["snapshot"] = snapshot;
  request.params["kind"] = "pairwise";
  return request;
}

struct PhaseStats {
  size_t requests = 0;
  double wall_ms = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;

  double qps() const { return wall_ms > 0 ? 1000.0 * static_cast<double>(requests) / wall_ms : 0.0; }
};

PhaseStats summarize(const std::vector<double>& latencies, double wall_ms) {
  PhaseStats stats;
  stats.requests = latencies.size();
  stats.wall_ms = wall_ms;
  stats.p50 = percentile(latencies, 0.50);
  stats.p95 = percentile(latencies, 0.95);
  stats.p99 = percentile(latencies, 0.99);
  return stats;
}

void emit(const char* phase, const PhaseStats& stats, util::Json extra = {}) {
  util::Json fields = util::Json::object();
  fields["phase"] = phase;
  if (extra.is_object())
    for (const auto& [key, value] : extra.members()) fields[key] = value;
  fields["requests"] = static_cast<int64_t>(stats.requests);
  fields["qps"] = stats.qps();
  fields["p50_ms"] = stats.p50;
  fields["p95_ms"] = stats.p95;
  fields["p99_ms"] = stats.p99;
  mfvbench::timing("SERVICE_TIMING", fields);
}

void report() {
  Harness harness;
  service::Client client = harness.connect();

  std::printf("=== service: daemon load generation over a unix socket ===\n");

  // -- cold: distinct topologies, every snapshot converges an emulation --
  constexpr uint64_t kColdBuilds = 8;
  std::vector<double> cold_latencies;
  std::string first_snapshot;
  Clock::time_point phase_start = Clock::now();
  for (uint64_t seed = 1; seed <= kColdBuilds; ++seed) {
    double build_ms = 0.0;
    std::string key = upload_and_snapshot(client, bench_topology(seed), &build_ms);
    if (seed == 1) first_snapshot = key;
    cold_latencies.push_back(build_ms);
  }
  PhaseStats cold = summarize(cold_latencies, ms_since(phase_start));
  emit("cold", cold);

  // -- store-hit: the same snapshot over and over --
  constexpr int kHits = 200;
  std::vector<double> hit_latencies;
  service::Request rehit = make_request(10, "snapshot");
  rehit.params["submission"] = first_snapshot;
  phase_start = Clock::now();
  for (int i = 0; i < kHits; ++i) {
    Clock::time_point start = Clock::now();
    auto response = client.call(rehit);
    if (!response.ok() || !response->ok() || !response->result.find("hit")->as_bool())
      std::abort();
    hit_latencies.push_back(ms_since(start));
  }
  PhaseStats store_hit = summarize(hit_latencies, ms_since(phase_start));
  emit("store-hit", store_hit);

  // -- fork-hit: identical what-if, first request pays re-convergence --
  emu::Topology first_topology = bench_topology(1);
  service::Request fork = fork_request(first_snapshot, first_topology);
  Clock::time_point fork_start = Clock::now();
  auto forked = client.call(fork);
  if (!forked.ok() || !forked->ok()) std::abort();
  double fork_cold_ms = ms_since(fork_start);
  std::vector<double> fork_latencies;
  phase_start = Clock::now();
  for (int i = 0; i < kHits; ++i) {
    Clock::time_point start = Clock::now();
    auto response = client.call(fork);
    if (!response.ok() || !response->ok() || !response->result.find("hit")->as_bool())
      std::abort();
    fork_latencies.push_back(ms_since(start));
  }
  PhaseStats fork_hit = summarize(fork_latencies, ms_since(phase_start));
  {
    util::Json extra = util::Json::object();
    extra["first_ms"] = fork_cold_ms;
    emit("fork-hit", fork_hit, std::move(extra));
  }

  // -- closed-loop: K clients, back-to-back pairwise queries --
  constexpr int kClients = 4;
  constexpr int kPerClient = 100;
  std::vector<std::vector<double>> per_client(kClients);
  phase_start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        service::Client worker = harness.connect();
        for (int i = 0; i < kPerClient; ++i) {
          Clock::time_point start = Clock::now();
          auto response =
              worker.call(query_request(static_cast<uint64_t>(i), first_snapshot));
          if (!response.ok() || !response->ok()) std::abort();
          per_client[c].push_back(ms_since(start));
        }
      });
    for (std::thread& thread : threads) thread.join();
  }
  double closed_wall = ms_since(phase_start);
  std::vector<double> closed_latencies;
  for (const auto& latencies : per_client)
    closed_latencies.insert(closed_latencies.end(), latencies.begin(), latencies.end());
  PhaseStats closed = summarize(closed_latencies, closed_wall);
  {
    util::Json extra = util::Json::object();
    extra["clients"] = kClients;
    emit("closed-loop", closed, std::move(extra));
  }

  // -- open-loop: paced arrivals on one pipelined connection; latency is
  //    measured from the *scheduled* send time, so it includes queueing
  //    delay when the service falls behind the offered rate --
  constexpr int kOpenRequests = 400;
  constexpr double kRatePerSec = 800.0;
  std::map<uint64_t, Clock::time_point> scheduled;
  std::vector<double> open_latencies;
  service::Client open_client = harness.connect();
  std::thread receiver([&] {
    for (int i = 0; i < kOpenRequests; ++i) {
      auto response = open_client.receive();
      if (!response.ok() || !response->ok()) std::abort();
      open_latencies.push_back(ms_since(scheduled.at(response->id)));
    }
  });
  Clock::time_point open_start = Clock::now();
  for (int i = 0; i < kOpenRequests; ++i) {
    Clock::time_point due =
        open_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(i / kRatePerSec));
    std::this_thread::sleep_until(due);
    uint64_t id = 1000 + static_cast<uint64_t>(i);
    scheduled.emplace(id, due);  // receiver only sees ids already sent
    if (!open_client.send(query_request(id, first_snapshot)).ok()) std::abort();
  }
  receiver.join();
  PhaseStats open = summarize(open_latencies, ms_since(open_start));
  {
    util::Json extra = util::Json::object();
    extra["offered_qps"] = kRatePerSec;
    emit("open-loop", open, std::move(extra));
  }

  // -- the headline: content addressing pays for itself --
  double speedup = store_hit.p50 > 0 ? cold.p50 / store_hit.p50 : 0.0;
  {
    util::Json fields = util::Json::object();
    fields["store_hit_vs_cold_p50"] = speedup;
    fields["fork_hit_vs_first_p50"] =
        fork_hit.p50 > 0 ? fork_cold_ms / fork_hit.p50 : 0.0;
    mfvbench::timing("SERVICE_SPEEDUP", fields);
  }
  if (speedup < 5.0)
    std::printf("  WARNING: store-hit p50 is less than 5x faster than cold\n");

  // -- per-request observability totals, straight from the stats verb --
  auto stats = client.call(make_request(90, "stats"));
  if (stats.ok() && stats->ok()) {
    const util::Json* store = stats->result.find("store");
    const util::Json* broker = stats->result.find("broker");
    util::Json fields = util::Json::object();
    fields["store_entries"] = store->find("entries")->as_int();
    fields["store_hits"] = store->find("hits")->as_int();
    fields["store_misses"] = store->find("misses")->as_int();
    fields["trace_hits"] = store->find("trace_hits")->as_int();
    fields["completed"] = broker->find("completed")->as_int();
    fields["rejected"] = broker->find("rejected")->as_int();
    mfvbench::timing("SERVICE_STATS", fields);
  }
  std::printf("\n");
}

// Two tenants, one daemon: A parks a pipelined backlog of kBacklog
// queries; B issues sequential queries the whole time. The row pair
// tenant-unloaded / tenant-isolated (and their p95 ratio) is the
// isolation claim in EXPERIMENTS.md S2 — under strict FIFO, B's p95
// would be the backlog drain time.
void report_tenant_isolation() {
  std::printf("=== service: two-tenant fair-share isolation ===\n");

  service::ServiceOptions overrides;
  overrides.broker.threads = 1;  // fixed so the backlog math is portable
  Harness harness("_tenant", &overrides);

  auto tenant_request = [](uint64_t id, const std::string& verb,
                           const std::string& tenant) {
    service::Request request = make_request(id, verb);
    request.tenant = tenant;
    return request;
  };

  // Each tenant converges its own copy of the same network (namespaces
  // never share entries, so both builds are real).
  emu::Topology topology = bench_topology(2);
  auto build_for = [&](service::Client& client, const std::string& tenant) {
    service::Request upload = tenant_request(1, "upload_configs", tenant);
    upload.params["topology"] = topology.to_json();
    auto uploaded = client.call(upload);
    if (!uploaded.ok() || !uploaded->ok()) std::abort();
    const std::string submission = uploaded->result.find("submission")->as_string();
    service::Request snapshot = tenant_request(2, "snapshot", tenant);
    snapshot.params["submission"] = submission;
    if (!client.call(snapshot).ok()) std::abort();
    return submission;
  };
  service::Client client_a = harness.connect();
  service::Client client_b = harness.connect();
  const std::string snapshot_a = build_for(client_a, "tenant_a");
  const std::string snapshot_b = build_for(client_b, "tenant_b");

  auto b_query = [&](uint64_t id) {
    service::Request request = tenant_request(id, "query", "tenant_b");
    request.params["snapshot"] = snapshot_b;
    request.params["kind"] = "pairwise";
    return request;
  };

  // Broker queue wait (from the response's own timing block) is reported
  // alongside wall latency: wall time on an oversubscribed single-core
  // host includes kernel-scheduler wakeup delay the broker cannot
  // control, while queue_wait_us is exactly the share the DRR discipline
  // is responsible for.
  auto queue_wait_ms = [](const service::Response& response) {
    const util::Json* timing = response.result.find("timing");
    const util::Json* wait = timing ? timing->find("queue_wait_us") : nullptr;
    return wait ? static_cast<double>(wait->as_int()) / 1000.0 : 0.0;
  };

  // Unloaded baseline: B alone on the daemon.
  constexpr int kBQueries = 30;
  std::vector<double> unloaded;
  std::vector<double> unloaded_waits;
  Clock::time_point phase_start = Clock::now();
  for (int i = 0; i < kBQueries; ++i) {
    Clock::time_point start = Clock::now();
    auto response = client_b.call(b_query(100 + static_cast<uint64_t>(i)));
    if (!response.ok() || !response->ok()) std::abort();
    unloaded.push_back(ms_since(start));
    unloaded_waits.push_back(queue_wait_ms(*response));
  }
  PhaseStats unloaded_stats = summarize(unloaded, ms_since(phase_start));
  PhaseStats unloaded_wait_stats = summarize(unloaded_waits, 0.0);
  {
    util::Json extra = util::Json::object();
    extra["queue_wait_p95_ms"] = unloaded_wait_stats.p95;
    emit("tenant-unloaded", unloaded_stats, std::move(extra));
  }

  // A floods: one pipelined burst, admitted before B's first loaded query.
  constexpr int kBacklog = 400;
  for (int i = 0; i < kBacklog; ++i) {
    service::Request request = tenant_request(1000 + static_cast<uint64_t>(i),
                                              "query", "tenant_a");
    request.params["snapshot"] = snapshot_a;
    request.params["kind"] = "pairwise";
    if (!client_a.send(request).ok()) std::abort();
  }
  std::thread a_receiver([&] {
    for (int i = 0; i < kBacklog; ++i)
      if (!client_a.receive().ok()) std::abort();
  });

  std::vector<double> loaded;
  std::vector<double> loaded_waits;
  uint64_t b_rejected = 0;
  phase_start = Clock::now();
  for (int i = 0; i < kBQueries; ++i) {
    Clock::time_point start = Clock::now();
    auto response = client_b.call(b_query(2000 + static_cast<uint64_t>(i)));
    if (!response.ok()) std::abort();
    if (!response->ok()) ++b_rejected;
    else loaded_waits.push_back(queue_wait_ms(*response));
    loaded.push_back(ms_since(start));
  }
  PhaseStats loaded_stats = summarize(loaded, ms_since(phase_start));
  PhaseStats loaded_wait_stats = summarize(loaded_waits, 0.0);
  a_receiver.join();

  util::Json extra = util::Json::object();
  extra["a_backlog"] = kBacklog;
  extra["b_rejected"] = b_rejected;
  extra["p95_ratio"] = unloaded_stats.p95 > 0 ? loaded_stats.p95 / unloaded_stats.p95
                                              : 0.0;
  extra["queue_wait_p95_ms"] = loaded_wait_stats.p95;
  // The same bound the service_tenant isolation test enforces: 2x the
  // unloaded p95 plus a flat scheduling allowance for CI hosts where the
  // benchmark timeshares one core with the daemon it is measuring.
  extra["isolation_pass"] =
      loaded_stats.p95 <= 2.0 * unloaded_stats.p95 + 50.0;
  emit("tenant-isolated", loaded_stats, std::move(extra));
  if (b_rejected > 0)
    std::printf("  WARNING: tenant B saw %llu rejections under tenant A load\n",
                static_cast<unsigned long long>(b_rejected));

  // Per-tenant accounting as the daemon reports it.
  auto stats = client_b.call(make_request(90, "stats"));
  if (stats.ok() && stats->ok()) {
    if (const util::Json* tenants = stats->result.find("tenants")) {
      util::Json fields = util::Json::object();
      for (const char* tenant : {"tenant_a", "tenant_b"}) {
        const util::Json* slice = tenants->find(tenant);
        if (slice == nullptr) continue;
        fields[std::string(tenant) + "_completed"] = *slice->find("completed");
        fields[std::string(tenant) + "_rejected"] = *slice->find("rejected");
        fields[std::string(tenant) + "_store_bytes"] = *slice->find("store_bytes");
      }
      mfvbench::timing("SERVICE_TENANTS", fields);
    }
  }
  std::printf("\n");
}

// Two daemons behind the consistent-hash ring: the same uploads and
// queries must produce byte-identical answers to a single instance, with
// each key pinned to one owner.
void report_ring() {
  std::printf("=== service: consistent-hash ring, two instances ===\n");

  Harness instance0("_ring0");
  Harness instance1("_ring1");
  Harness single("_ring_single");
  service::Client single_client = single.connect();

  service::ClusterClientOptions cluster_options;
  for (const Harness* instance : {&instance0, &instance1}) {
    service::ClusterEndpoint endpoint;
    endpoint.unix_path = instance->server->unix_path();
    cluster_options.endpoints.push_back(std::move(endpoint));
  }
  service::ClusterClient cluster(std::move(cluster_options));

  constexpr uint64_t kNetworks = 6;
  bool byte_identical = true;
  std::vector<double> latencies;
  Clock::time_point phase_start = Clock::now();
  for (uint64_t seed = 1; seed <= kNetworks; ++seed) {
    emu::Topology topology = bench_topology(seed);

    service::Request upload = make_request(1, "upload_configs");
    upload.params["topology"] = topology.to_json();
    auto uploaded = cluster.call(upload);
    if (!uploaded.ok() || !uploaded->ok()) std::abort();
    const std::string submission = uploaded->result.find("submission")->as_string();

    service::Request snapshot = make_request(2, "snapshot");
    snapshot.params["submission"] = submission;
    if (!cluster.call(snapshot).ok()) std::abort();

    Clock::time_point start = Clock::now();
    auto answer = cluster.call(query_request(3, submission));
    if (!answer.ok() || !answer->ok()) std::abort();
    latencies.push_back(ms_since(start));

    const std::string single_submission = upload_and_snapshot(single_client, topology);
    auto single_answer = single_client.call(query_request(3, single_submission));
    if (!single_answer.ok() || !single_answer->ok()) std::abort();
    if (submission != single_submission ||
        answer->result.find("answer")->dump() !=
            single_answer->result.find("answer")->dump())
      byte_identical = false;
  }
  PhaseStats ring = summarize(latencies, ms_since(phase_start));

  util::Json extra = util::Json::object();
  extra["instances"] = 2;
  extra["byte_identical"] = byte_identical;
  extra["calls_instance0"] = cluster.per_instance_calls()[0];
  extra["calls_instance1"] = cluster.per_instance_calls()[1];
  emit("ring", ring, std::move(extra));
  if (!byte_identical)
    std::printf("  WARNING: ring answers differ from the single instance\n");
  std::printf("\n");
}

void BM_WireStatsRoundTrip(benchmark::State& state) {
  // Floor of the wire path: framing + broker dispatch + a trivial verb.
  Harness harness;
  service::Client client = harness.connect();
  uint64_t id = 0;
  for (auto _ : state) {
    auto response = client.call(make_request(++id, "stats"));
    if (!response.ok() || !response->ok()) return;
    benchmark::DoNotOptimize(response->result);
  }
}
BENCHMARK(BM_WireStatsRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_StoreHitSnapshot(benchmark::State& state) {
  Harness harness;
  service::Client client = harness.connect();
  const std::string key = upload_and_snapshot(client, bench_topology(1));
  service::Request request = make_request(5, "snapshot");
  request.params["submission"] = key;
  for (auto _ : state) {
    auto response = client.call(request);
    if (!response.ok() || !response->ok()) return;
    benchmark::DoNotOptimize(response->result);
  }
}
BENCHMARK(BM_StoreHitSnapshot)->Unit(benchmark::kMicrosecond);

void BM_CachedPairwiseQuery(benchmark::State& state) {
  Harness harness;
  service::Client client = harness.connect();
  const std::string key = upload_and_snapshot(client, bench_topology(1));
  uint64_t id = 0;
  for (auto _ : state) {
    auto response = client.call(query_request(++id, key));
    if (!response.ok() || !response->ok()) return;
    benchmark::DoNotOptimize(response->result);
  }
}
BENCHMARK(BM_CachedPairwiseQuery)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  mfvbench::JsonReport::instance().init(&argc, argv, "bench_service",
                                        "BENCH_service.json");
  report();
  report_tenant_isolation();
  report_ring();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mfvbench::JsonReport::instance().flush();
  return 0;
}
